(** Scalar-replacement candidate discovery (paper §III.B step 1).

    Array references are grouped into reuse groups:
    - {e intra-iteration}: syntactically identical references that
      execute together in one iteration (same loop nest, same guard) —
      legal regardless of how the loops are scheduled;
    - {e inter-iteration}: references that are translates of one
      another along the innermost enclosing {e sequential} loop
      (e.g. [b\[k\]], [b\[k-1\]]) — the classical Carr–Kennedy rotating
      pattern, legal only because the carrying loop is sequential
      (paper §III.A.1 forbids it on parallelized loops).

    Each group carries the SAFARA cost-model ingredients: reference
    count [C], memory space, access class, latency [L], cost [C × L],
    and the number of 32-bit registers the replacement needs. *)

type kind =
  | Intra
  | Inter of { carrier : string; span : int }
      (** [carrier]: the sequential loop index; [span]: max iteration
          distance in the chain (span+1 rotating scalars needed) *)
  | Promote of { carrier : string; has_write : bool }
      (** a reference whose subscripts are invariant in the sequential
          [carrier] loop: the cell is kept in one register for the
          whole loop (classical register promotion — accumulators like
          [q\[i\] += …] and hoisted invariant loads), stored back after
          the loop when written *)

type candidate = {
  c_array : string;
  c_elem : Safara_ir.Types.dtype;
  c_refs : Dependence.aref list;  (** members, program order *)
  c_kind : kind;
  c_reads : int;
  c_writes : int;
  c_regs_needed : int;  (** 32-bit registers consumed by the scalars *)
  c_space : Safara_gpu.Memspace.space;
  c_access : Safara_gpu.Memspace.access;
  c_latency : int;  (** L *)
  c_addr_latency : int;
      (** per-arch address-recomputation cost ({!Safara_gpu.Addrcost})
          the caching also removes — added to [L] in the priority *)
  c_cost : int;  (** C × (L + addr), the SAFARA priority *)
  c_loads_saved : int;  (** memory loads removed per iteration *)
}

type policy = {
  max_span : int;  (** longest rotating chain considered (default 8) *)
  allow_inter : bool;
  allow_intra : bool;
  allow_promote : bool;
  skip_coalesced_read_only : bool;
      (** drop candidates whose references are coalesced and served by
          the read-only cache (the refinement paper §VI argues for;
          {e off} by default because the paper's own Fig 7 shows SAFARA
          replacing aggressively enough to overuse registers on
          355.seismic — the ablation benchmarks measure this switch) *)
}

val default_policy : policy

val candidates :
  ?policy:policy ->
  arch:Safara_gpu.Arch.t ->
  latency:Safara_gpu.Latency.table ->
  Safara_ir.Program.t ->
  Safara_ir.Region.t ->
  candidate list
(** Candidates of a schedule-resolved region, sorted by decreasing
    cost (ties broken by program order of the first reference). *)

val shift_along :
  k:string -> Affine.t option list -> Affine.t option list -> int option
(** [shift_along ~k a b]: [Some d] when subscript tuple [b] is tuple
    [a] shifted by [d] iterations of index [k] ([Some 0] for equal
    tuples that do not depend on [k]); [None] otherwise. This is how
    an inter-iteration candidate's members were matched. *)

val kind_to_string : kind -> string
val pp_candidate : Format.formatter -> candidate -> unit
