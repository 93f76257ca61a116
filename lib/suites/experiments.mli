(** Reproduction of every table and figure in the paper's evaluation
    (§V), as data plus formatted text. Speedups are relative to the
    [Base] profile; normalized times follow the paper's
    [Norm(c) = ExeTime(c) / max(ExeTime(OpenUH), ExeTime(PGI))]
    definition (§V.C).

    Every generator takes an optional evaluation engine ([?eng]); when
    omitted, a shared lazily-created engine is used (serial unless
    [SAFARA_JOBS] says otherwise). Passing an explicit parallel
    {!Eval.t} fans the experiment's (workload × profile) jobs out over
    its domain pool while the row assembly and rendering stay serial,
    so output is byte-identical at any [-j].

    Every generator also takes an optional architecture ([?arch], a
    {!Safara_gpu.Arch.registry} point, default the paper's K20Xm):
    the jobs carry it into the compile/sim cache keys, so one engine
    can hold a whole architecture sweep without aliasing. *)

type speedup_row = {
  sr_id : string;
  sr_values : (string * float) list;  (** config label → speedup *)
}

type norm_row = {
  nr_id : string;
  nr_values : (string * float) list;  (** compiler label → normalized time *)
}

type reg_row = {
  rr_kernel : string;
  rr_base : int;
  rr_small : int;
  rr_dim : int option;  (** [None] = NA (the clause is not applicable) *)
  rr_saved : int;
}

val fig7 : ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> speedup_row list
(** SPEC speedups with SAFARA alone. *)

val fig9 : ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> speedup_row list
(** SPEC speedups: small / small+dim / small+dim+SAFARA (cumulative). *)

val fig10 : ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> speedup_row list
(** NAS speedups, same three configurations. *)

val fig11 : ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> norm_row list
(** SPEC normalized execution time: OpenUH base / SAFARA /
    SAFARA+clauses vs PGI-like. *)

val fig12 : ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> norm_row list
(** NAS normalized execution time, same four compilers. *)

val table1 : ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> reg_row list
(** 355.seismic per-kernel register usage. *)

val table2 : ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> reg_row list
(** 356.sp per-kernel register usage (with NA rows). *)

type offsets_demo = {
  od_config : string;
  od_dope_loads : int;  (** descriptor-extent loads in the kernel *)
  od_offset_instrs : int;  (** instructions in the kernel body *)
  od_regs : int;
}

val offsets : ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> offsets_demo list
(** The §IV.A worked example: offset-computation temporaries on the
    Fig-8 kernel without clauses, with [small], with [dim], and with
    both. *)

type crossarch_row = {
  ca_id : string;
  ca_values : (string * float) list;
      (** arch registry key → Full-vs-base speedup on that model *)
}

val crossarch :
  ?eng:Eval.t -> ?archs:Safara_gpu.Arch.t list -> unit -> crossarch_row list
(** Extension experiment (not in the paper): the same optimization
    stack retargeted to every registry architecture (default
    {!Safara_gpu.Arch.registry}). Each model point re-prices the cost
    model — e.g. Fermi serves read-only references at global latency
    under a 63-register cap — and the speedups shift accordingly. *)

val render_crossarch : crossarch_row list -> string

type unroll_row = {
  ur_id : string;
  ur_speedups : (int * float) list;
      (** unroll factor → speedup of Full+unroll vs plain Full *)
  ur_regs : (int * int) list;  (** unroll factor → hottest kernel registers *)
}

val unroll_study : ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> unroll_row list
(** The paper's stated future work (§VII): combining classical loop
    unrolling with SAFARA and the clauses. Unrolling multiplies both
    the reuse SAFARA can harvest and the register pressure — the same
    tension the clauses arbitrate. *)

val render_unroll : unroll_row list -> string

type ablation_row = {
  ab_name : string;
  ab_description : string;
  ab_speedups : (string * float) list;  (** benchmark id → speedup vs the ablated variant *)
}

val ablations :
  ?eng:Eval.t -> ?arch:Safara_gpu.Arch.t -> unit -> ablation_row list
(** The design-choice ablations listed in DESIGN.md §4, with budgets
    and policies derived from the given architecture's limits. *)

val average : speedup_row list -> speedup_row
(** Geometric-mean row labelled "Average". *)

val render_speedups : title:string -> speedup_row list -> string
val render_norms : title:string -> norm_row list -> string
val render_regs : title:string -> reg_row list -> string
val render_offsets : offsets_demo list -> string
val render_ablations : ablation_row list -> string

val section :
  string -> (eng:Eval.t -> arch:Safara_gpu.Arch.t -> string) option
(** The rendered table of one [bench] table/figure mode ([table1],
    [table2], [offsets], [fig7], [fig9], [fig10], [fig11], [fig12],
    [ablations], [crossarch], [unroll]); [None] for any other name.
    A title names the architecture when it is not the default. *)

val report : eng:Eval.t -> arch:Safara_gpu.Arch.t -> string
(** The whole evaluation that [bench all] prints before its
    compiler-pass microbenchmarks: a header, then every {!section} in
    the order listed there, each followed by a blank line.
    Deterministic: byte-identical at any [-j]. *)
