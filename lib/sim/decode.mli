(** Per-kernel pre-decoded program: the front end of the
    closure-threaded engine ({!Threaded}) and the source of the timing
    model's ({!Timing}) per-op static tables.

    [decode] compiles a {!Safara_vir.Kernel.t} once per launch into a
    flat array of decoded ops: branch targets resolved to instruction
    indices, [Ldp] parameter names pre-parsed (the [".lenN"]/[".loN"]
    string surgery leaves the hot loop), and operand register classes
    resolved from the static {!Safara_vir.Vreg.rty}. Registers live in
    unboxed [float array]/[int array] halves ({!state}), so executing a
    register-to-register op allocates nothing.

    The decoded stream is 1:1 with [Kernel.code]: labels decode to
    {!dop.DNop} and still count as instructions, exactly like the
    reference interpreter. The threaded engine built on it is
    bit-identical to the reference walker for verifier-clean kernels;
    test/suite_sim.ml runs every workload through both and compares
    checksums, counters and timing stats. *)

exception Error of Safara_diag.Diagnostic.t
(** Decode-time fault (SAF021: branch to an unknown label) — caught by
    callers that prefer the reference engine's [Failure]. *)

(** Which execution engine {!Interp.run_kernel} and
    {!Timing.simulate_resident_set} dispatch to. *)
type engine =
  | Reference  (** the preserved boxed walkers: the semantic oracle *)
  | Threaded  (** the closure-threaded compiler ({!Threaded}) *)

val engine : engine ref
(** Current engine (default [Threaded]). Differential tests and
    [bench sim] flip this to compare the engines; both are
    bit-identical on verifier-clean kernels. *)

val engine_name : engine -> string
(** ["reference"] / ["threaded"]. *)

val all_engines : engine list

val engine_of_string : string -> engine
(** Accepts the {!engine_name} spellings (and their 3-letter prefixes),
    case-insensitively.
    @raise Failure listing the valid names otherwise — the CLI
    [--engine] flag surfaces that message directly. *)

val with_engine : engine -> (unit -> 'a) -> 'a
(** Run [f] with {!engine} set to [e], restoring the previous engine
    on exit (including exceptional exit). *)

(** {1 Shared launch types} *)

type env = { scalars : (string * Value.t) list; mem : Memory.t }

type counters = {
  mutable c_instructions : int;
  mutable c_loads : int;
  mutable c_stores : int;
  mutable c_atomics : int;
  mutable c_spill_ops : int;
}

val fresh_counters : unit -> counters

val null_counters : counters
(** Shared sink for runs that don't observe counters. *)

(** {1 Pre-decoded program} *)

(** Pre-parsed [Ldp] parameter name. *)
type pkind =
  | P_plain of string
  | P_dim of string * int * bool  (** array, dim index, is-extent *)

val parse_param : string -> pkind

val resolve_param : env -> Safara_ir.Program.t -> pkind -> Value.t
(** Mirrors the reference [Interp.param_value], including its error
    messages. *)

(** A decoded operand: immediate or register half + index. *)
type src = SFImm of float | SIImm of int | SFReg of int | SIReg of int

type mem_op = { mo_mem : Safara_vir.Instr.mem; mo_local : bool; mo_ro : bool }

type dop =
  | DNop
  | DLd of { fdst : bool; dst : int; addr : src; mi : int }
  | DSt of { src : src; addr : src; mi : int }
  | DLdp of { fdst : bool; dst : int; slot : int }
  | DMov of { fdst : bool; dst : int; src : src }
  | DAddF of { dst : int; a : src; b : src }
  | DSubF of { dst : int; a : src; b : src }
  | DMulF of { dst : int; a : src; b : src }
  | DAddI of { dst : int; a : src; b : src }
  | DMulI of { dst : int; a : src; b : src }
  | DBinF of { op : Safara_vir.Instr.binop; dst : int; a : src; b : src }
  | DBinI of { op : Safara_vir.Instr.binop; dst : int; a : src; b : src }
  | DBinB of { op : Safara_vir.Instr.binop; dst : int; a : src; b : src }
  | DUnaF of { op : Safara_vir.Instr.unop; fdst : bool; dst : int; a : src }
  | DNegI of { dst : int; a : src }
  | DNot of { fdst : bool; dst : int; a : src }
  | DCvtF of { dst : int; src : src }
  | DCvtI of { dst : int; src : src }
  | DCvtB of { dst : int; src : src }
  | DSetpF of { cmp : Safara_vir.Instr.cmp; fdst : bool; dst : int; a : src; b : src }
  | DSetpI of { cmp : Safara_vir.Instr.cmp; fdst : bool; dst : int; a : src; b : src }
  | DSpec of { fdst : bool; dst : int; sp : int }
  | DBra of int
  | DBrc of { pred : src; if_true : bool; target : int }
  | DAtom of { op : Safara_vir.Instr.binop; addr : src; src : src; mi : int }
  | DRet

type t = {
  d_kernel : Safara_vir.Kernel.t;
  d_ops : dop array;  (** 1:1 with [d_kernel.code]; labels are [DNop] *)
  d_mems : mem_op array;  (** memory descriptors, indexed by [mi] *)
  d_params : pkind array;  (** pre-parsed [Ldp] names, by slot *)
  d_nregs : int;
}

val decode : Safara_vir.Kernel.t -> t
(** @raise Error on a branch to an unknown label (SAF021). *)

(** {1 Execution state} *)

type state = {
  xf : float array;  (** float register half *)
  xi : int array;  (** int/predicate register half (bools as 0/1) *)
  x_local : (int, Value.t) Hashtbl.t;  (** per-thread local (spill) slots *)
  x_special : int array;  (** tid/ctaid/ntid/nctaid, 12 slots *)
  mutable x_addr : int;
      (** effective address of the last memory op executed — recorded
          because the op may overwrite its own address register *)
}

val make_state : t -> state
(** Zeroed registers and empty local memory. *)

val set_launch :
  state -> ntid:int * int * int -> nctaid:int * int * int -> unit
(** Write the launch-invariant special slots (ntid/nctaid) once. *)

val set_thread :
  state -> tx:int -> ty:int -> tz:int -> cx:int -> cy:int -> cz:int -> unit
(** Write the per-thread special slots (tid/ctaid); tuple-free so the
    grid walk allocates nothing per thread. *)

val set_specials :
  state ->
  tid:int * int * int ->
  cta:int * int * int ->
  ntid:int * int * int ->
  nctaid:int * int * int ->
  unit
(** [set_launch] + [set_thread] in one call (used per warp by the
    timing model, where warps are few). *)

(** Per-launch parameter cache: both register-class views of each
    resolved parameter, filled lazily on first [Ldp]. Also carries the
    launch environment, so a compiled closure needs only the state and
    this record. *)
type params = {
  pv_f : float array;
  pv_i : int array;
  pv_ok : bool array;
  p_env : env;
  p_prog : Safara_ir.Program.t;
}

val make_params : t -> env:env -> prog:Safara_ir.Program.t -> params

val ensure_param : t -> params -> int -> unit
(** Resolve parameter slot [slot] if it isn't cached yet, writing both
    register-class views.
    @raise Failure on an unbound parameter (like the reference
    engine's first [Ldp] of that name). *)

val resolve_all : t -> params -> bool
(** Eagerly resolve every slot, swallowing resolution failures (the
    slot keeps its lazy fault for threads that actually read it).
    Returns [true] iff every slot resolved — the precondition for
    sharing the record read-only across concurrent chunks. *)
