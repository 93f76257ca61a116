(** Typed compiler passes over the pipeline's staged values.

    The compiler is a sequence of passes over three staged value
    types — the schedule/clause-level IR ({!Safara_ir.Program}), the
    virtual-ISA kernels straight out of code generation, and the
    register-allocated kernels with their ptxas reports. A pass is a
    named function between two stages, carrying:

    - a stage witness for its input and output (the GADT {!stage}),
      so pipelines are well-typed by construction and the runner can
      pick the matching invariant checker, statistics collector and
      dump renderer for any intermediate value without knowing which
      pass produced it;
    - an optional identity function, present exactly when the pass
      may be disabled ([--disable-pass]) — stage-changing passes such
      as code generation have none and refuse to be skipped.

    {!Pipeline} assembles passes into per-profile sequences and runs
    them with per-pass wall time, before/after statistics and —
    whenever {!assertions_enabled}, i.e. in every dune profile —
    verification between every pass. *)

(** VIR- and ASM-stage values carry each kernel with the
    {!Safara_vir.Facts} of its code: the step that produced the
    kernel made them, and every later reader (the verifier, the next
    pass, {!measure}, the allocator) shares them. *)

type vir_state = {
  v_prog : Safara_ir.Program.t;  (** the program the kernels came from *)
  v_kernels : (Safara_vir.Kernel.t * Safara_vir.Facts.t) list;
      (** one per region, in order *)
}

type asm_state = {
  a_prog : Safara_ir.Program.t;
  a_kernels :
    (Safara_vir.Kernel.t * Safara_vir.Facts.t * Safara_ptxas.Assemble.report)
    list;
}

type _ stage =
  | Ir : Safara_ir.Program.t stage
  | Vir : vir_state stage
  | Asm : asm_state stage

val stage_name : _ stage -> string
(** ["ir"], ["vir"] or ["asm"]. *)

(** Size statistics of a staged value; fields that do not apply to the
    stage are 0 (e.g. [s_instrs] at the IR stage). *)
type stats = {
  s_units : int;  (** regions (IR) or kernels (VIR/ASM) *)
  s_stmts : int;  (** static IR statements across all regions *)
  s_instrs : int;  (** virtual-ISA instructions across all kernels *)
  s_vregs : int;
      (** virtual registers across all kernels: each kernel's
          register-id bound, read from its facts *)
  s_regs : int;
      (** estimated hardware registers: max over kernels of the
          register-pressure lower bound
          {!Safara_vir.Facts.max_units} (VIR, only when
          measured [~precise:true]) or of the allocator's report
          (ASM) *)
}

val zero_stats : stats

(** Shared pass context: configuration every pass may read, plus the
    side-channel outputs (SAFARA feedback logs) that end up in
    {!Compiler.compiled}. *)
type ctx = {
  arch : Safara_gpu.Arch.t;
  latency : Safara_gpu.Latency.table;
  feedback : (Safara_ir.Program.t -> Safara_ir.Region.t -> int) option;
      (** SAFARA's register feedback ([None]: the registers of
          {!Pipeline.feedback}'s kernel); the compiler passes one read
          from its region memo's tail entries *)
  candidates :
    (Safara_analysis.Reuse.policy ->
    Safara_ir.Program.t ->
    Safara_ir.Region.t ->
    Safara_analysis.Reuse.candidate list)
    option;
      (** SAFARA's candidate analysis ([None]:
          {!Safara_analysis.Reuse.candidates}); the compiler passes a
          memoized one *)
  mutable logs : (string * Safara_transform.Safara.round list) list;
}

val make_ctx : arch:Safara_gpu.Arch.t -> latency:Safara_gpu.Latency.table -> ctx
(** No feedback or candidate override, no logs. *)

type ('a, 'b) t = private {
  name : string;
  input : 'a stage;
  output : 'b stage;
  run : ctx -> 'a -> 'b;
  identity : ('a -> 'b) option;
      (** [Some f] when the pass may be disabled; [f] is the skip *)
}

val make :
  name:string ->
  input:'a stage ->
  output:'b stage ->
  ?identity:('a -> 'b) ->
  (ctx -> 'a -> 'b) ->
  ('a, 'b) t
(** Define (and register) a pass. Pass names are a global registry so
    [--disable-pass] / [--dump-ir] can reject typos; registering two
    different passes under one name is a programming error, but
    re-creating the same pass (pipelines are built per compile) is
    fine. *)

val registered : unit -> string list
(** Names of every pass ever constructed in this process, sorted. *)

val is_registered : string -> bool

val measure : precise:bool -> 'a stage -> 'a -> stats
(** [precise:true] additionally computes the VIR-stage register
    estimate (the liveness of each kernel's facts — cheap next to
    allocation, but skipped on the default compile path). *)

val verify : 'a stage -> 'a -> unit
(** The stage's invariant checker: {!Safara_ir.Validate.check_exn} on
    IR, {!Safara_vir.Verify.verify_exn} over its facts on every kernel
    at the VIR and ASM stages whose facts are not
    {!Safara_vir.Facts.verified} yet, marking them: a kernel value is
    verified once however many steps hand it on.
    @raise Invalid_argument on the first ill-formed value. *)

val dump : 'a stage -> 'a -> string
(** Human-readable rendering of the staged value ([--dump-ir]). *)

val dump_annotated : 'a stage -> 'a -> string
(** Like {!dump}, but VIR-bearing stages prefix every instruction
    with its live-set size — vregs, then 32-bit register units — from
    {!Safara_vir.Facts.pp_annotated}, and end each kernel with
    its peak demand ([--dump-ir --annotate-live]). IR values fall back
    to the plain dump. *)

val assertions_enabled : bool
(** Whether this binary keeps [assert]s — true in both the [dev] and
    [release] dune profiles, since neither passes [-noassert]; the
    default for verify-between-passes. *)
