(** Declarative compilation pipelines.

    A {!desc} is a pure value describing one compiler configuration —
    which clauses survive, whether/how SAFARA runs, and the
    architecture deltas a profile implies. {!build} elaborates a
    descriptor into the typed pass sequence

    {v strip-clauses → resolve-schedules → [safara] → codegen →
       peephole → copy-prop → strength-red → indvar → memmerge →
       dce → assemble v}

    — a descriptor-dependent {!head} up to [safara], then the fixed
    {!tail} from [codegen] on — and {!run} executes it with per-pass instrumentation: wall time,
    before/after {!Pass.stats}, optional IR snapshots after any pass
    ([--dump-ir]), optional pass disabling ([--disable-pass]), and —
    when {!Pass.assertions_enabled} (or forced via {!options}) — the
    stage's invariant checker after {e every} pass, not just after
    codegen and assembly.

    {!signature} is a content hash of the resolved pipeline (pass
    list, per-pass configuration, disabled set); the evaluation
    engine folds it into its compile-cache keys so toggling or
    reordering passes can never alias a stale artifact. *)

type safara_mode =
  | Feedback
      (** the paper's feedback loop: measured ptxas register counts
          bound each round's replacement budget *)
  | Exhaustive
      (** the PGI-like stand-in: single-shot, count-only cost model,
          effectively unbounded register budget *)

(** One profile's pipeline, as data. *)
type desc = {
  d_name : string;
  d_keep_small : bool;  (** honor [small] clauses *)
  d_keep_dim : bool;  (** honor [dim] clauses *)
  d_safara : safara_mode option;  (** [None]: no scalar replacement *)
  d_read_only_cache : bool;
      (** [false]: the target ignores the read-only data cache (the
          PGI-like vendor); applied to the arch before any pass runs *)
}

val effective_arch : Safara_gpu.Arch.t -> desc -> Safara_gpu.Arch.t
(** Apply the descriptor's architecture deltas. *)

(** A well-typed pass sequence from stage ['a] to stage ['b]. *)
type ('a, 'b) seq =
  | Done : ('a, 'a) seq
  | Step : ('a, 'b) Pass.t * ('b, 'c) seq -> ('a, 'c) seq

val head :
  ?safara_config:Safara_transform.Safara.config ->
  desc ->
  (Safara_ir.Program.t, Safara_ir.Program.t) seq
(** The descriptor-dependent IR prefix:
    [strip-clauses → resolve-schedules → [safara]]. *)

val tail : (Safara_ir.Program.t, Pass.asm_state) seq
(** The fixed suffix every profile shares, from [codegen] to
    [assemble]. Each region's kernel reads only the program's
    [params] and [arrays], the region itself and [ctx.arch], which is
    what lets the compiler run it on just the regions its memo lacks
    ({!Compiler.compile_with}). *)

val tail_names : string list
(** The pass names of {!tail}, in order. *)

val build :
  ?safara_config:Safara_transform.Safara.config ->
  desc ->
  (Safara_ir.Program.t, Pass.asm_state) seq
(** {!head} followed by {!tail}. *)

val pass_names : ?safara_config:Safara_transform.Safara.config -> desc -> string list
(** The pass names {!build} would produce, in order. *)

val signature :
  ?safara_config:Safara_transform.Safara.config ->
  ?disable:string list ->
  desc ->
  string
(** Content hash of the resolved pipeline description: pass list,
    per-pass configuration (clause keeps, SAFARA mode and config,
    arch deltas) and the disabled-pass set. *)

(** {1 Running} *)

type options = {
  o_disable : string list;
      (** passes to skip; they must exist ({!Pass.is_registered}) and
          carry an identity, else {!run} raises [Invalid_argument].
          Names absent from this particular pipeline are ignored, so
          one flag can apply across profiles. *)
  o_dump : [ `None | `Passes of string list | `All ];
      (** snapshot the value after these passes *)
  o_annotate_live : bool;
      (** render dumps through {!Pass.dump_annotated}: per-instruction
          live-set sizes from the liveness solver ([--annotate-live]) *)
  o_precise_stats : bool;  (** VIR-stage register estimates *)
  o_verify : bool;  (** run the stage checker after every pass *)
}

val default_options : options
(** No disables, no dumps, imprecise stats,
    [o_verify = Pass.assertions_enabled]. *)

val paper_options : options
(** {!default_options} with [indvar] and [memmerge] disabled: the
    paper's pass configuration. Its 2016 OpenUH compiler had no
    loop-aware VIR optimizer, and those two passes move register
    counts on their own, so the paper-configuration tests (result
    shapes, clause properties) compile under it. *)

type report = {
  pr_pass : string;
  pr_stage : string;  (** output stage: "ir", "vir" or "asm" *)
  pr_s : float;
      (** wall-clock seconds; clamped to the clock's resolution floor
          so a recorded pass never reports exactly zero *)
  pr_verify_s : float;
      (** wall-clock seconds of the stage checker on this step's
          output, outside [pr_s]; 0 when the step was disabled or
          verification is off *)
  pr_disabled : bool;
  pr_before : Pass.stats;
  pr_after : Pass.stats;
}

type trace = {
  tr_pipeline : string;  (** the descriptor's [d_name] *)
  tr_reports : report list;  (** in execution order *)
  tr_dumps : (string * string) list;  (** pass name → rendered value *)
}

val run :
  ?options:options ->
  name:string ->
  Pass.ctx ->
  ('a, 'b) seq ->
  'a ->
  'b * trace

val feedback_options : options
(** {!default_options} with the five dataflow passes disabled: the
    tail of SAFARA's feedback is codegen → peephole → assemble. *)

val feedback :
  Pass.ctx ->
  Safara_ir.Program.t ->
  Safara_ir.Region.t ->
  Safara_vir.Kernel.t * Safara_ptxas.Assemble.report
(** SAFARA's feedback compile: {!run} of {!tail} under
    {!feedback_options} on the program reduced to one region, verified
    like any compile. Its report's [regs_used] is a round's "PTXAS
    Info". *)

val pp_trace : Format.formatter -> trace -> unit
(** The [--time-passes] table: per pass its seconds and its
    verification seconds, then its output's stats. *)

val trace_to_json : trace -> Safara_json.Sjson.t
(** The [--time-passes --json] object: pipeline name plus one record
    per pass (name, stage, seconds, verify_seconds, disabled,
    before/after stats). *)
