(** SAFARA: StAtic Feedback-bAsed Register allocation Assistant
    (paper §III.B).

    The iterative driver, one round at a time:
    + collect and rank the region's reuse candidates
      ({!Safara_analysis.Reuse}), classified by memory space and access
      pattern; with none left, stop;
    + ask the caller's [feedback] for the registers the region uses —
      the pipeline compiles it through its tail and the assembler,
      whose report is the "PTXAS Info" feedback;
    + available registers = cap − registers used; with none, stop;
    + if every candidate fits, replace them all; otherwise take the
      highest [C × L] cost candidates that fit;
    + repeat until registers are exhausted or no candidates remain.

    A round without candidates therefore costs no compile.

    The [cost_model] and [use_feedback] switches exist for the
    ablation benchmarks: [`Count_only] reproduces the Carr–Kennedy
    metric (paper §III.A.2's criticised baseline); disabling feedback
    replaces the measured register count with a fixed estimate. *)

type config = {
  reg_cap : int;  (** register budget per thread (≤ hardware cap) *)
  policy : Safara_analysis.Reuse.policy;
  cost_model : [ `Latency_times_count | `Count_only ];
  use_feedback : bool;
  max_rounds : int;  (** safety bound on feedback iterations *)
  assumed_free_regs : int;
      (** available-register estimate used when [use_feedback] is off *)
}

val default_config : arch:Safara_gpu.Arch.t -> config

type round = {
  round_index : int;
  regs_before : int;  (** ptxas feedback at the start of the round *)
  available : int;
  applied : Safara_analysis.Reuse.candidate list;
  skipped : int;  (** candidates that did not fit this round *)
}

val optimize_region :
  ?config:config ->
  feedback:(Safara_ir.Program.t -> Safara_ir.Region.t -> int) ->
  ?candidates:
    (Safara_analysis.Reuse.policy ->
    Safara_ir.Program.t ->
    Safara_ir.Region.t ->
    Safara_analysis.Reuse.candidate list) ->
  arch:Safara_gpu.Arch.t ->
  latency:Safara_gpu.Latency.table ->
  Safara_ir.Program.t ->
  Safara_ir.Region.t ->
  Safara_ir.Region.t * round list
(** The region must be schedule-resolved. Returns the transformed
    region and the per-round log (empty when nothing was applied).
    [feedback] measures the registers a region uses in a round that has
    candidates; the pipeline's is [Safara_core.Pipeline.feedback].
    [candidates] (default {!Safara_analysis.Reuse.candidates}[ ~arch
    ~latency]) analyses a region under a policy at the start of each
    round; a memoized one must return what the default would. Without
    feedback ([use_feedback = false]) the loop runs one round and never
    calls [feedback]. *)

val optimize_program :
  ?config:config ->
  feedback:(Safara_ir.Program.t -> Safara_ir.Region.t -> int) ->
  ?candidates:
    (Safara_analysis.Reuse.policy ->
    Safara_ir.Program.t ->
    Safara_ir.Region.t ->
    Safara_analysis.Reuse.candidate list) ->
  arch:Safara_gpu.Arch.t ->
  latency:Safara_gpu.Latency.table ->
  Safara_ir.Program.t ->
  Safara_ir.Program.t * (string * round list) list
(** Optimizes every region of a schedule-resolved program (the
    pipeline runs [resolve-schedules] as the pass before). [feedback]
    and [candidates] are passed to every {!optimize_region}. *)

val pp_round : Format.formatter -> round -> unit
