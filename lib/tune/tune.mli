(** Autotuning search over (SAFARA config × unroll factor) per
    workload and architecture, with the timing simulator as the
    objective.

    Every point of the search space is an {!Safara_suites.Eval.job}
    under the [Full] profile, so the search runs through the
    evaluation engine: each distinct point compiles exactly once per
    engine, each distinct compiled artifact simulates exactly once,
    revisits are cache hits, and a sweep
    over several workloads/architectures shares every coincident
    point. Architectures change timing, occupancy and allocation —
    never functional results — so tuning only ever reorders
    configurations, it cannot change answers.

    The space is deliberately small and named (the registry style
    used by profiles and engines): the configuration axis is derived
    from {!Safara_transform.Safara.default_config} for the target
    architecture, the unroll axis is the paper's §VII study factors.

    Search strategies: [Grid] exhausts the space through the domain
    pool; [Greedy] runs coordinate descent from the default point,
    moving only on strict improvement (terminates; typically
    evaluates fewer points but can miss cross-axis interactions). *)

type point = {
  pt_config : string;  (** a {!config_labels} entry *)
  pt_unroll : int;  (** a {!unroll_factors} entry *)
}

type result = {
  tr_id : string;  (** workload id *)
  tr_arch : string;  (** architecture registry key *)
  tr_strategy : string;
  tr_best : point;
  tr_best_ms : float;
  tr_default_ms : float;  (** config=default, unroll=1 *)
  tr_improvement : float;  (** default ms / best ms (≥ 1 under Grid) *)
  tr_evaluated : int;
      (** distinct points evaluated; the simulations run can be fewer,
          since points whose compiles coincide share one *)
  tr_space : int;  (** full search-space size *)
  tr_kernels : (string * float) list;  (** per-kernel ms at the best point *)
}

type strategy = Grid | Greedy

val strategy_name : strategy -> string

val strategy_of_name : string -> strategy
(** @raise Failure on unknown names, listing the valid ones. *)

val config_labels : string list
(** The SAFARA-configuration axis: [default] (no override),
    [count-only] (Carr–Kennedy cost metric), [no-feedback]
    (single-shot, fixed register estimate), [cap48] (tight register
    budget), [skip-ro-coalesced] (the §VI refinement). *)

val config_of :
  Safara_gpu.Arch.t -> string -> Safara_transform.Safara.config option
(** The config override a label denotes on an architecture ([None]
    for [default]).
    @raise Failure on unknown labels. *)

val unroll_factors : int list

val space_size : int

val default_point : point

val job :
  arch:Safara_gpu.Arch.t ->
  Safara_suites.Workload.t ->
  point ->
  Safara_suites.Eval.job
(** The engine job a point denotes — exposed so tests and the bench
    harness can warm or inspect points directly. *)

val search :
  ?strategy:strategy ->
  Safara_suites.Eval.t ->
  arch:Safara_gpu.Arch.t ->
  Safara_suites.Workload.t ->
  result
(** Run the search (default [Grid]). Deterministic: ties break to the
    lexicographically first point, so results are identical at any
    engine [-j]. *)

val pp_point : Format.formatter -> point -> unit

val render : result -> string
(** Human-readable block: winner, default baseline, per-kernel ms. *)

val to_json : result -> Safara_json.Sjson.t
(** The one JSON form of a result: the [saraccc tune --json] object
    (which appends the search's sim-cache counters) and each row of
    the [results] array [bench tune] writes. Members: [id], [arch], [strategy], [best]
    ([config], [unroll]), [best_ms], [default_ms], [improvement],
    [evaluated], [space], [kernels] (kernel name → ms at the best
    point). *)
