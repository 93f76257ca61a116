(** The parallel, memoizing evaluation engine.

    Every table, figure and ablation in the harness boils down to a
    set of jobs: compile a workload under a compiler profile (plus
    optional architecture, SAFARA-configuration and unroll-factor
    overrides) and, for the timed experiments, simulate it. This
    module runs those jobs through a {!Safara_engine.Pool} of domains
    and memoizes both stages in content-addressed
    {!Safara_engine.Cache}s, so each distinct (source, profile, arch,
    config, unroll) combination compiles exactly once per run, and
    each distinct artifact — what the simulator reads of a compile,
    on one workload input — simulates exactly once, no matter how many
    figures or search points reference it.

    Below the compile cache, a miss shares work with every other
    compile of the engine's lifetime: the front end runs once per
    source (the unroll factor applies per compile), and a
    {!Safara_core.Compiler.memo} runs the codegen → assemble tail
    (SAFARA's register feedback is one, under its own disable set) and
    SAFARA's candidate analysis once per region key — what those
    stages read of a region's compile (see {!Safara_core.Compiler.memo}).
    These are memory-only and never layered on the store.

    Sharing discipline: cached values — {!Safara_core.Compiler.compiled}
    artifacts and {!Safara_sim.Launch.program_time} records — are
    immutable, and so are the region memo's kernels, which artifacts
    share physically. The one piece of mutable state the engine keeps is
    each domain's most recent input image ({!image}). Timing writes it
    in place and restores it before returning (an undo journal, see
    {!Safara_sim.Launch.time_kernel}); a functional run copies it. An
    image is used by one domain and one thread at a time, so no domain
    meets another's transient writes. All other simulator memory is
    created inside a cache miss and dropped before the value is
    published. *)

type t

val create : ?jobs:int -> ?store:Safara_engine.Store.t -> unit -> t
(** [jobs <= 1] is the serial engine. Default: [SAFARA_JOBS] when
    set, else [Domain.recommended_domain_count () - 1]. With [store],
    every cache is layered over the persistent on-disk store: a
    memory miss probes the store before computing, and every computed
    value is persisted, so artifacts survive the process and are
    shared across engines (and processes) opened over the same
    directory. Disk keys fold in a schema generation
    ({!store_schema}) on top of the full in-memory key, so stale
    layouts can never unmarshal into live values. *)

val jobs : t -> int
(** The pool size ([-j] value). *)

val pool : t -> Safara_engine.Pool.t

val store : t -> Safara_engine.Store.t option

val store_schema : string
(** The schema token folded into every on-disk key: a hand-bumped
    generation for the marshalled value shapes, the OCaml version
    (Marshal is not release-stable) and the store format version. A
    compile's entry is keyed [store_schema ^ "/compile/" ^ key], with
    [key] its {!compile_key}. *)

val compile_key :
  src:string ->
  profile:Safara_core.Compiler.profile ->
  arch:Safara_gpu.Arch.t ->
  config:Safara_transform.Safara.config option ->
  unroll:int option ->
  disable:string list ->
  string
(** The compile cache's key: a digest of the source, the profile, the
    arch, the SAFARA config, the unroll factor, the disabled passes
    and the resolved pipeline's signature. *)

val shutdown : t -> unit

(** {1 Jobs} *)

type job

val job :
  ?arch:Safara_gpu.Arch.t ->
  ?safara_config:Safara_transform.Safara.config ->
  ?unroll:int ->
  ?disable:string list ->
  Safara_core.Compiler.profile ->
  Workload.t ->
  job
(** [unroll], when given, applies {!Safara_transform.Unroll} with that
    factor to the front-end IR before profile compilation (the §VII
    study passes 1, 2, 4 — factor 1 still runs the pass). [disable]
    names pipeline passes to skip ({!Safara_core.Pipeline.options}).
    Compile-cache keys cover the resolved pipeline description — pass
    list, per-pass config and the disabled set — so toggling or
    reordering passes can never return a stale artifact. *)

val compiled : t -> job -> Safara_core.Compiler.compiled
(** Memoized compile; repeated calls with an equal key return the
    physically same artifact. *)

val time_job : t -> job -> Safara_sim.Launch.program_time
(** Memoized compile + simulate. The sim-cache key is the {e artifact
    key} — a digest of the compiled arch, latency table, array table
    and kernels with their ptxas reports, memoized per compile key —
    plus the workload's seed and scalars: jobs whose compiles coincide
    share one simulation, and a hit touches neither the compile cache
    nor the kernels. The input image is the calling domain's {!image},
    which timing writes transiently and restores. Keys fold
    in {!sim_mode}, so values produced under different execution
    strategies never alias (they are bit-identical by construction,
    but the cache must not be the thing relying on that). *)

(** Result of a memoized functional (semantic) run. *)
type sim_result = {
  sr_checksums : (string * float) list;
      (** per [check_arrays] entry, order-independent digest *)
  sr_counters : int * int * int * int * int;
      (** instructions, loads, stores, atomics, spill ops — summed
          over all threads, exact at any [-j] *)
  sr_modes : (string * string) list;
      (** per kernel: ["parallel"], ["sequential"], or
          ["serial fallback: <reason>"] (the SAF034 condition) *)
}

val simulate : t -> job -> sim_result
(** Memoized compile + functional run, keyed like {!time_job} plus
    the [check_arrays]; the artifact key also covers the region bodies,
    which label each kernel's execution mode. The run writes a private
    copy of the calling domain's {!image}. At [-j] > 1 the run fans each
    provably block-disjoint kernel's thread-blocks across the engine's
    own pool (one shared [-j] budget with the job-level parallelism);
    checksums and counters are bit-identical at any [-j]. *)

val sim_mode : t -> string
(** The simulation parallelism strategy this engine uses
    (["sim:blockpar"] or ["sim:seq"]); a component of every sim cache
    key. *)

val total_ms : t -> job -> float

val image :
  t -> Safara_core.Compiler.compiled -> Workload.t -> Safara_sim.Interp.env
(** The pristine input image of a compiled program on a workload
    ({!Workload.prepare}), memoized per domain in one entry keyed by
    the array table, scalars and seed: a search over one workload
    prepares it once per domain, and the engine holds at most one per
    domain. The calling domain's timing runs write it transiently, so
    the caller must not write it, nor read it while the same domain
    times a job on another thread. *)

val compile_src :
  t ->
  ?arch:Safara_gpu.Arch.t ->
  ?safara_config:Safara_transform.Safara.config ->
  ?disable:string list ->
  Safara_core.Compiler.profile ->
  string ->
  Safara_core.Compiler.compiled
(** Memoized compile of a raw MiniACC source (no workload attached);
    used by the offsets demo and the compiler driver. *)

val warm : t -> job list -> unit
(** Simulate every job through the pool (filling both caches).
    Callers then assemble rows serially from cache hits, which makes
    parallel output byte-identical to serial output. *)

val warm_compiled : t -> job list -> unit
(** Compile-only warm-up for the register tables. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map on the engine's pool. *)

(** {1 Instrumentation} *)

type stats = {
  st_jobs : int;  (** pool size *)
  st_job_counts : int list;  (** jobs per executor; head = caller *)
  st_compile_hits : int;
  st_compile_misses : int;
  st_sim_hits : int;
  st_sim_misses : int;
  st_tail_hits : int;
      (** regions whose tail output (or SAFARA feedback) a compile-cache
          miss reused *)
  st_tail_misses : int;  (** regions the tail (or SAFARA feedback) compiled *)
  st_candidates_hits : int;  (** SAFARA candidate analyses reused *)
  st_candidates_misses : int;  (** SAFARA candidate analyses run *)
  st_front_end_hits : int;
  st_front_end_misses : int;  (** parse → lower runs: one per source *)
  st_images : int;
      (** input images prepared ({!Workload.prepare} runs): one per
          domain per searched workload when nothing evicts them *)
  st_image_cells : int;
      (** cells those images reserve, counted when an image is dropped
          or, for the images the engine still holds, when the stats are
          read (an image in use at that moment is not counted yet) *)
  st_image_cells_filled : int;
      (** of those, the cells their pages produced
          ({!Safara_sim.Memory.cells_filled}): what the simulations
          touched, or every cell of an image a functional run forced *)
  st_compile_s : float;  (** wall-clock spent in compile misses *)
  st_sim_s : float;  (** wall-clock spent in simulation misses *)
  st_pass_s : (string * int * float) list;
      (** per-pipeline-pass (name, runs, cumulative seconds) across
          every compile-cache miss, sorted by name. A tail pass's runs
          count tail executions: one per compile, over only the
          regions the region memo lacked (possibly none), so its
          seconds cover those regions alone *)
  st_wall_s : float;  (** wall-clock since [create] *)
  st_store : Safara_engine.Store.stats option;
      (** persistent-store counters when the engine has one: disk
          hits/misses, bytes read/written, GC evictions, corrupt
          entries dropped *)
}

val stats : t -> stats

val render_stats : t -> string
(** Multi-line human-readable form of {!stats}. *)

val stats_json : stats -> Safara_json.Sjson.t
(** The one JSON form of {!stats}, carrying every counter
    {!render_stats} prints: the daemon's [stats] reply and the
    [engine] block of the bench JSON files. The [store] member is
    present only when the engine has a store. *)

val assertions_enabled : bool
(** Whether this binary keeps [assert]s: true unless it was built with
    [-noassert], which no dune profile of this project passes, so
    release builds keep them too. *)

val self_check : t -> Workload.t -> unit
(** Determinism guard: when {!assertions_enabled} and the pool is parallel,
    times the workload under every profile both through the pool and
    through a fresh serial engine and asserts the results are equal.
    A no-op at [-j 1] or in a [-noassert] build. *)
