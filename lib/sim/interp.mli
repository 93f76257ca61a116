(** Functional (untimed) kernel interpreter.

    Executes every thread of the launch against the simulated device
    memory — sequentially by default, or with thread-blocks fanned
    across a domain pool when {!Blockpar} proves the launch
    block-disjoint (results are bit-identical either way, by
    construction). It is the semantic oracle of the reproduction:
    tests compare array contents across compiler configurations
    (base, SAFARA, clauses) to prove the transformations preserve
    meaning.

    Two engines share this entry point, selected by [Decode.engine]:
    the closure-threaded compiler ({!Threaded}, the default, built on
    the {!Decode} front end) and the original boxed walker (the
    semantic oracle). Both are bit-identical on verifier-clean
    kernels. Only the threaded engine fans blocks across a pool. *)

type env = Decode.env = {
  scalars : (string * Value.t) list;
      (** program scalar parameters by name *)
  mem : Memory.t;
}

(** Dynamic execution counters, summed over all threads. *)
type counters = Decode.counters = {
  mutable c_instructions : int;
  mutable c_loads : int;  (** global/read-only loads (not local spills) *)
  mutable c_stores : int;
  mutable c_atomics : int;
  mutable c_spill_ops : int;  (** local-memory traffic *)
}

val fresh_counters : unit -> counters

val param_value :
  env -> Safara_ir.Program.t -> string -> Value.t
(** Resolve a kernel parameter name: an array name → its base address;
    a descriptor name like ["a.len2"] → the array's dimension extent;
    otherwise a scalar parameter. *)

(** How a launch was executed. *)
type mode =
  | Sequential of Blockpar.reason option
      (** one thread after another; [Some r] = a pool was offered but
          {!Blockpar} refused parallelism (or the granularity cost
          model judged the launch too small) for reason [r], [None] =
          no pool / [-j 1] / reference engine / single-block grid *)
  | Parallel of { chunks : int }
      (** thread-blocks fanned across the pool in [chunks] contiguous
          chunks *)

val run_kernel :
  ?counters:counters ->
  ?pool:Safara_engine.Pool.t ->
  ?verdict:Blockpar.verdict ->
  prog:Safara_ir.Program.t ->
  env:env ->
  grid:int * int * int ->
  Safara_vir.Kernel.t ->
  unit
(** Execute every thread of the launch. With [pool] (of size > 1),
    kernels that {!Blockpar} proves block-disjoint run their
    thread-blocks concurrently — results are bit-identical to the
    sequential walk by construction (disjoint stores, private register
    files, private {!Memory.view} cursors, counters summed in chunk
    order); anything unprovable falls back to the sequential engine.
    [verdict] supplies a precomputed {!Blockpar.analyze} result so
    repeated launches skip the analysis. [env.mem] is {!Memory.force}d
    first, so every launch runs on whole arrays and no two domains
    fill a page.
    @raise Invalid_argument when a launch would fan out while a
    {!Memory.with_undo} journal is active on [env.mem]: the journal
    is not synchronized across domains; likewise when [env.mem] has
    unfilled pages under a journal ({!Memory.force}).
    @raise Failure when the step budget is exceeded (a guard against
    non-terminating generated code) or a parameter is unbound.
    @raise Decode.Error on a branch to an unknown label — detected
    statically at decode time (SAF021) rather than mid-simulation. *)

val run_kernel_m :
  ?counters:counters ->
  ?pool:Safara_engine.Pool.t ->
  ?verdict:Blockpar.verdict ->
  prog:Safara_ir.Program.t ->
  env:env ->
  grid:int * int * int ->
  Safara_vir.Kernel.t ->
  mode
(** [run_kernel] returning how the launch was executed. *)

val max_steps_per_thread : int ref
(** Interpreter fuel per thread (default 10 million). *)

(** {2 Parallel granularity cost model}

    Knobs for the block-parallel path; both measured in *estimated
    ops* ([Array.length code × threads per block × blocks]). A
    provably block-parallel launch still runs serially below
    {!parallel_threshold} (reported as
    [Sequential (Some (Blockpar.Below_threshold _))]), and chunks
    never carry fewer than {!parallel_min_chunk_ops} estimated ops,
    so deep pools cannot shred moderate launches into wakeup
    overhead. The defaults (500k and 250k) are calibrated on
    [bench sim] and are not user-settable. *)

val parallel_threshold : int ref
(** Default [500_000]. A ref only as a test hook: the unit tests and
    the [bench sim] bit-identity gate lower it so small launches take
    the parallel path. *)

val parallel_min_chunk_ops : int ref
(** Default [250_000]. A ref only as a test hook, like
    {!parallel_threshold}. *)

val estimated_ops : grid:int * int * int -> Safara_vir.Kernel.t -> int
(** The cost model's work estimate for a launch. *)
