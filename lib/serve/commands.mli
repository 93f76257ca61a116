(** Shared implementations of the proxyable [saraccc] subcommands.

    Each function renders exactly the bytes the corresponding CLI
    subcommand prints — into the {!Protocol.outcome} [out]/[err]
    strings instead of stdout/stderr — so the CLI's in-process path
    and the daemon's request handler are the {e same code}, and
    daemon-proxied output is byte-identical to local output by
    construction.

    All functions may raise [Failure] (unknown profile, parse errors
    propagated from the front end, …); callers decide whether that
    becomes a CLI error message or an error response frame.

    Compiles go through the given evaluation engine, so they are
    memoized in its in-memory caches and — when the engine was opened
    over a {!Safara_engine.Store} — answered from / persisted to the
    on-disk artifact store. The exceptions are [compile] requests
    that need pipeline instrumentation ([--time-passes],
    [--dump-ir]): traces are not cached artifacts, so those compile
    directly. *)

val arch_of : string -> Safara_gpu.Arch.t
(** @raise Failure on unknown names (listing the valid ones). *)

val profile_of : string -> Safara_core.Compiler.profile
(** @raise Failure on unknown names (listing the valid ones). *)

val compile :
  Safara_suites.Eval.t -> Protocol.compile_req -> Protocol.outcome

val check : Protocol.check_req -> Protocol.outcome
(** Purely analytical — does not consult the artifact caches. *)

val run : Safara_suites.Eval.t -> Protocol.run_req -> Protocol.outcome
(** Functional simulation. When the engine's pool is parallel,
    provably block-disjoint kernels fan out across it and the
    per-kernel execution-mode report lands in [err]; [out] (the
    checksums) is byte-identical at any pool size. *)

val bench : Safara_suites.Eval.t -> Protocol.bench_req -> Protocol.outcome

val exec : Safara_suites.Eval.t -> Protocol.request -> Protocol.outcome
(** Dispatch a command request ([Compile]/[Check]/[Run]/[Bench]). A
    [Run] or [Bench] request that names a simulator engine must name
    the process's {!Safara_sim.Decode.engine}: requests share the
    process, so none may switch it, and any other name fails.
    @raise Invalid_argument for control requests. *)
