(** The top-level compiler: profiles, pipeline, execution.

    Profiles model the configurations compared in the paper's
    evaluation (§V):
    - [Base] — OpenUH with the paper's optimizations disabled: clauses
      ignored, no scalar replacement (Figs 11–12 "OpenUH(base)").
    - [Safara_only] — Base + the SAFARA feedback-driven scalar
      replacement (Fig 7, "OpenUH(SAFARA)").
    - [Small_only] — honor only the [small] clause (first bar of
      Fig 9/10's cumulative configurations).
    - [Clauses_only] — honor [small] + [dim], still no SR.
    - [Full] — clauses + SAFARA ("OpenUH(SAFARA+clauses)").
    - [Pgi_like] — the stand-in for the PGI 15.9 comparison compiler:
      ignores the proposed clauses (a different vendor), never uses
      the read-only data cache, and performs exhaustive
      non-feedback scalar replacement with a count-only cost model —
      plausibly different codegen policies, not a claim about PGI
      internals (see DESIGN.md). *)

type profile = Base | Safara_only | Small_only | Clauses_only | Full | Pgi_like

type compiled = {
  c_profile : profile;
  c_arch : Safara_gpu.Arch.t;
  c_latency : Safara_gpu.Latency.table;
  c_prog : Safara_ir.Program.t;  (** post-transformation IR *)
  c_kernels : (Safara_vir.Kernel.t * Safara_ptxas.Assemble.report) list;
  c_logs : (string * Safara_transform.Safara.round list) list;
      (** SAFARA feedback rounds per region *)
}

val profile_name : profile -> string
val all_profiles : profile list

val desc_of_profile : profile -> Pipeline.desc
(** The declarative pipeline a profile elaborates to. Every profile is
    expressed this way — which clauses survive, whether/how SAFARA
    runs, the arch deltas the modelled vendor implies — and
    {!compile} runs {!Pipeline.build} of this value (split at the
    head/tail boundary, see {!compile_with}). *)

val pipeline_signature :
  ?safara_config:Safara_transform.Safara.config ->
  ?disable:string list ->
  profile ->
  string
(** {!Pipeline.signature} of the profile's descriptor; the evaluation
    engine folds it into compile-cache keys. *)

(** {1 Region memo}

    The pipeline splits at the IR → VIR boundary
    ({!Pipeline.head}, {!Pipeline.tail}). Each region's kernel depends
    only on what the tail reads of its compile, so a {!memo} keyed on
    exactly that lets compiles that share a region — across profiles,
    SAFARA configs that leave a region alike, or SAFARA's own
    feedback rounds — run the tail on it once.

    A region key is a tag followed by the digest of what a tail reads
    to compile one region: the effective arch, the program's [params]
    and [arrays], and the region. For the tail the tag names it (its
    pass names and the sorted disable set); the latency table and the
    SAFARA config are not read by the tail and stay out. SAFARA's
    feedback is a tail run ({!Pipeline.feedback}), so it is a tail
    entry too, under the tag of {!Pipeline.feedback_options}'s disable
    set: a compile under that disable set ships those kernels.
    SAFARA's candidate analysis is memoized the same way, its tag
    naming the reuse policy and the latency table it reads. Within one
    compile a region is digested once: a SAFARA round's candidate and
    feedback lookups share the digest, and so does the tail's key of
    the region SAFARA leaves. *)

type memo = {
  m_tail : (Safara_vir.Kernel.t * Safara_ptxas.Assemble.report) Safara_engine.Cache.t;
      (** tail output per region key under a disable set: the
          compile's, or the feedback's *)
  m_candidates : Safara_analysis.Reuse.candidate list Safara_engine.Cache.t;
      (** SAFARA's candidate analysis
          ({!Safara_analysis.Reuse.candidates}) per region key under a
          (policy, latency) tag *)
}

val memo : unit -> memo
(** An empty memo: every region misses. *)

val compile :
  ?arch:Safara_gpu.Arch.t ->
  ?latency:Safara_gpu.Latency.table ->
  ?safara_config:Safara_transform.Safara.config ->
  ?options:Pipeline.options ->
  profile ->
  Safara_ir.Program.t ->
  compiled

val compile_with :
  ?arch:Safara_gpu.Arch.t ->
  ?latency:Safara_gpu.Latency.table ->
  ?safara_config:Safara_transform.Safara.config ->
  ?options:Pipeline.options ->
  ?memo:memo ->
  profile ->
  Safara_ir.Program.t ->
  compiled * Pipeline.trace
(** [compile] plus pipeline instrumentation: per-pass wall time and
    before/after statistics (always), IR snapshots and disabled
    passes per [options]. [compile] is [fst] of this with
    {!Pipeline.default_options}. [?arch] defaults to
    {!Safara_gpu.Arch.default}; [?latency] defaults to that
    architecture's table ({!Safara_gpu.Latency.for_arch}), so
    choosing an arch selects its generation's cost model
    everywhere.

    The head runs in full; the tail runs once, through {!Pipeline.run},
    on the regions [memo] lacks, and the kernels merge back in region
    order. SAFARA's feedback and candidate analyses go through [memo]
    too. Without [memo] a fresh one is used, so every region misses
    and the trace, dumps and verification cover every pass exactly as
    {!Pipeline.build} would. *)

val compile_for_env :
  ?arch:Safara_gpu.Arch.t ->
  ?latency:Safara_gpu.Latency.table ->
  profile ->
  scalars:(string * Safara_sim.Value.t) list ->
  Safara_ir.Program.t ->
  compiled * Safara_transform.Clause_check.violation list
(** The paper's §IV.B dual-version dispatch: before compiling, verify
    each region's [dim]/[small] clauses against the actual parameter
    values; regions whose clauses lie are compiled with the clauses
    stripped (the "unoptimized kernel version"), and the violations
    are reported. With truthful clauses this is [compile]. *)

val compile_src :
  ?arch:Safara_gpu.Arch.t ->
  ?latency:Safara_gpu.Latency.table ->
  ?safara_config:Safara_transform.Safara.config ->
  ?options:Pipeline.options ->
  profile ->
  string ->
  compiled
(** Front end + [compile] on MiniACC source text. *)

val report_of : compiled -> string -> Safara_ptxas.Assemble.report
(** Per-kernel ptxas report by kernel name. *)

val make_env :
  ?fill:(Safara_ir.Array_info.t -> int -> int -> Safara_sim.Memory.payload) ->
  compiled -> scalars:(string * Safara_sim.Value.t) list -> Safara_sim.Interp.env
(** Allocate device memory for the program's arrays (sized from the
    integer scalars) and package the environment. [fill a] produces
    array [a]'s cells page by page ({!Safara_sim.Memory.alloc});
    without it every cell is zero. *)

val run_functional :
  ?counters:Safara_sim.Interp.counters ->
  ?pool:Safara_engine.Pool.t ->
  compiled ->
  Safara_sim.Interp.env ->
  unit
(** Execute all kernels in order against the environment's memory.
    With [pool], provably block-disjoint kernels fan their
    thread-blocks across it (see {!Safara_sim.Interp.run_kernel});
    results are bit-identical at any pool size. *)

val run_functional_m :
  ?counters:Safara_sim.Interp.counters ->
  ?pool:Safara_engine.Pool.t ->
  compiled ->
  Safara_sim.Interp.env ->
  (string * Safara_sim.Interp.mode) list
(** [run_functional] reporting, per kernel in launch order, how it was
    executed (parallel, or sequential with the fallback reason). *)

val time : compiled -> Safara_sim.Interp.env -> Safara_sim.Launch.program_time
(** Timed execution (uses scratch copies of memory per kernel). *)
