(** Discrete-event timing model of one Kepler SMX.

    Simulates the resident warp set of a single SMX executing the
    kernel: each warp runs its (lane-0 representative) instruction
    stream under a per-register scoreboard, a shared issue port of
    [arch.issue_width] instructions per cycle, and a memory pipeline
    that serializes transactions at [arch.mem_cycles_per_transaction]
    cycles each, with latencies from the Wong-style table. Memory
    instructions charge the transaction count of their static
    coalescing annotation — the mechanism that makes uncoalesced
    references expensive and scalar replacement profitable, and makes
    low occupancy (few resident warps) unable to hide latency, which
    is how aggressive replacement hurts (paper §IV, Fig 7).

    Because thread blocks of these kernels are homogeneous, whole-GPU
    kernel time is the resident-set drain time multiplied by the
    number of waves ({!Launch}).

    Two engines implement the model, selected by [Decode.engine]. The
    threaded engine runs each op's semantics through its pre-compiled
    {!Threaded.steps} closure, reads what the op costs from a static
    per-pc record, keeps every warp's scheduling state unboxed, skips
    labels, and picks the next warp from a binary min-heap (O(log
    warps) per step instead of a full scan); the original boxed walker
    is preserved as [Reference]. Both produce identical {!stats} — the
    differential suite checks every workload. *)

type stats = {
  cycles : float;  (** drain time of the resident set, in SM cycles *)
  warps : int;  (** warps simulated *)
  instructions : int;  (** dynamic warp-instructions issued *)
  transactions : int;  (** memory transactions generated *)
  issue_stall : float;  (** cycles lost waiting on the issue port *)
}

val simulate_resident_set :
  arch:Safara_gpu.Arch.t ->
  latency:Safara_gpu.Latency.table ->
  prog:Safara_ir.Program.t ->
  env:Interp.env ->
  grid:int * int * int ->
  blocks_per_sm:int ->
  Safara_vir.Kernel.t ->
  stats
(** Mutates [env.mem] ({!Launch.time_kernel} runs it under a
    {!Memory.with_undo} journal to preserve the memory). Simulates
    [min blocks_per_sm total_blocks] blocks. *)

(** {1 Cache model}

    Both engines charge a memory access by the tier that served it. An
    access touches its segment (the arch's [mem_segment_bytes]); a
    segment touched again fewer than [read_only_cache_bytes / segment]
    (at least 16) touches after its previous touch is served by L1 on
    the read-only path, fewer than this SM's share of L2 in segments by
    L2, and otherwise by DRAM. *)

type tier = L1 | L2 | Dram

type cache
(** One resident set's segment-recency table. *)

val cache_model : Safara_gpu.Arch.t -> cache
(** An empty table. *)

val touch : cache -> ro:bool -> int -> tier
(** [touch c ~ro addr] records a touch of [addr]'s segment and returns
    the tier that served it (L1 only when [ro]). *)
