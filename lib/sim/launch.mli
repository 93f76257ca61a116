(** Kernel and program launching: grid sizing, functional runs and
    timed runs.

    Grid geometry follows the OpenACC one-iteration-per-thread
    lowering: each mapped axis gets [ceil(trip / block_extent)]
    blocks. Whole-kernel time = resident-set drain time × number of
    waves, where a wave is [blocks_per_SM × num_SMs] blocks
    (occupancy comes from the register feedback of {!Safara_ptxas}),
    plus a fixed per-kernel launch overhead. *)

type kernel_time = {
  kt_name : string;
  kt_grid : int * int * int;
  kt_block : int * int * int;
  kt_regs : int;
  kt_occupancy : float;
  kt_blocks_per_sm : int;
  kt_waves : int;
  kt_cycles_per_wave : float;
  kt_ms : float;
  kt_instructions : int;  (** dynamic warp-instructions in one resident set *)
  kt_transactions : int;
}

type program_time = { ptk : kernel_time list; total_ms : float }

val launch_overhead_ms : float

val eval_int : env:(string * Value.t) list -> Safara_ir.Expr.t -> int
(** Evaluate a (parameter-only) integer expression, e.g. a loop bound.
    @raise Failure on unbound variables or array loads. *)

val grid_of :
  env:(string * Value.t) list -> Safara_vir.Kernel.t -> int * int * int

val run_functional :
  ?counters:Interp.counters ->
  ?pool:Safara_engine.Pool.t ->
  prog:Safara_ir.Program.t ->
  env:Interp.env ->
  Safara_vir.Kernel.t list ->
  unit
(** Run all kernels in order against [env.mem] (the semantic run).
    With [pool], each kernel that {!Blockpar} proves block-disjoint
    fans its thread-blocks across the pool (see {!Interp.run_kernel});
    results are bit-identical at any pool size. *)

val run_functional_m :
  ?counters:Interp.counters ->
  ?pool:Safara_engine.Pool.t ->
  prog:Safara_ir.Program.t ->
  env:Interp.env ->
  Safara_vir.Kernel.t list ->
  (string * Interp.mode) list
(** [run_functional] reporting, per kernel in launch order, how it was
    executed (parallel, or sequential with the fallback reason). *)

val time_kernel :
  arch:Safara_gpu.Arch.t ->
  latency:Safara_gpu.Latency.table ->
  prog:Safara_ir.Program.t ->
  env:Interp.env ->
  report:Safara_ptxas.Assemble.report ->
  Safara_vir.Kernel.t ->
  kernel_time
(** Times one kernel. The resident set runs directly on [env.mem]
    under a {!Memory.with_undo} journal, so [env] is restored bit for
    bit before the call returns or raises. No other domain or thread
    may touch [env.mem] during the call: it holds the kernel's
    transient writes.
    @raise Invalid_argument if a journal is already active on
    [env.mem]. *)

val time_program :
  arch:Safara_gpu.Arch.t ->
  latency:Safara_gpu.Latency.table ->
  prog:Safara_ir.Program.t ->
  env:Interp.env ->
  (Safara_vir.Kernel.t * Safara_ptxas.Assemble.report) list ->
  program_time
(** Times each kernel with {!time_kernel}, each on the same
    unchanged [env]. *)

val pp_kernel_time : Format.formatter -> kernel_time -> unit
