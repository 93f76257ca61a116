(** Code generation: one schedule-resolved offload region → one
    PTX-like kernel.

    Mirrors the OpenUH lowering the paper describes: parallel loops
    become grid/block dimensions with a bounds guard (one iteration
    per thread); sequential loops stay as branches inside the kernel;
    array references expand into dope-vector offset arithmetic
    ({!Addressing}); base pointers and descriptor extents are loaded
    once at kernel entry and stay live throughout — the long-lived
    values that dominate the kernels' register footprint (Tables I
    and II).

    Supported reduction pattern: a parallel loop with a
    [reduction(op:var)] clause immediately followed by a store of
    [var] into a loop-invariant array cell compiles to per-thread
    partial accumulation plus one atomic read-modify-write; the
    accumulator cell must start at the operator's identity, which the
    source establishes by initializing [var] with it. *)

exception Error of string

val compile_region :
  arch:Safara_gpu.Arch.t ->
  Safara_ir.Program.t ->
  Safara_ir.Region.t ->
  Kernel.t
(** The code straight out of generation, before any optimizer; the
    staged pipeline runs {!Peephole.optimize} as its next pass.
    @raise Error on unsupported shapes: parallel loops that are not a
    perfectly nested chain, more than three parallel loops, or a
    reduction clause without the store pattern. *)
