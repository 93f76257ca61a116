(** Closure-threaded execution engine.

    Compiles a decoded kernel ({!Decode.t}) into OCaml closures once:
    each op becomes a closure with operands resolved at compile time,
    straight-line runs are fused into per-basic-block superop closures
    (continuation-passing chains ending in a terminator that returns
    the next block index), and counters/fuel collapse to one static
    delta per block. Within a block, two fusion families share one
    closure body across ops: the byte-addressing chain ending in a
    global load or store, and any dependent int or float arithmetic
    pair. Executing a thread is then a tight loop over block closures
    with no per-instruction dispatch.

    Semantically each closure is one decoded op ({!Decode.dop}) with
    the operand and opcode matches hoisted to compile time: the
    differential suite holds the engine bit-identical to the reference
    walker on memory checksums, dynamic counters and timing stats.

    Compiled kernels capture no launch state — memory is read through
    the [Decode.params] argument — so one compile serves every
    launch, chunk and domain (see {!of_kernel}'s per-domain cache). *)

(** A compiled run of execution. Block bodies return the next block
    index ([-1] = thread done); step closures ({!steps}) return the
    next pc ([Array.length d_ops] = done). *)
type cl = Decode.state -> Decode.params -> int

type t

val decoded : t -> Decode.t
(** The decoded core this was compiled from (for state/params
    construction and the timing model's static tables). *)

val compile : Decode.t -> t

val of_kernel : Safara_vir.Kernel.t -> t
(** [compile (Decode.decode k)] through a small per-domain cache
    keyed by physical kernel identity: repeated launches of the same
    compiled kernel (measurement loops, per-chunk work) reuse the
    closures instead of recompiling. The block closures are built
    before it returns, so the result may be shared with other domains.
    @raise Decode.Error on a branch to an unknown label (SAF021). *)

val steps_of_kernel : Safara_vir.Kernel.t -> Decode.t * cl array
(** The decoded kernel and its {!steps}, through the same cache as
    {!of_kernel} but without building the block closures, which the
    timing model never runs.
    @raise Decode.Error on a branch to an unknown label (SAF021). *)

val run_thread :
  t -> Decode.state -> Decode.params -> Decode.counters -> fuel:int -> unit
(** Execute one thread from the entry block. Counter updates are
    block-granular but sum to exactly the reference engine's per-op
    increments (labels count as instructions). Fuel is checked per
    block — a thread faults with [Failure "interp: fuel exhausted"]
    before executing past its budget, like the reference walker on
    any run the differential gates cover.
    @raise Failure when fuel runs out. *)

val steps : t -> cl array
(** Per-pc step closures for the timing model (built on demand and
    cached): [steps t.(pc) st ps] performs op [pc]'s effect and
    returns the next pc, with the dispatch and operand resolution
    pre-compiled. *)
