(** Redundant-load elimination and store-to-load forwarding (the
    "memmerge" pipeline pass).

    A forward must-analysis pairs {!Dataflow.Affine} with an
    available-memory-values map keyed by the affine resolution of each
    access address ([(base register, byte offset)] per alias class).
    Loads whose address provably matches an available value become
    register moves (or vanish when the destination already holds the
    value); stores forward their operand to later loads and kill only
    the values they could actually overwrite — same alias class, not
    provably disjoint by base and byte-interval reasoning. [Local]
    (per-thread spill storage) is the one genuinely separate memory;
    all other spaces share the simulator's flat allocation table and
    therefore one alias class. Atomics clobber their class.

    Sound per thread: no engine interleaves another thread's stores
    into a thread's instruction stream (the block-parallel prover only
    admits race-free kernels). *)

val optimize : Facts.t -> Facts.t
(** Returns its argument itself when it rewrites nothing (the
    pipeline then skips verifying the unchanged kernel), else the
    facts of the new code; never updates the code in place. *)
