(** Induction-variable rewriting (the "indvar" pipeline pass).

    Detects natural loops on the {!Cfg} (back edges whose target
    dominates their source) and, per single-latch loop, classifies
    header-computed integer registers as {e derived induction
    variables}: affine functions of the loop's basic IVs whose
    per-iteration stride is a polynomial over loop-invariant
    registers. Each chain-end register — one whose value escapes the
    affine chain into a load/store address or other real use — is
    rewritten from a per-iteration recomputation into an
    initialization cloned into the preheader plus a single
    [add dst, dst, stride] across the back edge. The orphaned
    recomputation chain is left for {!Dce}.

    Bit-exact: simulator integer arithmetic is native OCaml int
    arithmetic (and integer [cvt] is a runtime identity), so
    incremental maintenance of [A + S*i] distributes exactly even
    under overflow. Cloned preheader code also runs when the loop
    zero-trips, so the closure is restricted to non-trapping ops
    writing registers dead outside the loop. *)

val optimize : Facts.t -> Facts.t
(** Returns its argument itself when it rewrites nothing (the
    pipeline then skips verifying the unchanged kernel), else the
    facts of the new code; never updates the code in place. *)
