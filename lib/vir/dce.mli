(** Liveness-driven dead-code elimination (the "dce" pipeline pass).

    Deletes pure instructions whose definitions are not live after
    the defining instruction — catching overwritten values and
    chains of mutually-dead code that a usedness sweep keeps.
    Iterates (recompute liveness, backward sweep) to fixpoint; each
    sweep removes whole intra-block dead chains at once, so rounds
    are bounded by cross-block dependence depth.

    Semantics-preserving for the functional simulator: only pure
    instructions are removed (loads are pure — there are no faulting
    semantics to preserve), and control flow is untouched. *)

val optimize : Facts.t -> Facts.t
(** Returns its argument itself when it rewrites nothing (the
    pipeline then skips verifying the unchanged kernel), else the
    facts of the new code; never updates the code in place. *)
