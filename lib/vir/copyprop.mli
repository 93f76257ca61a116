(** Global copy propagation (the "copy-prop" pipeline pass), built on
    {!Dataflow.Copies}.

    Forwards [mov] sources — same-type registers and immediates —
    into later uses wherever the copy provably survives on {e every}
    path, carrying the window across branches and joins where the
    block-local peephole must reset. Self-moves created by the
    substitution are deleted; other newly-dead definitions are left
    for {!Dce}. *)

val optimize : Facts.t -> Facts.t
(** Returns its argument itself when it rewrites nothing (the
    pipeline then skips verifying the unchanged kernel), else the
    facts of the new code; never updates the code in place. *)
