(** Peephole cleanup of the generated virtual code, run before register
    allocation (mirroring the cheap late optimizations a real backend
    performs after address-expansion lowering):

    - constant folding of integer ALU ops with immediate operands;
    - algebraic identities ([x+0], [x*1], [x-0] become copies);
    - block-local copy propagation (forward [mov] sources into uses);
    - dead-code elimination of pure instructions whose results are
      never read anywhere (loads count as pure: the functional
      simulator has no faulting semantics to preserve).

    The pass is semantics-preserving; the pipeline property tests
    compare results with it enabled. *)

val optimize : Instr.t array -> Instr.t array
(** Returns its argument itself when it rewrites nothing (the
    pipeline then skips verifying the unchanged kernel); never updates
    it in place. *)

val stats : Instr.t array -> Instr.t array -> string
(** Human-readable before/after summary. *)
