(** Strength reduction of multiply-by-stride address arithmetic (the
    "strength-red" pipeline pass).

    A forward must-analysis pairs {!Dataflow.Affine} value facts with
    an available-products map ((base, multiplier) → register already
    holding the product). A [mul dst, t, s] where [t = u + k] and
    [p = u * s] is available on every path becomes
    [add dst, p, k*s] — trading the 20-cycle multiply for a 9-cycle
    add. The lattice also folds multiplies of provably-constant
    operands and rewrites [*0], [*1], [*2] and [rem 1] into cheaper
    forms.

    Integer registers only; native-int arithmetic is distributive
    modulo the word size, so every rewrite is bit-exact even under
    overflow. *)

val optimize : Facts.t -> Facts.t
(** Returns its argument itself when it rewrites nothing (the
    pipeline then skips verifying the unchanged kernel), else the
    facts of the new code; never updates the code in place. *)
