(** Spill-code insertion: rewrites a kernel so that chosen virtual
    registers live in per-thread local memory (which on Kepler is
    L1-cached but still far slower than a register — the performance
    cliff the paper's feedback loop avoids by never over-allocating).

    Every use of a spilled register becomes a load from its local slot
    into a fresh short-lived temporary; every definition becomes a
    store. Slot addresses are materialized as immediates. *)

val rewrite :
  slot_base:int ->
  Safara_vir.Vreg.t list ->
  Safara_vir.Facts.t ->
  Safara_vir.Instr.t array * int
(** [rewrite ~slot_base spilled facts] returns the rewritten code of
    [facts] and the number of local-memory bytes used by the new
    slots. Slots are numbered from [slot_base] bytes; fresh
    temporaries from the code's register-id bound on. *)
