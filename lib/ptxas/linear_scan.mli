(** Linear-scan register allocation onto the GPU's 32-bit register
    file — our stand-in for the closed-source ptxas assembler whose
    "PTXAS Info" output SAFARA consumes as feedback (paper §III.B.2).

    64-bit values ([long]/[double]) occupy an even-aligned pair of
    consecutive 32-bit registers, which is why the [small] clause's
    32-bit offsets halve the address-arithmetic register cost (§IV.B).
    Predicates are allocated from a separate file and do not count.
    When demand exceeds [max_regs], the active interval with the
    furthest end (the most recently placed of those) is spilled, or
    the new interval if it ends furthest. The active set is kept
    ordered by end point, so an allocation costs O(n log n) in the
    number of intervals.

    Intervals come from the code's {!Safara_vir.Facts}: its CFG and
    liveness, the ones the VIR passes and the SAF036 pressure lint
    read, so the register count SAFARA feeds back is computed on the
    same analyses — and, in the pipeline, on the very values the last
    pass computed when it left the code unchanged. *)

type interval = {
  reg : Safara_vir.Vreg.t;
  i_start : int;
  i_end : int;  (** inclusive *)
}

val intervals : Safara_vir.Facts.t -> interval list
(** One interval per register, covering every instruction index at
    which it is live (or defined), so values that cross a loop back
    edge are live for the whole loop body — the long-lived dope-vector
    and base-pointer values the paper's clauses target end up with
    kernel-length intervals. Dead definitions get a point interval.
    Sorted by increasing [i_start], then register id. The peak
    interval overlap is at least {!Safara_vir.Facts.max_units}
    (intervals over-approximate the live sets) and at most an
    uncapped allocation's [regs_used]. *)

type result = {
  assignment : (Safara_vir.Vreg.t * int) list;
      (** virtual register → first 32-bit unit index *)
  regs_used : int;  (** peak 32-bit units = the ptxas register count *)
  spilled : Safara_vir.Vreg.t list;
  pred_used : int;
}

val allocate : max_regs:int -> Safara_vir.Facts.t -> result
(** Allocate over the code's {!intervals}. *)

val verify : Safara_vir.Facts.t -> result -> (unit, string) Result.t
(** Check that no two simultaneously-live registers share a 32-bit
    unit and that 64-bit values are even-aligned — used by tests. *)
