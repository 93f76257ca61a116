(** VIR verifier: proves kernels structurally and dataflow
    well-formed. Any fault means a compiler bug ([SAF020]), never a
    user error. The pipeline runs it after codegen and after every
    step that changes a kernel's code — each VIR pass (peephole,
    copy-prop, strength-red, indvar, memmerge, dce) and assembly
    (assembled code stays in virtual-register form; spill [Ld]/[St]
    must target local memory, which is writable, so the same checks
    hold). The IR transforms before codegen (unrolling, scalar
    replacement) are checked by {!Safara_ir.Validate} instead.

    One walk over the code checks every per-instruction rule against
    the code's {!Facts} — the CFG's label table answers the label
    checks, the register-id bound sizes the one-type table — and
    formats a diagnostic only when a rule fails. Def-before-use is
    the facts' bitset screen ({!Dataflow.Reach.may_see_uninit} over
    {!Facts.sets}); the site analysis that names the reaching
    definitions runs only when the screen fires.

    Checks:
    - labels are unique, every branch target is defined, control
      cannot fall off the end, a [ret] exists;
    - every register is defined before use on {e all} paths (forward
      must-dataflow over the CFG; unreachable blocks are skipped);
    - operand/instruction type agreement: [setp] writes a predicate
      and compares non-predicates, branch conditions are predicates,
      arithmetic never writes predicates, [cvt] never involves
      predicates, load width matches the destination register class,
      [ld.param] names a kernel parameter, and every register id
      appears at one type (the rid-indexed tables of liveness and the
      allocator rely on it);
    - memory-space legality: stores and atomics only to writable
      spaces (global/shared/local), no [ld] from param space. *)

val verify : ?facts:Facts.t -> Kernel.t -> Safara_diag.Diagnostic.t list
(** Empty list = well-formed. Deterministic order: per check (labels,
    branch targets, the kernel's end, def-before-use, types, memory
    spaces), then instruction index. [facts] are the facts of the
    kernel's code (default: fresh ones). *)

val verify_exn : ?facts:Facts.t -> Kernel.t -> unit
(** @raise Invalid_argument with the full fault report. *)
