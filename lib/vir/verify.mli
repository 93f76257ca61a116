(** VIR verifier: proves kernels structurally and dataflow
    well-formed. Any fault means a compiler bug ([SAF020]), never a
    user error — run it after codegen and re-run it after every
    VIR-level transform (unroll, scalar replacement, peephole) and
    after assembly (assembled code stays in virtual-register form;
    spill [Ld]/[St] must target local memory, which is writable, so
    the same checks hold).

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

val verify : Kernel.t -> Safara_diag.Diagnostic.t list
(** Empty list = well-formed. Deterministic order (per-check, then
    instruction index). Control flow, types and memory spaces are
    checked in one walk over the code. *)

val verify_exn : Kernel.t -> unit
(** @raise Invalid_argument with the full fault report. *)
