(** Dependence-based data-race detection (codes [SAF010]/[SAF011]).

    For every loop the programmer explicitly scheduled parallel
    ([gang] and/or [vector]), reports what
    {!Safara_analysis.Legality} finds at the loop — the same answer
    [auto]-loop scheduling reads: each flow/anti/output dependence
    carried at the loop's level, each unguarded write invariant in
    the loop (every iteration writes the same element), and each
    scalar read-and-written across iterations outside a declared
    reduction. This module only words the diagnostics: the offending
    array pair, their subscripts and the distance vector over the
    common nest, with [seq]-demotion as the fix-it hint.

    [Auto]-scheduled loops are not reported: the compiler decides
    those itself and never distributes a loop it cannot prove
    independent. Read-read (input) dependences are never races. *)

val check_region :
  ?map:Safara_lang.Srcmap.t ->
  Safara_ir.Region.t ->
  Safara_diag.Diagnostic.t list

val check_program :
  ?map:Safara_lang.Srcmap.t ->
  Safara_ir.Program.t ->
  Safara_diag.Diagnostic.t list
