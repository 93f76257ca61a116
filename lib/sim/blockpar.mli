(** Block-parallel legality pre-pass for the functional interpreter.

    CUDA thread-blocks are independent by construction *on hardware*;
    the sequential interpreter nevertheless fixes one global thread
    order, so running blocks concurrently is only bit-identical when
    no block can observe or overwrite another block's stores. This
    pass checks the kernel side (atomics, grid axes) and asks
    {!Safara_analysis.Legality.blocks} — the module behind the SAF010
    race detector — to judge the *source region* whose name the
    kernel carries:

    - the kernel executes no atomics (reductions compile to [Atom],
      whose interleaving order the sequential walk pins down);
    - every array write is enclosed by every grid-mapped loop and has,
      per mapped axis, a subscript that is affine with a nonzero
      coefficient on that axis' index and on no other enclosing index
      — injective in the block-distributed index, so distinct blocks
      write disjoint cells (this also closes the self-dependence hole:
      pairwise tests never compare a write against itself);
    - every flow/anti/output dependence has distance exactly 0 at
      every mapped axis' level of its common nest. Strictly stronger
      than SAF010's "not carried by the parallel loop": a dependence
      carried by an outer sequential loop is race-free on hardware but
      still crosses blocks, and only distance 0 keeps the concurrent
      schedule equivalent to the sequential one.

    Anything unprovable — including kernels whose region the program
    no longer contains — yields [Serial] with a reason, surfaced as
    the informational diagnostic SAF034. *)

type reason =
  | No_region  (** no region named like the kernel *)
  | Atomics of int  (** kernel executes atomics (e.g. reductions) *)
  | No_parallel_axis  (** nothing is mapped onto the grid *)
  | Unproven_write of string
      (** this write is not provably pinned to one block *)
  | Blocking_dep of string
      (** this dependence may cross thread-blocks *)
  | Below_threshold of { est_ops : int; threshold : int }
      (** legality proved, but the runtime granularity cost model
          ([Interp.parallel_threshold]) judged the launch too small
          for the parallel path to pay for its chunk setup. Never
          returned by {!analyze} — only the interpreter's launch-time
          decision produces it. *)

type verdict = Block_parallel | Serial of reason

val analyze : prog:Safara_ir.Program.t -> Safara_vir.Kernel.t -> verdict
(** Static legality only; the launch-size cost model is applied later,
    per launch, by the interpreter. *)

val reason_message : reason -> string

val diagnostic :
  Safara_vir.Kernel.t -> reason -> Safara_diag.Diagnostic.t
(** The SAF034 note ([Note] severity: informational, never promoted by
    [--werror]) explaining why the kernel falls back to the
    sequential walker. *)
