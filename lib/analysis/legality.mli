(** Dependence legality of one region body: the one place that decides
    whether a loop's iterations may run in parallel and whether a
    kernel's thread-blocks may run concurrently.

    {!analyze} collects the body's array references and their
    flow/anti/output dependences once; every answer below reads that
    one value. There are two answers:

    - {b not carried at loop [i]} ({!carried}, {!scalar_recurrences},
      {!verdict}): the race detector's SAF010/SAF011,
      {!Schedule.resolve}'s promotion of [Auto] loops (the [kernels]
      construct's compiler freedom) and [saraccc analyze] read it. It
      is also how classical inter-iteration scalar replacement is
      caught sequentializing a parallelizable loop (paper Fig 3/4).
    - {b distance 0 at every mapped axis, plus injective writes}
      ({!blocks}): the block-parallel simulator's legality
      ([Safara_sim.Blockpar], SAF034).

    Both classify a write's subscripts against one loop index with
    one function: a write {e invariant} in [i] is the self-write race
    that pairwise dependence tests cannot see ({!invariant_writes}); a
    write {e injective} in [i] is block-disjoint along [i]. *)

type t

val analyze : Safara_ir.Stmt.t list -> t

val deps : t -> Dependence.dep list
(** The body's flow/anti/output dependences, as
    {!Dependence.region_deps} returns them. *)

val loops : t -> Safara_ir.Stmt.loop list
(** Every loop of the body, in program order (outer before inner). *)

(** {1 Loop parallelism} *)

type verdict = Parallel | Serial of string  (** reason it must stay serial *)

val carried : t -> string -> (Dependence.dep * int) list
(** [carried t i]: the dependences carried by the loop with index [i],
    each with the loop's level in its common nest. *)

val scalar_recurrences : Safara_ir.Stmt.loop -> string list
(** Scalars read-before-write and written in the loop body, excluding
    the loop index, declared reductions and body-local declarations —
    each one sequentializes the loop (or races if it is distributed
    anyway). *)

val verdict : t -> Safara_ir.Stmt.loop -> verdict
(** [Serial] on the first carried dependence, else on the first write
    from {!invariant_writes}, else on the first scalar recurrence;
    directives are ignored, so this answers "could this loop be
    parallelized?". *)

val verdicts : t -> (string * verdict) list
(** {!verdict} of every loop, keyed by index name (unique within a
    validated region). *)

val pp_verdict : Format.formatter -> verdict -> unit

val invariant_writes : t -> string -> Dependence.aref list
(** [invariant_writes t i]: the unguarded writes inside loop [i] whose
    subscripts are all affine and free of [i] (e.g. [c\[0\] = ...]):
    every iteration writes the same element. The pairwise tests never
    compare a reference with itself, so {!carried} misses these. *)

(** {1 Block disjointness} *)

type blocks =
  | Disjoint
  | Unproven_write of Dependence.aref
      (** a write not inside, or not injective in, some axis loop *)
  | Blocking_dep of Dependence.dep
      (** a dependence whose distance at some axis loop is not 0 *)

val blocks : t -> axes:string list -> blocks
(** Whether distributing the loops [axes] over thread-blocks keeps the
    blocks' store footprints disjoint: every write is inside every
    axis loop and injective in its index, and every dependence has
    distance exactly 0 at every axis loop. Strictly stronger than "not
    carried": a dependence carried by an outer sequential loop is
    race-free, yet still crosses blocks. *)
