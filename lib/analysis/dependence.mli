(** Dependence-distance analysis over loop nests (Allen–Kennedy
    style), the engine behind both the legality rules ({!Legality})
    and the reuse detection of scalar replacement (paper §III.A).

    References are collected with their enclosing loop context; pairs
    of references to the same array are subjected to per-dimension
    subscript tests (ZIV / strong SIV, with agreement checks when an
    index appears in several dimensions). The result is a distance
    vector over the common loop nest, with [Star] standing for an
    unknown/any distance (conservative). A dependence's loops are
    named by {!common_nest}; {!level} finds a loop in it and
    {!distance_at} and {!carried_at} read the vector there. *)

type ref_kind = Read | Write

(** An array reference in context. *)
type aref = {
  array : string;
  subs : Safara_ir.Expr.t list;
  kind : ref_kind;
  id : int;  (** program-order position within the region *)
  nest : (string * Safara_ir.Stmt.sched) list;
      (** enclosing loops, outermost first: index name and schedule *)
  guard : int list;
      (** identifies the chain of enclosing [If] branches; two refs
          with different guards may not execute together *)
}

type distance = D of int | Star

type dep_kind = Flow | Anti | Output | Input

type dep = {
  d_src : aref;
  d_dst : aref;
  d_kind : dep_kind;
  d_dist : distance list;
      (** one entry per common enclosing loop, outermost first *)
}

val collect_refs : Safara_ir.Stmt.t list -> aref list
(** All array references in a region body, in program order.
    Subscript loads are visited before the enclosing reference. *)

val test_pair : aref -> aref -> distance list option
(** Dependence test between two references to the same array given
    [a.id < b.id]. [None] = provably independent. [Some dists] =
    (possible) dependence with the given distance vector over the
    common nest. *)

val deps_of_refs : ?include_input:bool -> aref list -> dep list
(** All pairwise dependences among the references of one region body
    (as {!collect_refs} returns them). Input (read-read) dependences
    are included only when [include_input] (default [false]); they
    drive reuse, not legality. *)

val region_deps : ?include_input:bool -> Safara_ir.Stmt.t list -> dep list
(** [deps_of_refs] of the body's {!collect_refs}. *)

val common_nest : dep -> string list
(** The loop indices enclosing both ends of the dependence, outermost
    first: the loops its distance vector is indexed over. *)

val level : dep -> string -> int option
(** Position of the loop with this index in {!common_nest}; [None]
    when the loop does not enclose both ends. *)

val distance_at : dep -> int -> distance option
(** The distance at a level of the common nest. *)

val carried_at : dep -> int -> bool
(** [carried_at d level] is true when the dependence is carried by the
    loop at [level] of the common nest: all outer distances are zero
    and the distance at [level] is non-zero or unknown. *)

val pp_dep : Format.formatter -> dep -> unit
val pp_distance : Format.formatter -> distance -> unit

val kind_to_string : dep_kind -> string
(** ["flow"], ["anti"], ["output"] or ["input"]. *)

val ref_name : aref -> string
(** The reference as written in the source: [a[i][(j + 1)]]. *)
