(** Basic-block control-flow graph over a kernel's instruction
    stream — the shared substrate for every dataflow analysis
    ({!Dataflow}), the verifier's def-before-use check and the
    register allocator's live intervals ([Safara_ptxas.Linear_scan]).

    Leaders: instruction 0, every [Label], every instruction after a
    branch ([bra]/[brc]/[ret]). Edges: branch targets plus
    fall-through; [bra] and [ret] end a block without fall-through.
    Branches to undefined labels contribute no edge (the verifier's
    control-flow check reports them separately). *)

type block = {
  bid : int;
  first : int;  (** index of the first instruction *)
  last : int;  (** index of the last instruction (inclusive) *)
  succs : int list;  (** successor block ids, sorted *)
  preds : int list;  (** predecessor block ids *)
}

type t = {
  code : Instr.t array;
  blocks : block array;
  rpo : int array;
      (** block ids in reverse postorder from entry; unreachable
          blocks follow in id order so solvers still visit them *)
  label_block : (string, int) Hashtbl.t;
      (** label name → block id (the first, should a label repeat) *)
}

val build : Instr.t array -> t

val builds : unit -> int
(** {!build} calls in the calling domain since it started
    ({!Facts.counts} reports it). *)

val num_blocks : t -> int

val reachable : t -> bool array
(** [reachable t].(b) — is block [b] reachable from entry? *)

val idoms : t -> int array
(** Immediate dominator of each block (Cooper–Harvey–Kennedy iteration
    over the rpo). Entry is its own idom; unreachable blocks hold
    [-1]. *)

val dominates : idom:int array -> int -> int -> bool
(** [dominates ~idom a b] — does block [a] dominate block [b]? False
    whenever either block is unreachable. *)

type loop = {
  header : int;  (** the block every back edge targets *)
  latches : int list;  (** back-edge sources, sorted *)
  body : bool array;  (** membership per block id (header included) *)
}

val loops : t -> loop list
(** Natural loops: one per header, back edges [l → h] where [h]
    dominates [l]; loops sharing a header are merged (the body is the
    union of the backward walks from every latch). Sorted by header
    block id — inner loops of a shared-header nest are not separated,
    but distinct-header nests appear as distinct entries whose [body]
    sets overlap. *)

val iter_instrs : t -> int -> (int -> Instr.t -> unit) -> unit
(** [iter_instrs t b f] applies [f i instr] over block [b]'s
    instructions in order. *)

val pp : Format.formatter -> t -> unit
