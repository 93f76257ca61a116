(** Generic dataflow analysis over {!Cfg}: a worklist solver
    functorized over a join-semilattice, and the four shared
    instantiations — liveness, reaching definitions, available
    copies, and an affine constant/copy value lattice. The optimizer
    passes ({!Dce}, {!Copyprop}, {!Strength}), the verifier's
    def-before-use check, the register allocator's live intervals and
    the checker's pressure report are all clients of this one
    solver. *)

type direction = Forward | Backward

module type LATTICE = sig
  type t

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** confluence; the solver's [init] must be its identity *)
end

module Solver (L : LATTICE) : sig
  type result = { at_start : L.t array; at_end : L.t array }
  (** Fixpoint values at each block's first/last program point
      (position in the code, regardless of analysis direction). *)

  val solve :
    dir:direction ->
    init:L.t ->
    boundary:L.t ->
    transfer:(int -> L.t -> L.t) ->
    Cfg.t ->
    result
  (** [init]: optimistic start, the identity of [join] (bottom for
      may-analyses; an explicit top element for must-analyses).
      [boundary]: the value entering block 0 (Forward) or leaving
      every exit block (Backward). [transfer b v]: block [b]'s flow
      function — at_start→at_end under [Forward], at_end→at_start
      under [Backward]. Iterates in reverse postorder (or its
      reverse) with a FIFO worklist until fixpoint. *)
end

(** Sets of register ids as dense bitsets, 63 ids to an [int] word:
    the lattice of liveness and of the def-before-use screen. *)
module Bits : sig
  type t = int array

  val create : int -> t
  (** the empty set over register ids [0 .. n-1] *)

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** union; [[||]] (an unreached block) is its identity *)

  val mem : t -> int -> bool
  val add : t -> int -> unit
  val remove : t -> int -> unit

  val iter : (int -> unit) -> t -> unit
  (** the members in ascending id *)
end

(** Per-block use/def sets of one code array: the summary liveness
    and the def-before-use screen share, read through {!Facts}. *)
type block_sets = {
  gen : Bits.t array;  (** per block: the upward-exposed uses *)
  kill : Bits.t array;  (** per block: the registers it defines *)
  regs : Vreg.t array;
      (** register id → the register, for every id in the code *)
}

val block_sets : nregs:int -> Cfg.t -> block_sets
(** One walk over the code; [nregs] is its {!Instr.rid_bound}. *)

(** Liveness: backward may-analysis over register bitsets. *)
module Live : sig
  type info = {
    live_in : Bits.t array;
    live_out : Bits.t array;  (** per-block fixpoint *)
    regs : Vreg.t array;  (** the {!block_sets}' [regs] *)
  }

  val analyze : Cfg.t -> block_sets -> info

  val step : Bits.t -> Instr.t -> unit
  (** one instruction backward, in place: (live − defs) ∪ uses *)

  val units : info -> Bits.t -> int
  (** total width in 32-bit units (predicates count 0) *)

  val profile : Cfg.t -> info -> int array * int array * int
  (** per instruction, the number and the 32-bit width of the values
      live after it, and the peak simultaneous demand in 32-bit units
      (at each instruction the values live after it plus the ones it
      defines): {!Facts.max_units} and {!Facts.pp_annotated} *)
end

module IM : Map.S with type key = int
module IS : Set.S with type elt = int

(** Reaching definitions: forward may-analysis. Every register also
    carries a synthetic "uninitialized" definition from kernel entry,
    so "uninit may reach this use" is exactly the complement of the
    old must-reach def-before-use check. *)
module Reach : sig
  val uninit : int
  (** the synthetic entry-definition site (-1) *)

  type state = IS.t IM.t
  (** rid → definition sites (instruction indices, or [uninit]) that
      may reach this point *)

  val analyze : Cfg.t -> state array * state array
  (** (at block start, at block end) *)

  type fault = {
    f_at : int;  (** instruction index of the faulting use *)
    f_reg : Vreg.t;
    f_partial : int list;
        (** definition sites reaching on the other paths; [] means
            the register is never defined before this use on any
            path *)
  }

  val may_see_uninit : Cfg.t -> block_sets -> bool
  (** The screen: whether any reachable use may see an uninitialized
      register — exactly [possibly_uninitialized cfg sets <> []],
      decided by a forward may-analysis over a dense bitset of
      possibly-uninitialized registers, with the blocks' [kill] sets
      as transfer and their [gen] sets as the uses, instead of site
      sets. *)

  val possibly_uninitialized : Cfg.t -> block_sets -> fault list
  (** every use the synthetic uninitialized definition can reach, in
      instruction order; runs the site analysis ({!analyze}) only when
      {!may_see_uninit} fires. *)
end

(** Available copies: forward must-analysis backing global copy
    propagation. *)
module Copies : sig
  type env
  (** dst-rid → operand it provably equals on every path, with a
      reverse index (source rid → dependent facts) so killing a
      definition is proportional to its dependents, not the window
      size *)

  val empty : env

  type state = env option
  (** [None] is top (unreached) *)

  val operand_equal : Instr.operand -> Instr.operand -> bool

  val find : int -> env -> Instr.operand option
  (** the operand a dst-rid provably equals here, if any *)

  val step_map : env -> Instr.t -> env
  (** advance the window across one instruction: kill facts about the
      defs, record [mov] copies *)

  val analyze : Cfg.t -> state array * state array
end

(** Affine values — the constant/copy value lattice: [r = base + k]
    ([base = None] makes r the constant [k]; [k = 0] makes it a plain
    copy). Integer registers only; OCaml-int simulator arithmetic is
    distributive modulo word size, so rewrites justified by these
    facts are bit-exact even under overflow. *)
module Affine : sig
  type fact = { base : Vreg.t option; k : int }

  type env
  (** register id → fact, held for the integer registers a [mov],
      [add] or [sub] defines, in arrays indexed through a per-code
      table of register ids, with the set of registers some fact may
      name as its base, so a kill scans for dependents only when there
      can be any. {!step} updates an env in place; a client steps over
      a {!copy} of any env it keeps or passes to {!join}. *)

  val create : nregs:int -> Instr.t array -> env
  (** no facts, for the registers of this code; [nregs] is its
      {!Instr.rid_bound} *)

  val copy : env -> env
  val fact_equal : fact -> fact -> bool

  val integer : Vreg.t -> bool
  (** affine facts only track integer registers *)

  val find : int -> env -> fact option

  val resolve : env -> Vreg.t -> fact
  (** {!find}, defaulting to [r = r + 0] *)

  val step : env -> Instr.t -> unit
  (** one instruction forward, in place: kill the facts its def
      invalidates, record the fact of a [mov] or of an [add]/[sub] of
      an immediate *)

  val equal : env -> env -> bool

  val join : env -> env -> env
  (** the facts both sides agree on; shares the first argument's
      base-register set, so neither argument may be updated
      afterwards. With {!equal}, what {!Strength} and {!Memmerge} pair
      with their own facts in a {!Rewriter} state. *)
end

(** A forward must-analysis whose state is updated in place, and the
    rewrite its facts justify: the shape of {!Strength} and
    {!Memmerge}. *)
module Rewriter (X : sig
  type t

  val create : nregs:int -> Instr.t array -> t
  (** the state at kernel entry; also the state of blocks the entry
      never reaches. [nregs] is the code's {!Instr.rid_bound}. *)

  val copy : t -> t
  (** a state [step] may update: values kept by the solver, and the
      ones [join] reads, are never updated *)

  val equal : t -> t -> bool
  val join : t -> t -> t

  val step : t -> Instr.t -> Instr.t option option
  (** one instruction forward, in place, returning its rewrite as
      decided on the state before it: [None] keeps it, [Some None]
      drops it, [Some (Some i)] replaces it with [i] *)
end) : sig
  val optimize : nregs:int -> Cfg.t -> Instr.t array
  (** the CFG's code with every instruction rewritten on the fixpoint
      state before it; that code itself when nothing is rewritten.
      [nregs] is the code's {!Instr.rid_bound}. *)
end
