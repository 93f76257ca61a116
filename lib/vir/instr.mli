(** Instructions of the PTX-like virtual ISA.

    Memory instructions carry their space and a static access-pattern
    annotation computed by the coalescing analysis; the timing
    simulator charges latency and transactions from these annotations,
    mirroring how the paper's cost model reasons about accesses
    statically. *)

type axis = X | Y | Z

type special =
  | Tid of axis  (** threadIdx *)
  | Ctaid of axis  (** blockIdx *)
  | Ntid of axis  (** blockDim *)
  | Nctaid of axis  (** gridDim *)

type binop = Add | Sub | Mul | Div | Rem | Min | Max | Pow | And | Or

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Not | Sqrt | Exp | Log | Sin | Cos | Fabs | Floor

type operand = Reg of Vreg.t | Imm of int | FImm of float

type mem = {
  m_space : Safara_gpu.Memspace.space;
  m_access : Safara_gpu.Memspace.access;
  m_bytes : int;  (** element size *)
}

type t =
  | Label of string
  | Ld of { dst : Vreg.t; addr : Vreg.t; mem : mem; note : string }
  | St of { src : operand; addr : Vreg.t; mem : mem; note : string }
  | Ldp of { dst : Vreg.t; param : string }
      (** load a kernel parameter (param space) *)
  | Mov of { dst : Vreg.t; src : operand }
  | Bin of { op : binop; dst : Vreg.t; a : operand; b : operand }
  | Una of { op : unop; dst : Vreg.t; a : operand }
  | Cvt of { dst : Vreg.t; src : Vreg.t }  (** type/width conversion *)
  | Setp of { cmp : cmp; dst : Vreg.t; a : operand; b : operand }
  | Bra of string
  | Brc of { pred : Vreg.t; if_true : bool; target : string }
  | Spec of { dst : Vreg.t; sp : special }
  | Atom of { op : binop; addr : Vreg.t; src : operand; mem : mem; note : string }
      (** atomic read-modify-write to memory (reductions) *)
  | Ret

val def : t -> Vreg.t
(** The register an instruction defines (each defines at most one), or
    {!no_def}: the hot per-instruction kills read it without
    allocating. *)

val no_def : Vreg.t
(** What {!def} returns for an instruction that defines nothing; no
    instruction names it. *)

val defs : t -> Vreg.t list
val uses : t -> Vreg.t list

val iter_defs : (Vreg.t -> unit) -> t -> unit
val iter_uses : (Vreg.t -> unit) -> t -> unit
(** Visit exactly the registers of {!defs} / {!uses}, in the same
    order, without building the list. *)

val rid_bound : t array -> int
(** 1 + the highest register id in the code (0 if it has none): the
    size of a table indexed by register id. *)

val is_branch : t -> bool
val branch_targets : t -> string list

val map_regs : (Vreg.t -> Vreg.t) -> t -> t
(** Apply a substitution to every register operand (defs and uses). *)

val map_uses : (Vreg.t -> Vreg.t) -> (operand -> operand) -> t -> t
(** [map_uses reg op ins] applies [reg] to the plain register uses
    (addresses, [cvt] sources, branch predicates) and [op] to the
    operand uses; defs are untouched. It returns [ins] itself when
    every result is physically its argument, so a pass that rewrites
    nothing can hand back its input. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val axis_to_string : axis -> string
val binop_to_string : binop -> string
val unop_to_string : unop -> string
