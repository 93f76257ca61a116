(** Pure instruction semantics shared by the functional interpreter and
    the timing simulator. Operations are typed by the destination
    register's data type (integer division truncates toward zero, like
    PTX [div.s32]).

    The unboxed cores ([fbin], [ibin], …) are the single source of
    truth for every formula; the boxed [eval_*] entry points wrap them
    for the reference engine, and the threaded engine ({!Threaded})
    calls them directly on raw floats/ints so register traffic never
    allocates a {!Value.t}. *)

(** {1 Unboxed cores} *)

val fbin : Safara_vir.Instr.binop -> float -> float -> float
val ibin : Safara_vir.Instr.binop -> int -> int -> int
val bbin : Safara_vir.Instr.binop -> bool -> bool -> bool

val funa : Safara_vir.Instr.unop -> float -> float
(** Float-domain unary ops ([Neg], [Sqrt], [Exp], …).
    @raise Invalid_argument on [Not] (predicate domain). *)

val fcmp : Safara_vir.Instr.cmp -> float -> float -> bool
val icmp : Safara_vir.Instr.cmp -> int -> int -> bool

(** {1 Boxed wrappers (reference engine)} *)

val eval_bin :
  Safara_vir.Instr.binop -> Safara_ir.Types.dtype -> Value.t -> Value.t -> Value.t

val eval_una : Safara_vir.Instr.unop -> Safara_ir.Types.dtype -> Value.t -> Value.t

val eval_cmp : Safara_vir.Instr.cmp -> Value.t -> Value.t -> bool

val convert : Safara_ir.Types.dtype -> Value.t -> Value.t
(** [Cvt] semantics: float→int truncates, int→float widens exactly. *)
