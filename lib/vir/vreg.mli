(** Virtual registers of the PTX-like virtual ISA.

    Like PTX, the virtual ISA has an unlimited supply of typed
    pseudo-registers; the closed-source assembler (our {!Safara_ptxas})
    maps them onto the hardware's 32-bit register file. A 64-bit value
    ([I64]/[F64]) occupies an aligned pair of hardware registers —
    the fact the paper's [small] clause exploits (§IV.B). Predicate
    registers live in a separate file and do not count against the
    general-purpose budget. *)

type t = { rid : int; rty : Safara_ir.Types.dtype }

type cls = B32 | B64 | Pred

val cls : t -> cls
val width : t -> int
(** Hardware 32-bit registers occupied: 1 or 2 (0 for predicates). *)

val is_pred : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
