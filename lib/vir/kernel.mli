(** A compiled GPU kernel: parameter list, instruction stream and
    launch geometry.

    The grid extents depend on runtime scalar parameters (loop trip
    counts), so each mapped axis records its loop bounds as IR
    expressions; the launcher evaluates them against the parameter
    environment and divides by the block extent. *)

type param =
  | P_scalar of string * Safara_ir.Types.dtype
  | P_array of string  (** device base pointer of the array *)

(** One grid axis: which loop it came from and how to size it. *)
type axis_map = {
  ax : Instr.axis;
  ax_index : string;  (** loop index name *)
  ax_lo : Safara_ir.Expr.t;
  ax_hi : Safara_ir.Expr.t;  (** inclusive *)
  ax_vector : int;  (** block extent along this axis *)
  ax_gang : int option;  (** grid extent if the directive stated one *)
}

type t = {
  kname : string;
  params : param list;
  code : Instr.t array;
  block : int * int * int;
  axes : axis_map list;
  shared_bytes : int;
}

val threads_per_block : t -> int
val param_names : t -> string list
val count_instr : t -> f:(Instr.t -> bool) -> int

val label_map : t -> (string, int) Hashtbl.t
(** Label name → instruction index of the [Label] in [code]. *)

val num_regs : t -> int
(** One more than the highest virtual-register id in [code] (defs or
    uses), at least 1: the register-file size a simulator must
    provide. A walk of the code; the compiler reads the same bound
    from the code's {!Facts}. *)

val memory_ops : t -> int
(** Global/read-only/local loads, stores and atomics in the static code. *)

val pp : Format.formatter -> t -> unit
