type param =
  | P_scalar of string * Safara_ir.Types.dtype
  | P_array of string

type axis_map = {
  ax : Instr.axis;
  ax_index : string;
  ax_lo : Safara_ir.Expr.t;
  ax_hi : Safara_ir.Expr.t;
  ax_vector : int;
  ax_gang : int option;
}

type t = {
  kname : string;
  params : param list;
  code : Instr.t array;
  block : int * int * int;
  axes : axis_map list;
  shared_bytes : int;
}

let threads_per_block t =
  let x, y, z = t.block in
  x * y * z

let param_names t =
  List.map (function P_scalar (n, _) -> n | P_array n -> n) t.params

let count_instr t ~f = Array.fold_left (fun acc i -> if f i then acc + 1 else acc) 0 t.code

let label_map t =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i instr -> match instr with Instr.Label l -> Hashtbl.replace tbl l i | _ -> ())
    t.code;
  tbl

let num_regs t = max 1 (Instr.rid_bound t.code)

let memory_ops t =
  count_instr t ~f:(function
    | Instr.Ld _ | Instr.St _ | Instr.Atom _ -> true
    | _ -> false)

let pp ppf t =
  let x, y, z = t.block in
  Format.fprintf ppf "@[<v>.kernel %s  // block(%d,%d,%d)@,.params (%s)@,"
    t.kname x y z
    (String.concat ", " (param_names t));
  Array.iter (fun i -> Format.fprintf ppf "%s@," (Instr.to_string i)) t.code;
  Format.fprintf ppf "@]"
