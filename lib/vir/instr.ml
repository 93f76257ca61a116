type axis = X | Y | Z

type special = Tid of axis | Ctaid of axis | Ntid of axis | Nctaid of axis

type binop = Add | Sub | Mul | Div | Rem | Min | Max | Pow | And | Or

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Not | Sqrt | Exp | Log | Sin | Cos | Fabs | Floor

type operand = Reg of Vreg.t | Imm of int | FImm of float

type mem = {
  m_space : Safara_gpu.Memspace.space;
  m_access : Safara_gpu.Memspace.access;
  m_bytes : int;
}

type t =
  | Label of string
  | Ld of { dst : Vreg.t; addr : Vreg.t; mem : mem; note : string }
  | St of { src : operand; addr : Vreg.t; mem : mem; note : string }
  | Ldp of { dst : Vreg.t; param : string }
  | Mov of { dst : Vreg.t; src : operand }
  | Bin of { op : binop; dst : Vreg.t; a : operand; b : operand }
  | Una of { op : unop; dst : Vreg.t; a : operand }
  | Cvt of { dst : Vreg.t; src : Vreg.t }
  | Setp of { cmp : cmp; dst : Vreg.t; a : operand; b : operand }
  | Bra of string
  | Brc of { pred : Vreg.t; if_true : bool; target : string }
  | Spec of { dst : Vreg.t; sp : special }
  | Atom of { op : binop; addr : Vreg.t; src : operand; mem : mem; note : string }
  | Ret

let op_regs = function Reg r -> [ r ] | Imm _ | FImm _ -> []

let no_def = { Vreg.rid = -1; rty = Safara_ir.Types.Bool }

let def = function
  | Ld { dst; _ } | Ldp { dst; _ } | Mov { dst; _ } | Bin { dst; _ }
  | Una { dst; _ } | Cvt { dst; _ } | Setp { dst; _ } | Spec { dst; _ } ->
      dst
  | Label _ | St _ | Bra _ | Brc _ | Atom _ | Ret -> no_def

let defs ins =
  let d = def ins in
  if d == no_def then [] else [ d ]

let uses = function
  | Ld { addr; _ } -> [ addr ]
  | St { src; addr; _ } -> op_regs src @ [ addr ]
  | Mov { src; _ } -> op_regs src
  | Bin { a; b; _ } | Setp { a; b; _ } -> op_regs a @ op_regs b
  | Una { a; _ } -> op_regs a
  | Cvt { src; _ } -> [ src ]
  | Brc { pred; _ } -> [ pred ]
  | Atom { addr; src; _ } -> [ addr ] @ op_regs src
  | Label _ | Ldp _ | Bra _ | Spec _ | Ret -> []

(* [defs]/[uses] without the lists, for the hot per-register walks *)
let iter_defs f ins =
  let d = def ins in
  if d != no_def then f d

let iter_op f = function Reg r -> f r | Imm _ | FImm _ -> ()

let iter_uses f = function
  | Ld { addr; _ } -> f addr
  | St { src; addr; _ } ->
      iter_op f src;
      f addr
  | Mov { src; _ } -> iter_op f src
  | Bin { a; b; _ } | Setp { a; b; _ } ->
      iter_op f a;
      iter_op f b
  | Una { a; _ } -> iter_op f a
  | Cvt { src; _ } -> f src
  | Brc { pred; _ } -> f pred
  | Atom { addr; src; _ } ->
      f addr;
      iter_op f src
  | Label _ | Ldp _ | Bra _ | Spec _ | Ret -> ()

let rid_bound code =
  let hi = ref (-1) in
  let note (r : Vreg.t) = if r.Vreg.rid > !hi then hi := r.Vreg.rid in
  Array.iter
    (fun ins ->
      iter_defs note ins;
      iter_uses note ins)
    code;
  !hi + 1

let is_branch = function Bra _ | Brc _ | Ret -> true | _ -> false

let branch_targets = function
  | Bra t -> [ t ]
  | Brc { target; _ } -> [ target ]
  | _ -> []

let map_op f = function Reg r -> Reg (f r) | (Imm _ | FImm _) as o -> o

let map_regs f = function
  | Label _ as i -> i
  | Ld r -> Ld { r with dst = f r.dst; addr = f r.addr }
  | St r -> St { r with src = map_op f r.src; addr = f r.addr }
  | Ldp r -> Ldp { r with dst = f r.dst }
  | Mov r -> Mov { dst = f r.dst; src = map_op f r.src }
  | Bin r -> Bin { r with dst = f r.dst; a = map_op f r.a; b = map_op f r.b }
  | Una r -> Una { r with dst = f r.dst; a = map_op f r.a }
  | Cvt r -> Cvt { dst = f r.dst; src = f r.src }
  | Setp r -> Setp { r with dst = f r.dst; a = map_op f r.a; b = map_op f r.b }
  | Bra _ as i -> i
  | Brc r -> Brc { r with pred = f r.pred }
  | Spec r -> Spec { r with dst = f r.dst }
  | Atom r -> Atom { r with addr = f r.addr; src = map_op f r.src }
  | Ret -> Ret

let map_uses reg op ins =
  match ins with
  | Ld r ->
      let addr = reg r.addr in
      if addr == r.addr then ins else Ld { r with addr }
  | St r ->
      let src = op r.src and addr = reg r.addr in
      if src == r.src && addr == r.addr then ins else St { r with src; addr }
  | Mov r ->
      let src = op r.src in
      if src == r.src then ins else Mov { r with src }
  | Bin r ->
      let a = op r.a and b = op r.b in
      if a == r.a && b == r.b then ins else Bin { r with a; b }
  | Una r ->
      let a = op r.a in
      if a == r.a then ins else Una { r with a }
  | Cvt r ->
      let src = reg r.src in
      if src == r.src then ins else Cvt { r with src }
  | Setp r ->
      let a = op r.a and b = op r.b in
      if a == r.a && b == r.b then ins else Setp { r with a; b }
  | Brc r ->
      let pred = reg r.pred in
      if pred == r.pred then ins else Brc { r with pred }
  | Atom r ->
      let addr = reg r.addr and src = op r.src in
      if addr == r.addr && src == r.src then ins else Atom { r with addr; src }
  | Label _ | Ldp _ | Bra _ | Spec _ | Ret -> ins

let axis_to_string = function X -> "x" | Y -> "y" | Z -> "z"

let special_to_string = function
  | Tid a -> "%tid." ^ axis_to_string a
  | Ctaid a -> "%ctaid." ^ axis_to_string a
  | Ntid a -> "%ntid." ^ axis_to_string a
  | Nctaid a -> "%nctaid." ^ axis_to_string a

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Min -> "min"
  | Max -> "max"
  | Pow -> "pow"
  | And -> "and"
  | Or -> "or"

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let unop_to_string = function
  | Neg -> "neg"
  | Not -> "not"
  | Sqrt -> "sqrt"
  | Exp -> "ex2"
  | Log -> "lg2"
  | Sin -> "sin"
  | Cos -> "cos"
  | Fabs -> "abs"
  | Floor -> "cvt.rmi"

let op_to_string = function
  | Reg r -> Vreg.to_string r
  | Imm n -> string_of_int n
  | FImm f -> Printf.sprintf "%g" f

let space_suffix (m : mem) =
  let s = Safara_gpu.Memspace.space_to_string m.m_space in
  let s = if s = "read-only" then "global.nc" else s in
  Printf.sprintf "%s.b%d" s (m.m_bytes * 8)

let to_string = function
  | Label l -> l ^ ":"
  | Ld { dst; addr; mem; note } ->
      Printf.sprintf "  ld.%s %s, [%s]  // %s %s" (space_suffix mem)
        (Vreg.to_string dst) (Vreg.to_string addr) note
        (Safara_gpu.Memspace.access_to_string mem.m_access)
  | St { src; addr; mem; note } ->
      Printf.sprintf "  st.%s [%s], %s  // %s %s" (space_suffix mem)
        (Vreg.to_string addr) (op_to_string src) note
        (Safara_gpu.Memspace.access_to_string mem.m_access)
  | Ldp { dst; param } ->
      Printf.sprintf "  ld.param %s, [%s]" (Vreg.to_string dst) param
  | Mov { dst; src } ->
      Printf.sprintf "  mov %s, %s" (Vreg.to_string dst) (op_to_string src)
  | Bin { op; dst; a; b } ->
      Printf.sprintf "  %s %s, %s, %s" (binop_to_string op) (Vreg.to_string dst)
        (op_to_string a) (op_to_string b)
  | Una { op; dst; a } ->
      Printf.sprintf "  %s %s, %s" (unop_to_string op) (Vreg.to_string dst)
        (op_to_string a)
  | Cvt { dst; src } ->
      Printf.sprintf "  cvt %s, %s" (Vreg.to_string dst) (Vreg.to_string src)
  | Setp { cmp; dst; a; b } ->
      Printf.sprintf "  setp.%s %s, %s, %s" (cmp_to_string cmp)
        (Vreg.to_string dst) (op_to_string a) (op_to_string b)
  | Bra t -> Printf.sprintf "  bra %s" t
  | Brc { pred; if_true; target } ->
      Printf.sprintf "  @%s%s bra %s"
        (if if_true then "" else "!")
        (Vreg.to_string pred) target
  | Spec { dst; sp } ->
      Printf.sprintf "  mov %s, %s" (Vreg.to_string dst) (special_to_string sp)
  | Atom { op; addr; src; mem; note } ->
      Printf.sprintf "  atom.%s.%s [%s], %s  // %s" (space_suffix mem)
        (binop_to_string op) (Vreg.to_string addr) (op_to_string src) note
  | Ret -> "  ret"

let pp ppf i = Format.pp_print_string ppf (to_string i)
