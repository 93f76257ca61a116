module T = Safara_ir.Types

type t = { rid : int; rty : T.dtype }

type cls = B32 | B64 | Pred

let cls r =
  match r.rty with
  | T.Bool -> Pred
  | ty -> if T.is_64bit ty then B64 else B32

let width r = match cls r with Pred -> 0 | B32 -> 1 | B64 -> 2
let is_pred r = cls r = Pred
let equal a b = a.rid = b.rid

let prefix ty =
  match ty with
  | T.I32 -> "%r"
  | T.I64 -> "%rd"
  | T.F32 -> "%f"
  | T.F64 -> "%fd"
  | T.Bool -> "%p"

let to_string r = Printf.sprintf "%s%d" (prefix r.rty) r.rid
let pp ppf r = Format.pp_print_string ppf (to_string r)
