module I = Safara_vir.Instr
module T = Safara_ir.Types

(* Unboxed arithmetic cores. The threaded engine evaluates directly on
   raw floats/ints; the boxed [eval_*] wrappers below delegate here, so
   both engines share one set of formulas by construction. *)

let fbin op x y =
  match op with
  | I.Add -> x +. y
  | I.Sub -> x -. y
  | I.Mul -> x *. y
  | I.Div -> x /. y
  | I.Rem -> Float.rem x y
  | I.Min -> Float.min x y
  | I.Max -> Float.max x y
  | I.Pow -> Float.pow x y
  | I.And | I.Or -> invalid_arg "exec: logical op on floats"

let ibin op x y =
  match op with
  | I.Add -> x + y
  | I.Sub -> x - y
  | I.Mul -> x * y
  | I.Div -> if y = 0 then 0 else x / y
  | I.Rem -> if y = 0 then 0 else x mod y
  | I.Min -> min x y
  | I.Max -> max x y
  | I.Pow -> int_of_float (Float.pow (float_of_int x) (float_of_int y))
  | I.And | I.Or -> invalid_arg "exec: logical op on integers"

let bbin op x y =
  match op with
  | I.And -> x && y
  | I.Or -> x || y
  | _ -> invalid_arg "exec: arithmetic on predicates"

let funa op x =
  match op with
  | I.Neg -> -.x
  | I.Sqrt -> sqrt x
  | I.Exp -> exp x
  | I.Log -> log x
  | I.Sin -> sin x
  | I.Cos -> cos x
  | I.Fabs -> Float.abs x
  | I.Floor -> Float.floor x
  | I.Not -> invalid_arg "exec: not on floats"

let fcmp cmp x y =
  match cmp with
  | I.Eq -> x = y
  | I.Ne -> x <> y
  | I.Lt -> x < y
  | I.Le -> x <= y
  | I.Gt -> x > y
  | I.Ge -> x >= y

let icmp cmp (x : int) (y : int) =
  match cmp with
  | I.Eq -> x = y
  | I.Ne -> x <> y
  | I.Lt -> x < y
  | I.Le -> x <= y
  | I.Gt -> x > y
  | I.Ge -> x >= y

(* --- boxed wrappers (reference engine) ------------------------------ *)

let eval_bin op ty a b =
  if T.is_float ty then Value.F (fbin op (Value.to_float a) (Value.to_float b))
  else if ty = T.Bool then Value.B (bbin op (Value.to_bool a) (Value.to_bool b))
  else Value.I (ibin op (Value.to_int a) (Value.to_int b))

let eval_una op ty a =
  match op with
  | I.Not -> Value.B (not (Value.to_bool a))
  | I.Neg ->
      if T.is_float ty then Value.F (-.Value.to_float a)
      else Value.I (-Value.to_int a)
  | I.Sqrt | I.Exp | I.Log | I.Sin | I.Cos | I.Fabs | I.Floor ->
      Value.F (funa op (Value.to_float a))

let eval_cmp cmp a b =
  match (a, b) with
  | Value.F _, _ | _, Value.F _ -> fcmp cmp (Value.to_float a) (Value.to_float b)
  | _ -> icmp cmp (Value.to_int a) (Value.to_int b)

let convert ty v =
  if T.is_float ty then Value.F (Value.to_float v)
  else if ty = T.Bool then Value.B (Value.to_bool v)
  else Value.I (Value.to_int v)
