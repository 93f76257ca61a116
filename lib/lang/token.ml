type t =
  | Int_lit of int
  | Float_lit of float
  | Float32_lit of float
  | Ident of string
  | Kw_param
  | Kw_int
  | Kw_long
  | Kw_float
  | Kw_double
  | Kw_for
  | Kw_if
  | Kw_else
  | Kw_in
  | Kw_out
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Semi
  | Comma
  | Colon
  | Assign
  | Plus_assign
  | Minus_assign
  | Star_assign
  | Slash_assign
  | Plus
  | Minus
  | Star
  | Slash
  | Percent
  | Plus_plus
  | Eq_eq
  | Bang_eq
  | Lt
  | Le
  | Gt
  | Ge
  | Amp_amp
  | Bar_bar
  | Bang
  | Pragma of string
  | Eof

type pos = { line : int; col : int }

let to_string = function
  | Int_lit n -> string_of_int n
  | Float_lit f -> string_of_float f
  | Float32_lit f -> string_of_float f ^ "f"
  | Ident s -> s
  | Kw_param -> "param"
  | Kw_int -> "int"
  | Kw_long -> "long"
  | Kw_float -> "float"
  | Kw_double -> "double"
  | Kw_for -> "for"
  | Kw_if -> "if"
  | Kw_else -> "else"
  | Kw_in -> "in"
  | Kw_out -> "out"
  | Lparen -> "("
  | Rparen -> ")"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Semi -> ";"
  | Comma -> ","
  | Colon -> ":"
  | Assign -> "="
  | Plus_assign -> "+="
  | Minus_assign -> "-="
  | Star_assign -> "*="
  | Slash_assign -> "/="
  | Plus -> "+"
  | Minus -> "-"
  | Star -> "*"
  | Slash -> "/"
  | Percent -> "%"
  | Plus_plus -> "++"
  | Eq_eq -> "=="
  | Bang_eq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Amp_amp -> "&&"
  | Bar_bar -> "||"
  | Bang -> "!"
  | Pragma s -> "#pragma acc " ^ s
  | Eof -> "<eof>"

(* constant tokens are immediates, so [==] decides them; only the
   tokens that carry a payload are compared structurally *)
let equal (a : t) (b : t) =
  match (a, b) with
  | Int_lit x, Int_lit y -> Int.equal x y
  | Float_lit x, Float_lit y | Float32_lit x, Float32_lit y -> x = y
  | Ident x, Ident y | Pragma x, Pragma y -> String.equal x y
  | _ -> a == b
let pp_pos ppf p = Format.fprintf ppf "line %d, col %d" p.line p.col
