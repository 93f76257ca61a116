exception Error of Token.pos * string

type state = { src : string; mutable i : int; mutable line : int; mutable bol : int }

(* Peeking returns a plain [char], so lexing allocates nothing per
   character: past the end it reads as ['\000'], which no token
   starts with or continues. Where end of input must be told from a
   NUL in the source, [at_end] does it. *)
let at_end st = st.i >= String.length st.src

let peek st =
  if st.i < String.length st.src then String.unsafe_get st.src st.i else '\000'

let peek2 st =
  if st.i + 1 < String.length st.src then String.unsafe_get st.src (st.i + 1)
  else '\000'

let advance st =
  if peek st = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.i + 1
  end;
  st.i <- st.i + 1

let pos st = { Token.line = st.line; col = st.i - st.bol + 1 }

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let keyword = function
  | "param" -> Some Token.Kw_param
  | "int" -> Some Token.Kw_int
  | "long" -> Some Token.Kw_long
  | "float" -> Some Token.Kw_float
  | "double" -> Some Token.Kw_double
  | "for" -> Some Token.Kw_for
  | "if" -> Some Token.Kw_if
  | "else" -> Some Token.Kw_else
  | "in" -> Some Token.Kw_in
  | "out" -> Some Token.Kw_out
  | _ -> None

let lex_number st p =
  let start = st.i in
  while is_digit (peek st) do
    advance st
  done;
  let is_float = ref false in
  if peek st = '.' && is_digit (peek2 st) then begin
    is_float := true;
    advance st;
    while is_digit (peek st) do
      advance st
    done
  end
  else if peek st = '.' && peek2 st <> '.' then begin
    is_float := true;
    advance st
  end;
  (match peek st with
  | 'e' | 'E' ->
      is_float := true;
      advance st;
      (match peek st with '+' | '-' -> advance st | _ -> ());
      if not (is_digit (peek st)) then raise (Error (p, "malformed exponent"));
      while is_digit (peek st) do
        advance st
      done
  | _ -> ());
  let text = String.sub st.src start (st.i - start) in
  match peek st with
  | ('f' | 'F') when !is_float ->
      advance st;
      Token.Float32_lit (float_of_string text)
  | _ ->
      if !is_float then Token.Float_lit (float_of_string text)
      else Token.Int_lit (int_of_string text)

let lex_pragma st p =
  (* we are just past "#"; expect "pragma" then "acc"; collect the rest
     of the (possibly continued) line *)
  let read_word () =
    while peek st = ' ' || peek st = '\t' do
      advance st
    done;
    let start = st.i in
    while is_alnum (peek st) do
      advance st
    done;
    String.sub st.src start (st.i - start)
  in
  let w1 = read_word () in
  if w1 <> "pragma" then raise (Error (p, "expected #pragma"));
  let w2 = read_word () in
  if w2 <> "acc" then raise (Error (p, "expected #pragma acc"));
  let buf = Buffer.create 64 in
  let rec collect () =
    if at_end st || peek st = '\n' then ()
    else if peek st = '\\' && peek2 st = '\n' then begin
      advance st;
      advance st;
      Buffer.add_char buf ' ';
      collect ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      collect ()
    end
  in
  collect ();
  Token.Pragma (String.trim (Buffer.contents buf))

let tokenize src =
  let st = { src; i = 0; line = 1; bol = 0 } in
  let toks = ref [] in
  let emit t p = toks := (t, p) :: !toks in
  let one t p =
    advance st;
    emit t p
  in
  let two t p =
    advance st;
    one t p
  in
  let rec skip_ws_and_comments () =
    match peek st with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_ws_and_comments ()
    | '/' when peek2 st = '/' ->
        (* to the newline, which the next round skips *)
        st.i <-
          Option.value ~default:(String.length st.src)
            (String.index_from_opt st.src st.i '\n');
        skip_ws_and_comments ()
    | '/' when peek2 st = '*' ->
        let p = pos st in
        advance st;
        advance st;
        while not (peek st = '*' && peek2 st = '/') do
          if at_end st then raise (Error (p, "unterminated comment"));
          advance st
        done;
        advance st;
        advance st;
        skip_ws_and_comments ()
    | _ -> ()
  in
  let rec loop () =
    skip_ws_and_comments ();
    let p = pos st in
    if at_end st then emit Token.Eof p
    else begin
      (match peek st with
      | '#' ->
          advance st;
          emit (lex_pragma st p) p
      | c when is_digit c -> emit (lex_number st p) p
      | c when is_alpha c ->
          let start = st.i in
          while is_alnum (peek st) do
            advance st
          done;
          let text = String.sub st.src start (st.i - start) in
          emit (Option.value (keyword text) ~default:(Token.Ident text)) p
      | c -> (
          match (c, peek2 st) with
          | '+', '+' -> two Token.Plus_plus p
          | '+', '=' -> two Token.Plus_assign p
          | '-', '=' -> two Token.Minus_assign p
          | '*', '=' -> two Token.Star_assign p
          | '/', '=' -> two Token.Slash_assign p
          | '=', '=' -> two Token.Eq_eq p
          | '!', '=' -> two Token.Bang_eq p
          | '<', '=' -> two Token.Le p
          | '>', '=' -> two Token.Ge p
          | '&', '&' -> two Token.Amp_amp p
          | '|', '|' -> two Token.Bar_bar p
          | '+', _ -> one Token.Plus p
          | '-', _ -> one Token.Minus p
          | '*', _ -> one Token.Star p
          | '/', _ -> one Token.Slash p
          | '%', _ -> one Token.Percent p
          | '=', _ -> one Token.Assign p
          | '<', _ -> one Token.Lt p
          | '>', _ -> one Token.Gt p
          | '!', _ -> one Token.Bang p
          | '(', _ -> one Token.Lparen p
          | ')', _ -> one Token.Rparen p
          | '[', _ -> one Token.Lbracket p
          | ']', _ -> one Token.Rbracket p
          | '{', _ -> one Token.Lbrace p
          | '}', _ -> one Token.Rbrace p
          | ';', _ -> one Token.Semi p
          | ',', _ -> one Token.Comma p
          | ':', _ -> one Token.Colon p
          | _ -> raise (Error (p, Printf.sprintf "unexpected character %C" c))));
      loop ()
    end
  in
  loop ();
  List.rev !toks
