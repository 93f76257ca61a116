type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

(* The bytes a JSON string cannot hold as they are: '"', '\\' and
   those below 0x20. Printer and parser both work on the runs between
   them: [plain_end s i] is the first such byte at or after [i], or
   the length of [s], found eight bytes at a time (a word holds one
   exactly when it has a byte below 0x20 or a zero byte once xored
   with '"' or '\\'). *)
let special c = c < ' ' || c = '"' || c = '\\'

let[@inline] has_below k w =
  Int64.(logand (logand (sub w (mul k 0x0101010101010101L)) (lognot w)))
    0x8080808080808080L
  <> 0L

let[@inline] word_special w =
  has_below 0x20L w
  || has_below 1L (Int64.logxor w 0x2222222222222222L)
  || has_below 1L (Int64.logxor w 0x5C5C5C5C5C5C5C5CL)

let rec plain_end s i =
  if i + 8 <= String.length s && not (word_special (String.get_int64_le s i))
  then plain_end s (i + 8)
  else if i < String.length s && not (special (String.unsafe_get s i)) then
    plain_end s (i + 1)
  else i

(* The printer sizes its buffer from the value's string lengths, an
   eighth over for escapes (source text escapes about one byte in
   thirty, its newlines), and lets it grow when a string escapes more:
   each string is scanned once, by [escape], which copies runs of
   plain bytes whole. A number prints in at most 24 bytes ("%.17g" of
   a finite double). *)
let str_room s = String.length s + (String.length s lsr 3) + 2

let rec size = function
  | Null | Bool _ -> 5
  | Num _ -> 24
  | Str s -> str_room s
  | Arr xs -> List.fold_left (fun n x -> n + 1 + size x) 2 xs
  | Obj kvs ->
      List.fold_left (fun n (k, x) -> n + 2 + str_room k + size x) 2 kvs

let rec escape b s run =
  let i = plain_end s run in
  Buffer.add_substring b s run (i - run);
  if i < String.length s then begin
    (match s.[i] with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | c ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char b "0123456789abcdef".[Char.code c land 15]);
    escape b s (i + 1)
  end

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* integral numbers below 1e15 print as "%.0f" would, -0. as "-0" *)
let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char b '-';
    add_digits b (abs (int_of_float f))
  end
  else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
  else Buffer.add_string b "null" (* JSON has no inf/nan *)

let to_string v =
  let b = Buffer.create (size v) in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> add_num b f
    | Str s ->
        Buffer.add_char b '"';
        escape b s 0;
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape b k 0;
            Buffer.add_string b "\":";
            go x)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(* a \u escape decodes to the UTF-8 encoding of its code point; the
   protocol only round-trips what our own printer emits (< 0x20), but
   be a correct decoder for the BMP anyway (a lone surrogate is
   encoded like any other code point, hence [unsafe_of_int]) *)
let uchar = Uchar.unsafe_of_int

let unescaped = function
  | 'b' -> '\b'
  | 'f' -> '\012'
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | c -> c (* '"', '\\' and '/' stand for themselves *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let fail_at i msg =
    pos := i;
    fail msg
  in
  (* the byte under the cursor; '\000' past the end *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    let rec matches i = i = l || (s.[!pos + i] = word.[i] && matches (i + 1)) in
    if !pos + l <= n && matches 0 then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal, expected " ^ word)
  in
  (* the code point of the four hex digits after the 'u' at [j] *)
  let hex4 j =
    let code = ref 0 in
    for k = j + 1 to j + 4 do
      let d =
        match s.[k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail_at j "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    !code
  in
  (* Every escaped string of the document decodes into one buffer,
     made at the first one with room for the document up to 4 KiB (a
     request's source fits): it grows to the longest of them and no
     further. *)
  let scratch = lazy (Buffer.create (min n 4096)) in
  (* [run, i) is a run of plain bytes and [i] the special byte or the
     end after it: one scan on to the closing quote copies every run,
     checks and decodes every escape, and leaves the cursor past the
     quote *)
  let rec decode b run i =
    if i >= n then fail_at n "unterminated string";
    Buffer.add_substring b s run (i - run);
    match String.unsafe_get s i with
    | '"' ->
        pos := i + 1;
        Buffer.contents b
    | '\\' -> (
        let j = i + 1 in
        if j >= n then fail_at n "unterminated escape";
        match s.[j] with
        | ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c ->
            Buffer.add_char b (unescaped c);
            decode b (j + 1) (plain_end s (j + 1))
        | 'u' ->
            if j + 4 >= n then fail_at j "truncated \\u escape";
            Buffer.add_utf_8_uchar b (uchar (hex4 j));
            decode b (j + 5) (plain_end s (j + 5))
        | c -> fail_at j (Printf.sprintf "bad escape \\%c" c))
    | _ -> fail_at i "raw control character in string"
  in
  (* a string without escapes is one run, copied out whole *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let i = plain_end s start in
    if i < n && String.unsafe_get s i = '"' then begin
      pos := i + 1;
      String.sub s start (i - start)
    end
    else begin
      let b = Lazy.force scratch in
      Buffer.clear b;
      decode b start i
    end
  in
  (* RFC 8259 numbers only: an optional minus, then 0 or a digit run
     without a leading zero, an optional fraction with at least one
     digit, an optional exponent with at least one digit; and the
     value must be finite — the printer writes inf as null *)
  let parse_number () =
    let start = !pos in
    let rec digits_end i =
      if i < n && s.[i] >= '0' && s.[i] <= '9' then digits_end (i + 1) else i
    in
    let digits () =
      let j = digits_end !pos in
      if j = !pos then fail "bad number";
      pos := j
    in
    if peek () = '-' then advance ();
    if peek () = '0' then advance () else digits ();
    if peek () = '.' then begin
      advance ();
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      advance ();
      if peek () = '+' || peek () = '-' then advance ();
      digits ()
    end;
    let f = float_of_string (String.sub s start (!pos - start)) in
    if Float.is_finite f then Num f else fail "number out of range"
  in
  (* the items of a non-empty array or object, in order *)
  let rec items item close =
    let x = item () in
    skip_ws ();
    if peek () = ',' then begin
      advance ();
      x :: items item close
    end
    else begin
      expect close;
      [ x ]
    end
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match peek () with
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else Arr (items parse_value ']')
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else Obj (items field '}')
    | _ -> parse_number ()
  and field () =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    (k, parse_value ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Builders and accessors                                              *)
(* ------------------------------------------------------------------ *)

let num f = Num f
let int i = Num (float_of_int i)
let str s = Str s

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_str ?(default = "") = function Str s -> s | _ -> default
let to_float ?(default = 0.) = function Num f -> f | _ -> default
let to_int ?(default = 0) = function
  | Num f -> int_of_float f
  | _ -> default
let to_bool ?(default = false) = function Bool b -> b | _ -> default
let to_list = function Arr xs -> xs | _ -> []
