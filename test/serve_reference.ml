(* The compile service's codec and report render as they were before
   the run-scanning rewrite: a printer that escapes one character at a
   time into a doubling [Buffer], a parser whose cursor returns a
   [char option] per character, and a compile report rendered through
   a [Format] formatter over a 4 KiB buffer. The serve suite checks
   the production [Sjson] against this codec byte for byte and error
   message for error message, and counts the words a warm request
   allocates through each. *)

open Safara_json.Sjson

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
  else Buffer.add_string b "null" (* JSON has no inf/nan *)

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> add_num b f
    | Str s ->
        Buffer.add_char b '"';
        escape b s;
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
            escape b k;
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

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("bad literal, expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code = ref 0 in
              for j = !pos + 1 to !pos + 4 do
                let d =
                  match s.[j] with
                  | '0' .. '9' as c -> Char.code c - Char.code '0'
                  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                  | _ -> fail "bad \\u escape"
                in
                code := (!code lsl 4) lor d
              done;
              let code = !code in
              (* encode the code point as UTF-8; the protocol only
                 round-trips what our own printer emits (< 0x20), but
                 be a correct decoder for the BMP anyway *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          advance ();
          go ()
      | '\000' .. '\031' -> fail "raw control character in string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* RFC 8259 numbers only: an optional minus, then 0 or a digit run
     without a leading zero, an optional fraction with at least one
     digit, an optional exponent with at least one digit; and the
     value must be finite — the printer writes inf as null *)
  let parse_number () =
    let start = !pos in
    let cur () = if !pos < n then s.[!pos] else '\000' in
    let rec digits_end i =
      if i < n && s.[i] >= '0' && s.[i] <= '9' then digits_end (i + 1) else i
    in
    let digits () =
      let j = digits_end !pos in
      if j = !pos then fail "bad number";
      pos := j
    in
    if cur () = '-' then advance ();
    if cur () = '0' then advance () else digits ();
    if cur () = '.' then begin
      advance ();
      digits ()
    end;
    if cur () = 'e' || cur () = 'E' then begin
      advance ();
      if cur () = '+' || cur () = '-' then advance ();
      digits ()
    end;
    let f = float_of_string (String.sub s start (!pos - start)) in
    if Float.is_finite f then Num f else fail "number out of range"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := field () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* a quiet compile request answered through the engine's cache, its
   reports rendered through a formatter *)
let compile eng (r : Safara_serve.Protocol.compile_req) =
  let c =
    Safara_suites.Eval.compile_src eng
      ~arch:(Safara_serve.Commands.arch_of r.cr_arch)
      ~disable:r.cr_disable
      (Safara_serve.Commands.profile_of r.cr_profile)
      r.cr_src
  in
  let b = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer b in
  List.iter
    (fun (_, (r : Safara_ptxas.Assemble.report)) ->
      Format.fprintf fmt
        "ptxas info: %s: %d registers, %d predicates, %d bytes spill (%d loads, %d stores), %d instructions@.@."
        r.kernel_name r.regs_used r.pred_regs r.spill_bytes r.spill_loads
        r.spill_stores r.instructions)
    c.Safara_core.Compiler.c_kernels;
  Format.pp_print_flush fmt ();
  { Safara_serve.Protocol.out = Buffer.contents b; err = ""; code = 0 }
