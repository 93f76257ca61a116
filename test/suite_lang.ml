(* Front-end tests: lexer, parser, type checker, lowering. *)

open Safara_lang
module E = Safara_ir.Expr
module S = Safara_ir.Stmt
module T = Safara_ir.Types

let token = Alcotest.testable (fun ppf t -> Fmt.string ppf (Token.to_string t)) Token.equal

let toks src = List.map fst (Lexer.tokenize src)

let test_lex_basic () =
  Alcotest.(check (list token))
    "operators"
    [ Token.Ident "a"; Token.Plus_assign; Token.Int_lit 2; Token.Star;
      Token.Ident "b"; Token.Semi; Token.Eof ]
    (toks "a += 2 * b;")

let test_lex_numbers () =
  Alcotest.(check (list token))
    "floats"
    [ Token.Float_lit 1.5; Token.Float32_lit 2.0; Token.Float_lit 3e-2;
      Token.Int_lit 42; Token.Eof ]
    (toks "1.5 2.0f 3e-2 42")

let test_lex_comments () =
  Alcotest.(check (list token))
    "comments are skipped"
    [ Token.Int_lit 1; Token.Int_lit 2; Token.Eof ]
    (toks "1 // line\n/* block\n comment */ 2")

let test_lex_pragma () =
  match toks "#pragma acc kernels name(hot1)\nx = 1;" with
  | Token.Pragma payload :: _ ->
      Alcotest.(check string) "payload" "kernels name(hot1)" payload
  | _ -> Alcotest.fail "expected a pragma token"

let test_lex_pragma_continuation () =
  match toks "#pragma acc kernels \\\n  small(a)\n" with
  | [ Token.Pragma payload; Token.Eof ] ->
      Alcotest.(check string) "continued payload" "kernels    small(a)" payload
  | _ -> Alcotest.fail "expected a single pragma token"

let test_lex_error () =
  Alcotest.check_raises "bad char"
    (Lexer.Error ({ Token.line = 1; col = 3 }, "unexpected character '@'"))
    (fun () -> ignore (Lexer.tokenize "ab@"))

let test_lex_positions () =
  let tks = Lexer.tokenize "a\n  b" in
  match tks with
  | [ (_, p1); (_, p2); _ ] ->
      Alcotest.(check int) "line 1" 1 p1.Token.line;
      Alcotest.(check int) "line 2" 2 p2.Token.line;
      Alcotest.(check int) "col 3" 3 p2.Token.col
  | _ -> Alcotest.fail "expected two tokens"

(* --- parser --- *)

let test_parse_precedence () =
  (* a + b * c parses as a + (b * c) *)
  match Parser.parse_expr "a + b * c" with
  | Ast.Bin (E.Add, Ast.Var "a", Ast.Bin (E.Mul, Ast.Var "b", Ast.Var "c")) -> ()
  | _ -> Alcotest.fail "wrong precedence for + *"

let test_parse_associativity () =
  (* a - b - c parses as (a - b) - c *)
  match Parser.parse_expr "a - b - c" with
  | Ast.Bin (E.Sub, Ast.Bin (E.Sub, Ast.Var "a", Ast.Var "b"), Ast.Var "c") -> ()
  | _ -> Alcotest.fail "subtraction must be left-associative"

let test_parse_logic_precedence () =
  (* a < b && c < d || e < f : (&&) binds tighter than (||) *)
  match Parser.parse_expr "a < b && c < d || e < f" with
  | Ast.Bin (E.Or, Ast.Bin (E.And, _, _), Ast.Bin (E.Lt, _, _)) -> ()
  | _ -> Alcotest.fail "wrong precedence for && ||"

let test_parse_cast_vs_paren () =
  (match Parser.parse_expr "(int)x" with
  | Ast.Cast (Ast.Tint, Ast.Var "x") -> ()
  | _ -> Alcotest.fail "cast not recognized");
  match Parser.parse_expr "(x)" with
  | Ast.Var "x" -> ()
  | _ -> Alcotest.fail "parenthesized expression broken"

let test_parse_array_ref () =
  match Parser.parse_expr "b[j][i-1]" with
  | Ast.Index ("b", [ Ast.Var "j"; Ast.Bin (E.Sub, Ast.Var "i", Ast.Int 1) ]) -> ()
  | _ -> Alcotest.fail "array reference parse"

let test_parse_call () =
  match Parser.parse_expr "pow(x, 2.0)" with
  | Ast.Call ("pow", [ Ast.Var "x"; Ast.Float 2.0 ]) -> ()
  | _ -> Alcotest.fail "call parse"

let fig8_src =
  {|
param int nx;
param int ny;
param int nz;
param double h;
double vz_1[nz][ny][nx];
double vz_2[nz][ny][nx];
double vz_3[nz][ny][nx];
out double value_dz[nz][ny][nx];

#pragma acc kernels name(hot1) dim([nz][ny][nx](vz_1, vz_2, vz_3)) small(vz_1, vz_2, vz_3)
{
  #pragma acc loop gang vector(2)
  for (j = 2; j <= ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx; i++) {
      #pragma acc loop seq
      for (k = 2; k <= nz; k++) {
        value_dz[k][j][i] = (vz_1[k][j][i] - vz_1[k-1][j][i]) / h
                          + (vz_2[k][j][i] - vz_2[k-1][j][i]) / h
                          + (vz_3[k][j][i] - vz_3[k-1][j][i]) / h;
      }
    }
  }
}
|}

let test_parse_fig8 () =
  let ast = Parser.parse fig8_src in
  Alcotest.(check int) "decl count" 8 (List.length ast.Ast.decls);
  Alcotest.(check int) "region count" 1 (List.length ast.Ast.regions);
  let r = List.hd ast.Ast.regions in
  Alcotest.(check (option string)) "region name" (Some "hot1") r.Ast.rname;
  Alcotest.(check int) "dim groups" 1 (List.length r.Ast.rdim);
  (match r.Ast.rdim with
  | [ (Some specs, arrays) ] ->
      Alcotest.(check int) "stated dims" 3 (List.length specs);
      Alcotest.(check (list string)) "group" [ "vz_1"; "vz_2"; "vz_3" ] arrays
  | _ -> Alcotest.fail "expected one stated dim group");
  Alcotest.(check (list string)) "small" [ "vz_1"; "vz_2"; "vz_3" ] r.Ast.rsmall

let test_parse_loop_directives () =
  let ast = Parser.parse fig8_src in
  let r = List.hd ast.Ast.regions in
  match List.map (fun (s : Ast.stmt) -> s.Ast.sdesc) r.Ast.rbody with
  | [ Ast.For fj ] -> (
      (match fj.Ast.fdirective with
      | Some { Ast.dsched = S.Gang_vector (None, Some 2); _ } -> ()
      | _ -> Alcotest.fail "outer loop directive wrong");
      match List.map (fun (s : Ast.stmt) -> s.Ast.sdesc) fj.Ast.fbody with
      | [ Ast.For fi ] -> (
          (match fi.Ast.fdirective with
          | Some { Ast.dsched = S.Gang_vector (None, Some 64); _ } -> ()
          | _ -> Alcotest.fail "middle loop directive wrong");
          match List.map (fun (s : Ast.stmt) -> s.Ast.sdesc) fi.Ast.fbody with
          | [ Ast.For fk ] -> (
              match fk.Ast.fdirective with
              | Some { Ast.dsched = S.Seq; _ } -> ()
              | _ -> Alcotest.fail "inner loop should be seq")
          | _ -> Alcotest.fail "inner loop missing")
      | _ -> Alcotest.fail "middle loop missing")
  | _ -> Alcotest.fail "outer loop missing"

let test_parse_reduction () =
  let src =
    {|
param int n;
in double a[n];

#pragma acc parallel name(dot)
{
  double sum = 0.0;
  #pragma acc loop gang vector(128) reduction(+:sum)
  for (i = 0; i < n; i++) {
    sum += a[i];
  }
}
|}
  in
  let ast = Parser.parse src in
  let r = List.hd ast.Ast.regions in
  match List.map (fun (s : Ast.stmt) -> s.Ast.sdesc) r.Ast.rbody with
  | [ Ast.Decl _; Ast.For f ] -> (
      match f.Ast.fdirective with
      | Some { Ast.dreductions = [ (S.Rplus, "sum") ]; _ } -> ()
      | _ -> Alcotest.fail "reduction clause not parsed")
  | _ -> Alcotest.fail "unexpected region body"

let test_parse_errors () =
  let expect_error src =
    match Parser.parse src with
    | exception Parser.Error _ -> ()
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("parse should have failed: " ^ src)
  in
  expect_error "param int;";
  expect_error "double a;";
  (* array without dims *)
  expect_error "#pragma acc kernels\n{ for (i = 0; j < 10; i++) { } }";
  (* mismatched index *)
  expect_error "#pragma acc kernels\n{ for (i = 0; i < 10; i--) { } }";
  expect_error "#pragma acc bogus\n{ }"

(* --- typecheck --- *)

let check_src src =
  let ast = Parser.parse src in
  Typecheck.check ast

let test_typecheck_ok () =
  match check_src fig8_src with
  | Ok () -> ()
  | Error errs ->
      Alcotest.fail (String.concat "; " (List.map Typecheck.error_message errs))

let expect_type_error fragment src =
  match check_src src with
  | Ok () -> Alcotest.fail ("expected a type error mentioning " ^ fragment)
  | Error errs ->
      let found =
        List.exists
          (fun e -> Str_helpers.contains (Typecheck.error_message e) fragment)
          errs
      in
      if not found then
        Alcotest.fail
          (Printf.sprintf "expected error about %S, got: %s" fragment
             (String.concat "; " (List.map Typecheck.error_message errs)))

let test_typecheck_unknown_ident () =
  expect_type_error "unknown identifier"
    "#pragma acc kernels\n{ double x = y + 1.0; }"

let test_typecheck_rank_mismatch () =
  expect_type_error "rank"
    "param int n;\ndouble a[n][n];\n#pragma acc kernels\n{\n#pragma acc loop gang\nfor (i=0;i<n;i++) { a[i] = 1.0; } }"

let test_typecheck_float_subscript () =
  expect_type_error "non-integer"
    "param int n;\ndouble a[n];\n#pragma acc kernels\n{ double x = 1.5; a[x] = 2.0; }"

let test_typecheck_assign_param () =
  expect_type_error "parameter"
    "param int n;\n#pragma acc kernels\n{ n = 3; }"

let test_typecheck_unknown_call () =
  expect_type_error "unknown function"
    "#pragma acc kernels\n{ double x = frobnicate(1.0); }"

let test_typecheck_bad_dim_array () =
  expect_type_error "dim clause"
    "param int n;\ndouble a[n];\n#pragma acc kernels dim((a, zz))\n{ a[0] = 1.0; }"

let test_typecheck_mod_float () =
  expect_type_error "integer operands"
    "#pragma acc kernels\n{ double x = 1.5 % 2.0; }"

(* --- lowering --- *)

let test_lower_fig8 () =
  let prog = Frontend.compile ~name:"fig8" fig8_src in
  Alcotest.(check int) "params" 4 (List.length prog.Safara_ir.Program.params);
  Alcotest.(check int) "arrays" 4 (List.length prog.Safara_ir.Program.arrays);
  let r = List.hd prog.Safara_ir.Program.regions in
  Alcotest.(check string) "name" "hot1" r.Safara_ir.Region.rname;
  (* the i loop used < nx, must be normalized to <= nx-1 *)
  match r.Safara_ir.Region.body with
  | [ S.For { body = [ S.For fi ]; _ } ] -> (
      match fi.S.hi with
      | E.Binop (E.Sub, E.Var { E.vname = "nx"; _ }, E.Int_lit (1, _)) -> ()
      | e -> Alcotest.fail ("expected nx-1 bound, got " ^ E.to_string e))
  | _ -> Alcotest.fail "loop structure lost in lowering"

let test_lower_intents () =
  let prog = Frontend.compile fig8_src in
  let a = Safara_ir.Program.find_array prog "vz_1" in
  Alcotest.(check bool) "default intent" true (a.Safara_ir.Array_info.intent = Safara_ir.Array_info.Copy);
  let o = Safara_ir.Program.find_array prog "value_dz" in
  Alcotest.(check bool) "out intent" true (o.Safara_ir.Array_info.intent = Safara_ir.Array_info.Copy_out)

let test_lower_min_max () =
  let src = "param int n;\ndouble a[n];\n#pragma acc kernels\n{ a[0] = min(1.0, max(2.0, 3.0)); }" in
  let prog = Frontend.compile src in
  let r = List.hd prog.Safara_ir.Program.regions in
  match r.Safara_ir.Region.body with
  | [ S.Assign (_, E.Binop (E.Min, _, E.Binop (E.Max, _, _))) ] -> ()
  | _ -> Alcotest.fail "min/max must lower to IR binops"

let test_lower_anonymous_region_names () =
  let src =
    "param int n;\ndouble a[n];\n#pragma acc kernels\n{ a[0] = 1.0; }\n#pragma acc kernels\n{ a[1] = 2.0; }"
  in
  let prog = Frontend.compile src in
  Alcotest.(check (list string)) "auto names" [ "k1"; "k2" ]
    (List.map (fun (r : Safara_ir.Region.t) -> r.Safara_ir.Region.rname)
       prog.Safara_ir.Program.regions)

let test_validate_catches_dim_mismatch () =
  (* two arrays with different dims in the same dim group *)
  let src =
    "param int n;\nparam int m;\ndouble a[n];\ndouble b[m];\n#pragma acc kernels dim((a, b))\n{ a[0] = b[0]; }"
  in
  match Frontend.compile src with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "mentions dims" true
        (Str_helpers.contains msg "different dimensions")
  | _ -> Alcotest.fail "validation should reject unequal dim group"

(* The token stream of every registry source and example program,
   pinned as a digest per source in test/golden/lexer.golden: the
   lexer's rewrites for speed must not change what it produces. *)
let test_lex_golden () =
  let line name src =
    let toks = Lexer.tokenize src in
    Printf.sprintf "%s %d %s\n" name (List.length toks)
      (Digest.to_hex (Digest.string (Marshal.to_string toks [ Marshal.No_sharing ])))
  in
  let workloads =
    List.map
      (fun (w : Safara_suites.Workload.t) ->
        line w.Safara_suites.Workload.id w.Safara_suites.Workload.source)
      Safara_suites.Registry.all
  in
  let examples =
    match Suite_more.sample_dir with
    | None -> Alcotest.fail "examples/programs not found"
    | Some dir ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".macc")
        |> List.sort compare
        |> List.map (fun f ->
               line ("examples/" ^ f) (Suite_more.read_file (Filename.concat dir f)))
  in
  Suite_pipeline.check_golden "lexer.golden" "token stream digests"
    (String.concat "" (workloads @ examples))

(* constant tokens compare physically, payload tokens by their
   payload: equal payloads in distinct strings are equal tokens *)
let test_token_equal () =
  let same what a b = Alcotest.(check bool) what true (Token.equal a b) in
  let differ what a b = Alcotest.(check bool) what false (Token.equal a b) in
  same "keyword" Token.Kw_for Token.Kw_for;
  differ "keywords" Token.Kw_for Token.Kw_if;
  same "identifier" (Token.Ident "x") (Token.Ident (String.make 1 'x'));
  differ "identifiers" (Token.Ident "x") (Token.Ident "y");
  same "int literal" (Token.Int_lit 3) (Token.Int_lit 3);
  differ "int literals" (Token.Int_lit 3) (Token.Int_lit 4);
  same "float literal" (Token.Float_lit 0.5) (Token.Float_lit 0.5);
  differ "float widths" (Token.Float_lit 0.5) (Token.Float32_lit 0.5);
  same "pragma" (Token.Pragma "parallel loop") (Token.Pragma ("parallel " ^ "loop"));
  differ "payload against constant" (Token.Ident "for") Token.Kw_for;
  differ "constant against payload" Token.Eof (Token.Pragma "")

let suite =
  [
    Alcotest.test_case "lex basics" `Quick test_lex_basic;
    Alcotest.test_case "lex golden token streams" `Quick test_lex_golden;
    Alcotest.test_case "lex numbers" `Quick test_lex_numbers;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex pragma" `Quick test_lex_pragma;
    Alcotest.test_case "lex pragma continuation" `Quick test_lex_pragma_continuation;
    Alcotest.test_case "lex error position" `Quick test_lex_error;
    Alcotest.test_case "lex positions" `Quick test_lex_positions;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse associativity" `Quick test_parse_associativity;
    Alcotest.test_case "parse logic precedence" `Quick test_parse_logic_precedence;
    Alcotest.test_case "parse cast vs paren" `Quick test_parse_cast_vs_paren;
    Alcotest.test_case "parse array reference" `Quick test_parse_array_ref;
    Alcotest.test_case "parse call" `Quick test_parse_call;
    Alcotest.test_case "parse fig8 kernel" `Quick test_parse_fig8;
    Alcotest.test_case "parse loop directives" `Quick test_parse_loop_directives;
    Alcotest.test_case "parse reduction" `Quick test_parse_reduction;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "typecheck fig8" `Quick test_typecheck_ok;
    Alcotest.test_case "typecheck unknown ident" `Quick test_typecheck_unknown_ident;
    Alcotest.test_case "typecheck rank mismatch" `Quick test_typecheck_rank_mismatch;
    Alcotest.test_case "typecheck float subscript" `Quick test_typecheck_float_subscript;
    Alcotest.test_case "typecheck assign to param" `Quick test_typecheck_assign_param;
    Alcotest.test_case "typecheck unknown call" `Quick test_typecheck_unknown_call;
    Alcotest.test_case "typecheck dim unknown array" `Quick test_typecheck_bad_dim_array;
    Alcotest.test_case "typecheck mod on floats" `Quick test_typecheck_mod_float;
    Alcotest.test_case "lower fig8" `Quick test_lower_fig8;
    Alcotest.test_case "lower intents" `Quick test_lower_intents;
    Alcotest.test_case "lower min/max" `Quick test_lower_min_max;
    Alcotest.test_case "lower anonymous names" `Quick test_lower_anonymous_region_names;
    Alcotest.test_case "validate dim mismatch" `Quick test_validate_catches_dim_mismatch;
    Alcotest.test_case "token equality" `Quick test_token_equal;
  ]
