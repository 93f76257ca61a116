(* Direct tests of the IR layer: types, dims, expressions, statements,
   array metadata, regions, and structural validation. *)

open Safara_ir
module E = Expr
module S = Stmt

let test_types_sizes () =
  Alcotest.(check int) "f64 bytes" 8 (Types.size_bytes Types.F64);
  Alcotest.(check int) "i32 bytes" 4 (Types.size_bytes Types.I32);
  Alcotest.(check int) "f64 regs" 2 (Types.registers Types.F64);
  Alcotest.(check int) "f32 regs" 1 (Types.registers Types.F32);
  Alcotest.(check bool) "i64 is 64-bit" true (Types.is_64bit Types.I64);
  Alcotest.(check bool) "bool not float" false (Types.is_float Types.Bool)

let test_types_join () =
  Alcotest.(check bool) "i32+f32" true (Types.join Types.I32 Types.F32 = Types.F32);
  Alcotest.(check bool) "i64+f32 widens to f64" true
    (Types.join Types.I64 Types.F32 = Types.F64);
  Alcotest.(check bool) "i32+i64" true (Types.join Types.I32 Types.I64 = Types.I64);
  Alcotest.(check bool) "f64 absorbs" true (Types.join Types.F64 Types.I32 = Types.F64)

let test_dim_static () =
  Alcotest.(check bool) "const static" true (Dim.is_static (Dim.const 64));
  Alcotest.(check bool) "sym dynamic" false (Dim.is_static (Dim.dyn "n"));
  Alcotest.(check bool) "equal consts" true (Dim.equal (Dim.const 8) (Dim.const 8));
  Alcotest.(check bool) "const vs sym" false (Dim.equal (Dim.const 8) (Dim.dyn "n"));
  Alcotest.(check bool) "same sym" true (Dim.equal (Dim.dyn "n") (Dim.dyn "n"))

let test_array_info () =
  let a = Array_info.make "a" Types.F64 [ Dim.dyn "n"; Dim.const 32 ] in
  Alcotest.(check int) "rank" 2 (Array_info.rank a);
  Alcotest.(check bool) "not static" false (Array_info.is_static a);
  Alcotest.(check (option int)) "no static size" None (Array_info.static_size a);
  Alcotest.(check (list string)) "dope syms" [ "n" ] (Array_info.dope_symbols a);
  let b = Array_info.make "b" Types.F32 [ Dim.const 8; Dim.const 8 ] in
  Alcotest.(check (option int)) "static size" (Some 64) (Array_info.static_size b);
  Alcotest.(check bool) "dims differ" false (Array_info.dims_equal a b)

let test_expr_helpers () =
  let e = E.(var "i" + int 1) in
  Alcotest.(check (list string)) "no arrays" [] (E.arrays_used e);
  let e2 = E.(load "a" [ var "i" ] * load "b" [ var "j" ]) in
  Alcotest.(check (list string)) "arrays in order" [ "a"; "b" ] (E.arrays_used e2);
  let vars = E.fold_vars (fun v acc -> v :: acc) e2 [] in
  Alcotest.(check bool) "vars found" true (List.mem "i" vars && List.mem "j" vars)

let test_expr_subst () =
  let e = E.(load "a" [ var "k" + int 1 ]) in
  let e' = E.subst_var "k" (E.int 5) e in
  (match e' with
  | E.Load ("a", [ E.Binop (E.Add, E.Int_lit (5, _), E.Int_lit (1, _)) ]) -> ()
  | _ -> Alcotest.fail "substitution failed");
  (* substitution does not capture other variables *)
  let e'' = E.subst_var "m" (E.int 0) e in
  Alcotest.(check bool) "no change" true (E.equal e e'')

let test_expr_typeof () =
  let elem = function "a" -> Types.F64 | _ -> Types.F32 in
  Alcotest.(check bool) "load type" true
    (E.typeof ~elem (E.load "a" [ E.int 0 ]) = Types.F64);
  Alcotest.(check bool) "comparison is bool" true
    (E.typeof ~elem E.(var "i" < int 3) = Types.Bool);
  Alcotest.(check bool) "mixed arith joins" true
    (E.typeof ~elem E.(load "a" [ E.int 0 ] + var "i") = Types.F64)

let test_stmt_collectors () =
  let body =
    [
      S.assign "a" [ E.var "i" ] E.(load "b" [ var "i" ] + load "b" [ var "i" + int 1 ]);
      S.for_ "k" (E.int 0) (E.int 7)
        [ S.assign "c" [ E.var "k" ] (E.load "a" [ E.var "k" ]) ];
    ]
  in
  Alcotest.(check int) "loads" 3 (List.length (S.loads body));
  Alcotest.(check int) "stores" 2 (List.length (S.stores body));
  Alcotest.(check (list string)) "stored arrays" [ "a"; "c" ] (S.stored_arrays body);
  Alcotest.(check int) "depth" 1 (S.loop_depth body);
  Alcotest.(check bool) "i read" true (List.mem "i" (S.scalars_read body))

let test_stmt_map_exprs () =
  let body = [ S.assign "a" [ E.var "i" ] (E.load "b" [ E.var "i" ]) ] in
  let body' = S.map_exprs (E.subst_var "i" (E.int 3)) body in
  match body' with
  | [ S.Assign (S.Larray ("a", [ E.Int_lit (3, _) ]), E.Load ("b", [ E.Int_lit (3, _) ])) ] -> ()
  | _ -> Alcotest.fail "map_exprs must rewrite subscripts and rhs"

let test_region_read_only () =
  let r =
    Region.make "k"
      [
        S.assign "a" [ E.var "i" ] E.(load "b" [ var "i" ] * load "c" [ var "i" ]);
        S.assign "c" [ E.var "i" ] (E.int 0);
      ]
  in
  Alcotest.(check (list string)) "referenced" [ "b"; "c"; "a" ]
    (Region.referenced_arrays r);
  Alcotest.(check (list string)) "read-only" [ "b" ] (Region.read_only_arrays r)

let test_region_clause_lookup () =
  let r =
    Region.make
      ~dim_groups:
        [ { Region.stated_dims = None; group_arrays = [ "x"; "y" ] };
          { Region.stated_dims = None; group_arrays = [ "z" ] } ]
      ~small:[ "x" ] "k" []
  in
  Alcotest.(check (option int)) "x in group 0" (Some 0) (Region.dim_group_of r "x");
  Alcotest.(check (option int)) "z in group 1" (Some 1) (Region.dim_group_of r "z");
  Alcotest.(check (option int)) "w nowhere" None (Region.dim_group_of r "w");
  Alcotest.(check bool) "x small" true (Region.is_small r "x");
  Alcotest.(check bool) "z not small" false (Region.is_small r "z")

let test_program_lookup () =
  let p =
    Program.make
      ~params:[ { E.vname = "n"; vtype = Types.I32 } ]
      ~arrays:[ Array_info.make "a" Types.F64 [ Dim.dyn "n" ] ]
      "p"
      [ Region.make "k" [ S.assign "a" [ E.int 0 ] (E.float 1.0) ] ]
  in
  Alcotest.(check bool) "find array" true (Program.find_array_opt p "a" <> None);
  Alcotest.(check bool) "missing array" true (Program.find_array_opt p "zz" = None);
  Alcotest.(check bool) "elem type" true (Program.elem_type p "a" = Types.F64);
  Alcotest.(check (list string)) "params" [ "n" ] (Program.param_names p)

let expect_invalid what p =
  match Validate.check p with
  | [] -> Alcotest.fail ("validation should reject: " ^ what)
  | _ -> ()

let test_validate_rejections () =
  let arr = Array_info.make "a" Types.F64 [ Dim.dyn "n" ] in
  let params = [ { E.vname = "n"; vtype = Types.I32 } ] in
  (* unknown array *)
  expect_invalid "unknown array"
    (Program.make ~params ~arrays:[ arr ] "p"
       [ Region.make "k" [ S.assign "zz" [ E.int 0 ] (E.float 1.) ] ]);
  (* wrong rank *)
  expect_invalid "wrong rank"
    (Program.make ~params ~arrays:[ arr ] "p"
       [ Region.make "k" [ S.assign "a" [ E.int 0; E.int 0 ] (E.float 1.) ] ]);
  (* undefined scalar *)
  expect_invalid "undefined scalar"
    (Program.make ~params ~arrays:[ arr ] "p"
       [ Region.make "k" [ S.assign "a" [ E.var "mystery" ] (E.float 1.) ] ]);
  (* duplicate region names *)
  expect_invalid "duplicate regions"
    (Program.make ~params ~arrays:[ arr ] "p"
       [ Region.make "k" [ S.assign "a" [ E.int 0 ] (E.float 1.) ];
         Region.make "k" [ S.assign "a" [ E.int 1 ] (E.float 2.) ] ]);
  (* index shadowing *)
  expect_invalid "shadowed index"
    (Program.make ~params ~arrays:[ arr ] "p"
       [
         Region.make "k"
           [
             S.for_ "i" (E.int 0) (E.int 3)
               [ S.for_ "i" (E.int 0) (E.int 3) [ S.assign "a" [ E.var "i" ] (E.float 1.) ] ];
           ];
       ]);
  (* parallel loop under a sequential loop *)
  expect_invalid "parallel under seq"
    (Program.make ~params ~arrays:[ arr ] "p"
       [
         Region.make "k"
           [
             S.for_ ~sched:S.Seq "i" (E.int 0) (E.int 3)
               [
                 S.for_ ~sched:(S.Gang None) "j" (E.int 0) (E.int 3)
                   [ S.assign "a" [ E.var "j" ] (E.float 1.) ];
               ];
           ];
       ])

let test_validate_accepts () =
  let arr = Array_info.make "a" Types.F64 [ Dim.dyn "n" ] in
  let params = [ { E.vname = "n"; vtype = Types.I32 } ] in
  let p =
    Program.make ~params ~arrays:[ arr ] "p"
      [
        Region.make "k"
          [
            S.for_ ~sched:(S.Gang_vector (None, Some 64)) "i" (E.int 0)
              E.(var "n" - int 1)
              [
                S.Local ({ E.vname = "t"; vtype = Types.F64 }, Some (E.float 0.));
                S.assign "a" [ E.var "i" ] (E.var ~ty:Types.F64 "t");
              ];
          ];
      ]
  in
  Alcotest.(check int) "valid" 0 (List.length (Validate.check p))

(* every check at once, with the scope rules that matter: a param
   reused as a loop index shadows nothing, an index shadowing an outer
   one does; a local or assigned scalar lives to the end of its
   statement list, not past an if branch or the end of the loop body.
   Pinned verbatim after [Diag.sort]. *)
let test_validate_messages () =
  let t = { E.vname = "t"; vtype = Types.F64 } in
  let f64 = E.var ~ty:Types.F64 in
  let p =
    Program.make
      ~params:[ { E.vname = "n"; vtype = Types.I32 } ]
      ~arrays:
        [ Array_info.make "a" Types.F64 [ Dim.dyn "n" ];
          Array_info.make "b" Types.F64 [ Dim.dyn "n"; Dim.dyn "n" ] ]
      "p"
      [
        Region.make "k"
          [
            S.for_ ~sched:S.Seq "n" (E.int 0) (E.var "n")
              [
                S.If
                  ( E.(var "n" < int 3),
                    [ S.Local (t, Some (E.float 0.)); S.assign_var ~ty:Types.F64 "u" (f64 "t") ],
                    [ S.assign "a" [ E.var "n" ] (f64 "t") ] );
                S.assign "a" [ E.load "zz" [ E.load "b" [ E.var "q" ] ] ] (f64 "u");
                S.for_ ~sched:(S.Gang None) "n" (E.int 0) (E.var "m")
                  [ S.assign "a" [ E.var "n" ] (E.load "a" [ E.var "q"; E.var "q" ]) ];
              ];
            S.assign "a" [ E.var "n" ] (f64 "t");
          ];
        Region.make "k" [ S.assign "a" [ E.int 0 ] (E.float 1.) ];
      ]
  in
  Alcotest.(check (list string))
    "sorted diagnostics"
    [
      "program: duplicate region name k";
      "region k: array a has rank 1 but is used with 2 subscripts";
      "region k: array b has rank 2 but is used with 1 subscripts";
      "region k: array zz is not declared";
      "region k: loop index n shadows an enclosing binding";
      "region k: parallel loop on n nested inside a sequential loop";
      "region k: scalar m read before definition";
      "region k: scalar q read before definition";
      "region k: scalar q read before definition";
      "region k: scalar q read before definition";
      "region k: scalar t read before definition";
      "region k: scalar t read before definition";
      "region k: scalar u read before definition";
    ]
    (List.map
       (fun (d : Safara_diag.Diagnostic.t) -> d.where ^ ": " ^ d.message)
       (Validate.check p))

let suite =
  [
    Alcotest.test_case "types sizes" `Quick test_types_sizes;
    Alcotest.test_case "types join" `Quick test_types_join;
    Alcotest.test_case "dims" `Quick test_dim_static;
    Alcotest.test_case "array info" `Quick test_array_info;
    Alcotest.test_case "expr helpers" `Quick test_expr_helpers;
    Alcotest.test_case "expr substitution" `Quick test_expr_subst;
    Alcotest.test_case "expr typing" `Quick test_expr_typeof;
    Alcotest.test_case "stmt collectors" `Quick test_stmt_collectors;
    Alcotest.test_case "stmt map_exprs" `Quick test_stmt_map_exprs;
    Alcotest.test_case "region read-only" `Quick test_region_read_only;
    Alcotest.test_case "region clause lookup" `Quick test_region_clause_lookup;
    Alcotest.test_case "program lookup" `Quick test_program_lookup;
    Alcotest.test_case "validation rejections" `Quick test_validate_rejections;
    Alcotest.test_case "validation accepts" `Quick test_validate_accepts;
    Alcotest.test_case "validation messages" `Quick test_validate_messages;
  ]
