(* Additional coverage: sample programs, more front-end corner cases,
   interpreter arithmetic against OCaml references, mapping with three
   axes, and dependence corner cases. *)

module E = Safara_ir.Expr
module S = Safara_ir.Stmt
module M = Safara_gpu.Memspace

let arch = Safara_gpu.Arch.kepler_k20xm

(* --- shipped sample programs must keep compiling --------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let sample_dir =
  (* tests run from the dune sandbox; samples are reached relative to
     the workspace root *)
  List.find_opt Sys.file_exists
    [ "../examples/programs"; "examples/programs"; "../../examples/programs";
      "../../../examples/programs" ]

let test_samples_compile () =
  match sample_dir with
  | None -> () (* samples not visible from the sandbox: skip *)
  | Some dir ->
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".macc" then
            let src = read_file (Filename.concat dir f) in
            List.iter
              (fun p -> ignore (Safara_core.Compiler.compile_src p src))
              Safara_core.Compiler.all_profiles)
        (Sys.readdir dir)

(* --- front-end corner cases ----------------------------------------- *)

let test_compound_assignment_desugars () =
  let src =
    "param int n;\ndouble a[n];\n#pragma acc kernels\n{ a[0] = 1.0; a[0] *= 2.0; }"
  in
  let prog = Safara_lang.Frontend.compile src in
  let r = List.hd prog.Safara_ir.Program.regions in
  match r.Safara_ir.Region.body with
  | [ _; S.Assign (_, E.Binop (E.Mul, E.Load ("a", _), E.Float_lit (2.0, _))) ] -> ()
  | _ -> Alcotest.fail "*= must desugar to a load-multiply"

let test_else_binds_to_nearest_if () =
  let src =
    {|
param int n;
double a[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    if (i < 5)
      if (i < 2) {
        a[i] = 1.0;
      } else {
        a[i] = 2.0;
      }
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let r = List.hd prog.Safara_ir.Program.regions in
  (* the else must belong to the inner if: the outer if has no else *)
  let ok = ref false in
  S.iter
    (fun s ->
      match s with
      | S.If (_, [ S.If (_, _, inner_else) ], outer_else) ->
          if inner_else <> [] && outer_else = [] then ok := true
      | _ -> ())
    r.Safara_ir.Region.body;
  Alcotest.(check bool) "dangling else" true !ok

let test_typecheck_pow_arity () =
  let src = "#pragma acc kernels\n{ double x = pow(2.0); }" in
  match Safara_lang.Typecheck.check (Safara_lang.Parser.parse src) with
  | Error errs ->
      Alcotest.(check bool) "arity error" true
        (List.exists
           (fun e ->
             Str_helpers.contains (Safara_lang.Typecheck.error_message e)
               "expects 2")
           errs)
  | Ok () -> Alcotest.fail "pow/1 must be rejected"

let test_parse_all_casts () =
  List.iter
    (fun (txt, ty) ->
      match Safara_lang.Parser.parse_expr txt with
      | Safara_lang.Ast.Cast (t, _) when t = ty -> ()
      | _ -> Alcotest.fail ("cast parse failed: " ^ txt))
    [ ("(int)x", Safara_lang.Ast.Tint); ("(long)x", Safara_lang.Ast.Tlong);
      ("(float)x", Safara_lang.Ast.Tfloat); ("(double)x", Safara_lang.Ast.Tdouble) ]

let test_pragma_unknown_clause_rejected () =
  let src = "param int n;\ndouble a[n];\n#pragma acc kernels frobnicate(a)\n{ a[0] = 1.0; }" in
  match Safara_lang.Parser.parse src with
  | exception Safara_lang.Parser.Error _ -> ()
  | _ -> Alcotest.fail "unknown region clause must be a syntax error"

(* --- interpreter arithmetic vs OCaml -------------------------------- *)

let run_scalar_expr body =
  let src =
    Printf.sprintf
      "param int n;\nin double x[n];\ndouble res[n];\n#pragma acc kernels\n{\n#pragma acc loop gang vector(32)\nfor (i = 0; i <= n - 1; i++) { res[i] = %s; } }"
      body
  in
  let c = Safara_core.Compiler.compile_src Safara_core.Compiler.Base src in
  let env = Safara_core.Compiler.make_env c ~scalars:[ ("n", Safara_sim.Value.I 8) ] in
  let x = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "x" in
  Array.iteri (fun i _ -> x.(i) <- 0.25 +. (0.5 *. float_of_int i)) x;
  Safara_core.Compiler.run_functional c env;
  (Array.copy x, Array.copy (Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "res"))

let check_elementwise name body f =
  let x, out = run_scalar_expr body in
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float (f v) <> Int64.bits_of_float out.(i) then
        Alcotest.fail
          (Printf.sprintf "%s at %d: expected %.17g got %.17g" name i (f v) out.(i)))
    x

let test_interp_intrinsics () =
  check_elementwise "sqrt" "sqrt(x[i])" sqrt;
  check_elementwise "exp" "exp(x[i])" exp;
  check_elementwise "log" "log(x[i])" log;
  check_elementwise "sin" "sin(x[i])" sin;
  check_elementwise "cos" "cos(x[i])" cos;
  check_elementwise "fabs" "fabs(0.0 - x[i])" Float.abs;
  check_elementwise "floor" "floor(x[i])" Float.floor;
  check_elementwise "pow" "pow(x[i], 3.0)" (fun v -> Float.pow v 3.0)

let test_interp_min_max_div () =
  check_elementwise "min" "min(x[i], 1.0)" (fun v -> Float.min v 1.0);
  check_elementwise "max" "max(x[i], 1.0)" (fun v -> Float.max v 1.0);
  check_elementwise "div" "x[i] / 0.3" (fun v -> v /. 0.3)

let test_interp_int_ops () =
  let src =
    {|
param int n;
double o[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    int q = i / 3;
    int r = i % 3;
    o[i] = (double)(q * 10 + r);
  }
}
|}
  in
  let c = Safara_core.Compiler.compile_src Safara_core.Compiler.Base src in
  let env = Safara_core.Compiler.make_env c ~scalars:[ ("n", Safara_sim.Value.I 10) ] in
  Safara_core.Compiler.run_functional c env;
  let o = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "o" in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.)) (Printf.sprintf "o[%d]" i)
        (float_of_int (((i / 3) * 10) + (i mod 3)))
        v)
    o

let test_atomic_min_max () =
  let src op init =
    Printf.sprintf
      {|
param int n;
in double x[n];
double r[1];
#pragma acc kernels name(seed)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= 0; i++) {
    r[0] = %s;
  }
}
#pragma acc kernels name(fold)
{
  double acc = %s;
  #pragma acc loop gang vector(32) reduction(%s:acc)
  for (i = 0; i <= n - 1; i++) {
    acc = %s(acc, x[i]);
  }
  r[0] = acc;
}
|}
      init init op op
  in
  let run op init =
    let c = Safara_core.Compiler.compile_src Safara_core.Compiler.Base (src op init) in
    let env = Safara_core.Compiler.make_env c ~scalars:[ ("n", Safara_sim.Value.I 50) ] in
    let x = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "x" in
    Array.iteri (fun i _ -> x.(i) <- sin (float_of_int (i * 13))) x;
    Safara_core.Compiler.run_functional c env;
    ((Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "r").(0), Array.copy x)
  in
  let got_min, x = run "min" "1000.0" in
  Alcotest.(check (float 0.)) "min" (Array.fold_left Float.min 1000.0 x) got_min;
  let got_max, x = run "max" "(0.0 - 1000.0)" in
  Alcotest.(check (float 0.)) "max" (Array.fold_left Float.max (-1000.0) x) got_max

(* --- three-axis mapping ---------------------------------------------- *)

let test_three_axis_mapping () =
  let src =
    {|
param int n;
double a[n][n][n];
#pragma acc kernels
{
  #pragma acc loop gang
  for (k = 0; k <= n - 1; k++) {
    #pragma acc loop gang vector(4)
    for (j = 0; j <= n - 1; j++) {
      #pragma acc loop gang vector(32)
      for (i = 0; i <= n - 1; i++) {
        a[k][j][i] = 1.0;
      }
    }
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let r = List.hd prog.Safara_ir.Program.regions in
  let m = Safara_analysis.Mapping.of_region r in
  Alcotest.(check (option string)) "x" (Some "i") (Safara_analysis.Mapping.x_index m);
  Alcotest.(check int) "three mapped loops" 3
    (List.length m.Safara_analysis.Mapping.loops);
  (* functional check: every cell written exactly once *)
  let c = Safara_core.Compiler.compile Safara_core.Compiler.Base prog in
  let env = Safara_core.Compiler.make_env c ~scalars:[ ("n", Safara_sim.Value.I 8) ] in
  Safara_core.Compiler.run_functional c env;
  Alcotest.(check (float 0.)) "512 writes" 512.0
    (Safara_sim.Memory.checksum env.Safara_sim.Interp.mem "a")

let test_four_parallel_loops_rejected () =
  let src =
    {|
param int n;
double a[n][n][n][n];
#pragma acc kernels
{
  #pragma acc loop gang
  for (l = 0; l <= n - 1; l++) {
    #pragma acc loop gang
    for (k = 0; k <= n - 1; k++) {
      #pragma acc loop gang
      for (j = 0; j <= n - 1; j++) {
        #pragma acc loop vector(32)
        for (i = 0; i <= n - 1; i++) {
          a[l][k][j][i] = 1.0;
        }
      }
    }
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  match Safara_analysis.Mapping.of_region (List.hd prog.Safara_ir.Program.regions) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "four nested parallel loops must be rejected"

(* --- emit round-trips every benchmark program ------------------------ *)

let test_emit_all_workloads () =
  List.iter
    (fun (w : Safara_suites.Workload.t) ->
      let prog = Safara_lang.Frontend.compile w.Safara_suites.Workload.source in
      let emitted = Safara_lang.Emit.program prog in
      match Safara_lang.Frontend.compile emitted with
      | _ -> ()
      | exception e ->
          Alcotest.fail
            (w.Safara_suites.Workload.id ^ " emit does not reparse: "
           ^ Printexc.to_string e))
    Safara_suites.Registry.all

(* --- runtime guards --------------------------------------------------- *)

let test_interp_fuel () =
  (* a missing loop increment cannot be written in MiniACC (the parser
     forces i++), so exhaust fuel with a huge legitimate trip count *)
  let src =
    "param int n;\ndouble a[1];\n#pragma acc kernels\n{\n#pragma acc loop seq\nfor (i = 0; i <= n - 1; i++) { a[0] = a[0] + 1.0; } }"
  in
  let c = Safara_core.Compiler.compile_src Safara_core.Compiler.Base src in
  let env =
    Safara_core.Compiler.make_env c ~scalars:[ ("n", Safara_sim.Value.I 1000000) ]
  in
  let saved = !Safara_sim.Interp.max_steps_per_thread in
  Safara_sim.Interp.max_steps_per_thread := 1000;
  let result =
    try
      Safara_core.Compiler.run_functional c env;
      `Finished
    with Failure _ -> `Fuel
  in
  Safara_sim.Interp.max_steps_per_thread := saved;
  Alcotest.(check bool) "fuel guard fired" true (result = `Fuel)

let test_memory_guards () =
  let m = Safara_sim.Memory.create () in
  Safara_sim.Memory.alloc m ~name:"x" ~elem:Safara_ir.Types.F64 ~length:4;
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "memory: duplicate x") (fun () ->
      Safara_sim.Memory.alloc m ~name:"x" ~elem:Safara_ir.Types.F64 ~length:4);
  Alcotest.check_raises "nonpositive length"
    (Invalid_argument "memory: nonpositive length for y") (fun () ->
      Safara_sim.Memory.alloc m ~name:"y" ~elem:Safara_ir.Types.F64 ~length:0);
  Alcotest.(check bool) "wrong payload view" true
    (try
       ignore (Safara_sim.Memory.int_data m "x");
       false
     with Invalid_argument _ -> true)

(* --- dependence corner cases ----------------------------------------- *)

let body_of src =
  let prog = Safara_lang.Frontend.compile src in
  (List.hd prog.Safara_ir.Program.regions).Safara_ir.Region.body

let test_anti_dependence () =
  (* read a[i+1] before writing a[i]: anti dependence, distance 1 *)
  let src =
    "param int n;\ndouble a[n];\n#pragma acc kernels\n{ for (i = 0; i <= n - 2; i++) { a[i] = a[i+1] * 0.5; } }"
  in
  let deps = Safara_analysis.Dependence.region_deps (body_of src) in
  Alcotest.(check bool) "anti dep found" true
    (List.exists
       (fun d -> d.Safara_analysis.Dependence.d_kind = Safara_analysis.Dependence.Anti)
       deps)

let test_gcd_reject () =
  (* a[2*i] vs a[2*i+1]: GCD 2 does not divide 1 — independent *)
  let src =
    "param int n;\ndouble a[n];\n#pragma acc kernels\n{ for (i = 0; i <= n/2 - 1; i++) { a[2*i+1] = a[2*i] + 1.0; } }"
  in
  Alcotest.(check int) "independent" 0
    (List.length (Safara_analysis.Dependence.region_deps (body_of src)))

let test_symbolic_rest_conservative () =
  (* a[i+m] vs a[i]: m unknown — must be a (conservative) dependence *)
  let src =
    "param int n;\nparam int m;\ndouble a[n];\n#pragma acc kernels\n{ for (i = 0; i <= n - 1; i++) { a[i] = a[i+m] * 0.5; } }"
  in
  let deps = Safara_analysis.Dependence.region_deps (body_of src) in
  Alcotest.(check bool) "conservative dep" true (deps <> []);
  Alcotest.(check bool) "loop stays serial" false
    (Suite_analysis.parallel (body_of src) "i")

let suite =
  [
    Alcotest.test_case "sample programs compile" `Quick test_samples_compile;
    Alcotest.test_case "compound assignment desugars" `Quick test_compound_assignment_desugars;
    Alcotest.test_case "dangling else" `Quick test_else_binds_to_nearest_if;
    Alcotest.test_case "pow arity" `Quick test_typecheck_pow_arity;
    Alcotest.test_case "all casts parse" `Quick test_parse_all_casts;
    Alcotest.test_case "unknown clause rejected" `Quick test_pragma_unknown_clause_rejected;
    Alcotest.test_case "interp intrinsics vs OCaml" `Quick test_interp_intrinsics;
    Alcotest.test_case "interp min/max/div" `Quick test_interp_min_max_div;
    Alcotest.test_case "interp integer ops" `Quick test_interp_int_ops;
    Alcotest.test_case "atomic min/max reductions" `Quick test_atomic_min_max;
    Alcotest.test_case "three-axis mapping" `Quick test_three_axis_mapping;
    Alcotest.test_case "four parallel loops rejected" `Quick test_four_parallel_loops_rejected;
    Alcotest.test_case "emit all workloads" `Quick test_emit_all_workloads;
    Alcotest.test_case "interpreter fuel guard" `Quick test_interp_fuel;
    Alcotest.test_case "memory guards" `Quick test_memory_guards;
    Alcotest.test_case "anti dependence" `Quick test_anti_dependence;
    Alcotest.test_case "GCD independence" `Quick test_gcd_reject;
    Alcotest.test_case "symbolic distance conservative" `Quick test_symbolic_rest_conservative;
  ]
