(* Fortran-style lower-bound support: declarations like
   double a[1:n][1:m] model Fortran allocatables whose dope vectors
   carry lower bounds — the t0..t2 subtractions of the paper's §IV.A
   listing. *)

module I = Safara_vir.Instr
let arch = Safara_gpu.Arch.kepler_k20xm

let test_parse_fortran_decl () =
  let src = "param int n;\ndouble a[1:n][1:64];\n#pragma acc kernels\n{ a[1][1] = 0.0; }" in
  let prog = Safara_lang.Frontend.compile src in
  let a = Safara_ir.Program.find_array prog "a" in
  match a.Safara_ir.Array_info.dims with
  | [ d0; d1 ] ->
      Alcotest.(check bool) "lb0 = 1" true (d0.Safara_ir.Dim.lower = Safara_ir.Dim.Const 1);
      Alcotest.(check bool) "ext1 = 64" true (d1.Safara_ir.Dim.extent = Safara_ir.Dim.Const 64)
  | _ -> Alcotest.fail "rank"

let fortran_src =
  {|
param int n;
param int m;
in double a[1:n][1:m];
double o[1:n][1:m];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(32)
  for (j = 1; j <= n; j++) {
    #pragma acc loop seq
    for (i = 2; i <= m; i++) {
      o[j][i] = a[j][i] * 2.0 + a[j][i-1];
    }
  }
}
|}

let test_fortran_semantics () =
  (* 1-based subscripts must hit the same dense cells a 0-based layout
     would: check against an OCaml reference *)
  let n, m = 12, 10 in
  let c = Safara_core.Compiler.compile_src Safara_core.Compiler.Base fortran_src in
  let env =
    Safara_core.Compiler.make_env c
      ~scalars:[ ("n", Safara_sim.Value.I n); ("m", Safara_sim.Value.I m) ]
  in
  let a = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "a" in
  Array.iteri (fun i _ -> a.(i) <- float_of_int i) a;
  Safara_core.Compiler.run_functional c env;
  let o = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "o" in
  (* element (j, i) with 1-based bounds lives at (j-1)*m + (i-1) *)
  let idx j i = ((j - 1) * m) + (i - 1) in
  for j = 1 to n do
    for i = 2 to m do
      let expected = (float_of_int (idx j i) *. 2.0) +. float_of_int (idx j (i - 1)) in
      if o.(idx j i) <> expected then
        Alcotest.fail (Printf.sprintf "o[%d][%d]: expected %g got %g" j i expected o.(idx j i))
    done
  done

let test_fortran_profiles_agree () =
  let run profile =
    let c = Safara_core.Compiler.compile_src profile fortran_src in
    let env =
      Safara_core.Compiler.make_env c
        ~scalars:[ ("n", Safara_sim.Value.I 8); ("m", Safara_sim.Value.I 9) ]
    in
    let a = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "a" in
    Array.iteri (fun i _ -> a.(i) <- cos (float_of_int i)) a;
    Safara_core.Compiler.run_functional c env;
    Array.copy (Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "o")
  in
  let base = run Safara_core.Compiler.Base in
  List.iter
    (fun p ->
      if run p <> base then
        Alcotest.fail (Safara_core.Compiler.profile_name p ^ " differs"))
    [ Safara_core.Compiler.Safara_only; Safara_core.Compiler.Full;
      Safara_core.Compiler.Pgi_like ]

(* the paper's §IV.A count: three same-shaped Fortran arrays need
   3 lower bounds + 2 extents each = 15 dope scalars without dim, and
   one shared set of 5 with it *)
let paper_iv_a ~dim =
  Printf.sprintf
    {|
param int nx;
param int ny;
param int nz;
double vz_1[1:nz][1:ny][1:nx];
double vz_2[1:nz][1:ny][1:nx];
double vz_3[1:nz][1:ny][1:nx];
out double value_dz[1:nz][1:ny][1:nx];
#pragma acc kernels name(k) %s
{
  #pragma acc loop gang vector(64)
  for (i = 1; i <= nx; i++) {
    #pragma acc loop seq
    for (k = 2; k <= nz; k++) {
      value_dz[k][1][i] = vz_1[k][1][i] + vz_2[k][1][i] + vz_3[k][1][i];
    }
  }
}
|}
    (if dim then "dim([1:nz][1:ny][1:nx](vz_1, vz_2, vz_3))" else "")

let dope_loads src =
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let k =
    Codegen_helper.compile_region ~arch prog
      (List.hd prog.Safara_ir.Program.regions)
  in
  Safara_vir.Kernel.count_instr k ~f:(function
    | I.Ldp { param; _ } ->
        Str_helpers.contains param ".len" || Str_helpers.contains param ".lo"
    | _ -> false)

let test_paper_15_scalars () =
  (* without dim: 3 vz arrays x (3 lowers + 2 extents) = 15, exactly
     the paper's listing; value_dz adds its own 5 *)
  Alcotest.(check int) "20 dope loads (15 for the vz group)" 20
    (dope_loads (paper_iv_a ~dim:false));
  (* with dim stating the dimensions, the group's bounds become
     compiler knowledge: the literal lower bounds fold away entirely
     (the paper's recommendation to provide complete information,
     "the compiler can simplify further the offset computation, in
     particular when the lower bound is zero") and only the two
     symbolic extents remain, plus value_dz's own 5 *)
  Alcotest.(check int) "7 dope loads (2 shared + 5)" 7 (dope_loads (paper_iv_a ~dim:true))

let test_fortran_emit_roundtrip () =
  let prog = Safara_lang.Frontend.compile fortran_src in
  let emitted = Safara_lang.Emit.program prog in
  Alcotest.(check bool) "lower bound printed" true
    (Str_helpers.contains emitted "[1:n]");
  match Safara_lang.Frontend.compile emitted with
  | _ -> ()
  | exception e -> Alcotest.fail ("reparse failed: " ^ Printexc.to_string e)

let test_runtime_verify_lower_bounds () =
  (* same extents but different lower bounds: the dim group must be
     rejected at run time *)
  let src =
    {|
param int n;
double u[1:n];
double v[0:n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(32)
  for (i = 1; i <= n; i++) {
    u[i] = 1.0;
    v[0] = 2.0;
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let r0 = List.hd prog.Safara_ir.Program.regions in
  let r =
    { r0 with Safara_ir.Region.dim_groups =
        [ { Safara_ir.Region.stated_dims = None; group_arrays = [ "u"; "v" ] } ] }
  in
  Alcotest.(check bool) "mismatched lowers rejected" true
    (Safara_transform.Clause_check.runtime_verify ~env:[ ("n", 8) ] prog r <> [])

let suite =
  [
    Alcotest.test_case "parse fortran decls" `Quick test_parse_fortran_decl;
    Alcotest.test_case "fortran semantics" `Quick test_fortran_semantics;
    Alcotest.test_case "fortran profiles agree" `Quick test_fortran_profiles_agree;
    Alcotest.test_case "paper's 15 dope scalars" `Quick test_paper_15_scalars;
    Alcotest.test_case "fortran emit roundtrip" `Quick test_fortran_emit_roundtrip;
    Alcotest.test_case "runtime lower-bound check" `Quick test_runtime_verify_lower_bounds;
  ]
