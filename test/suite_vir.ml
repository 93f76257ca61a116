(* Code-generation tests: kernel structure, addressing (dope vectors,
   dim/small), including the paper's §IV.A offset-temporary example. *)

module I = Safara_vir.Instr
module K = Safara_vir.Kernel
let arch = Safara_gpu.Arch.kepler_k20xm

let compile_first src =
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  (prog, Codegen_helper.compile_region ~arch prog (List.hd prog.Safara_ir.Program.regions))

let fig8 ~small ~dim =
  Printf.sprintf
    {|
param int nx;
param int ny;
param int nz;
param double h;
double vz_1[nz][ny][nx];
double vz_2[nz][ny][nx];
double vz_3[nz][ny][nx];
out double value_dz[nz][ny][nx];
#pragma acc kernels name(hot1) %s %s
{
  #pragma acc loop gang vector(2)
  for (j = 2; j <= ny - 1; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx; i++) {
      #pragma acc loop seq
      for (k = 2; k <= nz - 1; k++) {
        value_dz[k][j][i] = (vz_1[k][j][i] - vz_1[k-1][j][i]) / h
                          + (vz_2[k][j][i] - vz_2[k-1][j][i]) / h
                          + (vz_3[k][j][i] - vz_3[k-1][j][i]) / h;
      }
    }
  }
}
|}
    (if dim then "dim([nz][ny][nx](vz_1, vz_2, vz_3))" else "")
    (if small then "small(vz_1, vz_2, vz_3, value_dz)" else "")

let count code p = Array.fold_left (fun n i -> if p i then n + 1 else n) 0 code

let test_block_geometry () =
  let _, k = compile_first (fig8 ~small:false ~dim:false) in
  Alcotest.(check (list int)) "block" [ 64; 2; 1 ]
    (let x, y, z = k.K.block in
     [ x; y; z ])

let test_axes () =
  let _, k = compile_first (fig8 ~small:false ~dim:false) in
  Alcotest.(check int) "two mapped axes" 2 (List.length k.K.axes);
  let names = List.map (fun a -> a.K.ax_index) k.K.axes in
  Alcotest.(check bool) "i and j mapped" true
    (List.mem "i" names && List.mem "j" names)

let test_dope_params_per_array_without_dim () =
  (* each of the four 3D dynamic arrays contributes two extent params *)
  let _, k = compile_first (fig8 ~small:false ~dim:false) in
  let dope =
    List.filter (fun n -> Str_helpers.contains n ".len") (K.param_names k)
  in
  Alcotest.(check int) "8 dope params" 8 (List.length dope)

let test_dope_params_shared_with_dim () =
  (* the three vz arrays share one descriptor; value_dz keeps its own *)
  let _, k = compile_first (fig8 ~small:false ~dim:true) in
  let dope =
    List.filter (fun n -> Str_helpers.contains n ".len") (K.param_names k)
  in
  Alcotest.(check int) "4 dope params" 4 (List.length dope)

let test_small_reduces_cvt () =
  (* 64-bit offsets convert each 32-bit subscript; small mode keeps one
     widening conversion per address *)
  let _, k64 = compile_first (fig8 ~small:false ~dim:false) in
  let _, k32 = compile_first (fig8 ~small:true ~dim:false) in
  let cvts k = count k.K.code (function I.Cvt _ -> true | _ -> false) in
  Alcotest.(check bool) "fewer cvts with small" true (cvts k32 < cvts k64)

let test_dim_shares_offsets () =
  let _, k = compile_first (fig8 ~small:false ~dim:false) in
  let _, kd = compile_first (fig8 ~small:false ~dim:true) in
  Alcotest.(check bool) "fewer instructions with dim" true
    (Array.length kd.K.code < Array.length k.K.code)

let regs src =
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let k = Codegen_helper.compile_region ~arch prog (List.hd prog.Safara_ir.Program.regions) in
  let _, _, r = Safara_ptxas.Assemble.assemble ~arch k in
  r.Safara_ptxas.Assemble.regs_used

let test_register_ordering_table1 () =
  (* the Table I ordering: base > +small > small+dim *)
  let base = regs (fig8 ~small:false ~dim:false) in
  let small = regs (fig8 ~small:true ~dim:false) in
  let both = regs (fig8 ~small:true ~dim:true) in
  Alcotest.(check bool) "small saves" true (small < base);
  Alcotest.(check bool) "dim saves more" true (both < small)

let test_static_array_auto_small () =
  (* a static array under 4 GB uses 32-bit offsets without any clause:
     same register count as with an explicit small clause *)
  let src clause =
    Printf.sprintf
      {|
in double b[64][64];
double a[64][64];
#pragma acc kernels name(k) %s
{
  #pragma acc loop gang vector(64)
  for (i = 1; i <= 62; i++) {
    #pragma acc loop seq
    for (j = 1; j <= 62; j++) {
      a[i][j] = b[i][j] * 2.0;
    }
  }
}
|}
      clause
  in
  Alcotest.(check int) "auto-small static" (regs (src "small(a, b)")) (regs (src ""))

let test_memory_annotations () =
  let src =
    {|
param int n;
in double b[n][n];
double a[n][n];
#pragma acc kernels
{
  #pragma acc loop gang
  for (j = 0; j <= n - 1; j++) {
    #pragma acc loop vector(128)
    for (i = 0; i <= n - 1; i++) {
      a[j][i] = b[i][j];
    }
  }
}
|}
  in
  let _, k = compile_first src in
  let found_ro_scattered = ref false and found_global_coalesced = ref false in
  Array.iter
    (function
      | I.Ld { mem; note = "b"; _ } ->
          if
            mem.I.m_space = Safara_gpu.Memspace.Read_only
            && match mem.I.m_access with Safara_gpu.Memspace.Uncoalesced _ -> true | _ -> false
          then found_ro_scattered := true
      | I.St { mem; note = "a"; _ } ->
          if
            mem.I.m_space = Safara_gpu.Memspace.Global
            && mem.I.m_access = Safara_gpu.Memspace.Coalesced
          then found_global_coalesced := true
      | _ -> ())
    k.K.code;
  Alcotest.(check bool) "b is read-only + scattered" true !found_ro_scattered;
  Alcotest.(check bool) "a is global + coalesced" true !found_global_coalesced

let test_reduction_atomic () =
  let src =
    {|
param int n;
in double x[n];
double r[1];
#pragma acc kernels name(dot)
{
  double sum = 0.0;
  #pragma acc loop gang vector(128) reduction(+:sum)
  for (i = 0; i <= n - 1; i++) {
    sum += x[i] * x[i];
  }
  r[0] = sum;
}
|}
  in
  let _, k = compile_first src in
  Alcotest.(check int) "one atomic" 1
    (count k.K.code (function I.Atom _ -> true | _ -> false));
  (* the scalar store of sum must have been consumed by the pattern *)
  Alcotest.(check int) "no plain store to r" 0
    (count k.K.code (function I.St { note = "r"; _ } -> true | _ -> false))

let test_reduction_without_store_rejected () =
  let src =
    {|
param int n;
in double x[n];
double r[1];
#pragma acc kernels
{
  double sum = 0.0;
  #pragma acc loop gang vector(128) reduction(+:sum)
  for (i = 0; i <= n - 1; i++) {
    sum += x[i];
  }
  r[0] = sum + 1.0;
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  match
    Safara_vir.Codegen.compile_region ~arch prog (List.hd prog.Safara_ir.Program.regions)
  with
  | exception Safara_vir.Codegen.Error _ -> ()
  | _ -> Alcotest.fail "unsupported reduction pattern must be rejected"

let test_offset_cache_invalidation () =
  (* reassigning a scalar used in a subscript must force offset
     recomputation: compile and check there are two address adds for m *)
  let src =
    {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(32)
  for (i = 1; i <= n - 2; i++) {
    int m = i;
    a[m] = b[m];
    m = i - 1;
    a[m] = b[m] + 1.0;
  }
}
|}
  in
  let prog, k = compile_first src in
  ignore prog;
  (* four distinct addresses: a[m] b[m] twice each with different m *)
  let stores = count k.K.code (function I.St _ -> true | _ -> false) in
  Alcotest.(check int) "both stores present" 2 stores;
  (* correctness is covered by the interpreter suite; here we just
     check the cache produced separate address computations *)
  let adds_to_base =
    count k.K.code (function
      | I.Bin { op = I.Add; a = I.Reg r; _ } when Safara_ir.Types.is_64bit r.Safara_vir.Vreg.rty -> true
      | _ -> false)
  in
  Alcotest.(check bool) "at least 4 address adds" true (adds_to_base >= 4)

let test_paper_iv_a_offset_scalars () =
  (* §IV.A: three same-shaped 3D arrays need 15 offset scalars without
     dim (5 per array: 2 extents as 64-bit pairs + offset math) and a
     shared computation with dim. We check the proxy: the number of
     dope-extent loads drops from 6 (3 arrays × 2 extents) to 2. *)
  let src dim =
    Printf.sprintf
      {|
param int nx;
param int ny;
param int nz;
double u[nz][ny][nx];
double v[nz][ny][nx];
double w[nz][ny][nx];
out double o[nz][ny][nx];
#pragma acc kernels name(k) %s
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= nx - 1; i++) {
    #pragma acc loop seq
    for (kk = 1; kk <= nz - 1; kk++) {
      o[kk][0][i] = u[kk][0][i] + v[kk][0][i] + w[kk][0][i];
    }
  }
}
|}
      (if dim then "dim([nz][ny][nx](u, v, w, o))" else "")
  in
  let dope_loads k =
    count k.K.code (function
      | I.Ldp { param; _ } -> Str_helpers.contains param ".len"
      | _ -> false)
  in
  let _, k_plain = compile_first (src false) in
  let _, k_dim = compile_first (src true) in
  Alcotest.(check int) "8 extent loads without dim" 8 (dope_loads k_plain);
  Alcotest.(check int) "2 extent loads with dim" 2 (dope_loads k_dim)

let suite =
  [
    Alcotest.test_case "block geometry" `Quick test_block_geometry;
    Alcotest.test_case "grid axes" `Quick test_axes;
    Alcotest.test_case "dope params without dim" `Quick test_dope_params_per_array_without_dim;
    Alcotest.test_case "dope params with dim" `Quick test_dope_params_shared_with_dim;
    Alcotest.test_case "small reduces conversions" `Quick test_small_reduces_cvt;
    Alcotest.test_case "dim shares offsets" `Quick test_dim_shares_offsets;
    Alcotest.test_case "table-1 register ordering" `Quick test_register_ordering_table1;
    Alcotest.test_case "static arrays auto-small" `Quick test_static_array_auto_small;
    Alcotest.test_case "memory annotations" `Quick test_memory_annotations;
    Alcotest.test_case "reduction lowers to atomic" `Quick test_reduction_atomic;
    Alcotest.test_case "bad reduction rejected" `Quick test_reduction_without_store_rejected;
    Alcotest.test_case "offset cache invalidation" `Quick test_offset_cache_invalidation;
    Alcotest.test_case "paper §IV.A dope loads" `Quick test_paper_iv_a_offset_scalars;
  ]
