(* Tests for the later-added machinery: the peephole optimizer, offset
   strength reduction, register promotion, write-forward chains, the
   source emitter, and timing-model details (cache tiers, partial
   waves). *)

module I = Safara_vir.Instr
module V = Safara_vir.Vreg
module T = Safara_ir.Types
module E = Safara_ir.Expr

let arch = Safara_gpu.Arch.kepler_k20xm
let latency = Safara_gpu.Latency.kepler

let r32 rid = { V.rid; rty = T.I32 }
let f64 rid = { V.rid; rty = T.F64 }

(* --- peephole -------------------------------------------------------- *)

let test_peephole_constant_folding () =
  let code =
    [|
      I.Bin { op = I.Add; dst = r32 0; a = I.Imm 2; b = I.Imm 3 };
      I.St
        {
          src = I.Reg (r32 0);
          addr = { V.rid = 1; rty = T.I64 };
          mem = { I.m_space = Safara_gpu.Memspace.Global; m_access = Safara_gpu.Memspace.Coalesced; m_bytes = 4 };
          note = "x";
        };
      I.Ret;
    |]
  in
  let out = Safara_vir.Peephole.optimize code in
  (* folding + copy propagation + DCE: the constant reaches the store *)
  Alcotest.(check bool) "constant reaches the store" true
    (Array.exists (function I.St { src = I.Imm 5; _ } -> true | _ -> false) out);
  Alcotest.(check bool) "the add is gone" true
    (not (Array.exists (function I.Bin _ -> true | _ -> false) out))

let test_peephole_identities () =
  let mem = { I.m_space = Safara_gpu.Memspace.Global; m_access = Safara_gpu.Memspace.Coalesced; m_bytes = 4 } in
  let code =
    [|
      I.Mov { dst = r32 0; src = I.Imm 7 };
      I.Bin { op = I.Add; dst = r32 1; a = I.Reg (r32 0); b = I.Imm 0 };
      I.Bin { op = I.Mul; dst = r32 2; a = I.Reg (r32 1); b = I.Imm 1 };
      I.St { src = I.Reg (r32 2); addr = { V.rid = 3; rty = T.I64 }; mem; note = "x" };
      I.Ret;
    |]
  in
  let out = Safara_vir.Peephole.optimize code in
  (* x+0 and x*1 collapse; copy propagation then forwards the constant *)
  Alcotest.(check bool) "store sees the constant" true
    (Array.exists (function I.St { src = I.Imm 7; _ } -> true | _ -> false) out)

let test_peephole_dce () =
  let code =
    [|
      I.Mov { dst = f64 0; src = I.FImm 1.0 };
      (* dead *)
      I.Mov { dst = f64 1; src = I.FImm 2.0 };
      I.St
        {
          src = I.Reg (f64 1);
          addr = { V.rid = 2; rty = T.I64 };
          mem = { I.m_space = Safara_gpu.Memspace.Global; m_access = Safara_gpu.Memspace.Coalesced; m_bytes = 8 };
          note = "x";
        };
      I.Ret;
    |]
  in
  let out = Safara_vir.Peephole.optimize code in
  Alcotest.(check bool) "dead def removed" true
    (not (Array.exists (function I.Mov { dst; _ } -> dst.V.rid = 0 | _ -> false) out))

let test_peephole_keeps_control_flow () =
  (* values must not propagate across labels (merge points) *)
  let pred = { V.rid = 9; rty = T.Bool } in
  let code =
    [|
      I.Mov { dst = r32 0; src = I.Imm 1 };
      I.Setp { cmp = I.Lt; dst = pred; a = I.Reg (r32 0); b = I.Imm 5 };
      I.Brc { pred; if_true = false; target = "other" };
      I.Mov { dst = r32 1; src = I.Imm 10 };
      I.Bra "join";
      I.Label "other";
      I.Mov { dst = r32 1; src = I.Imm 20 };
      I.Label "join";
      I.Bin { op = I.Add; dst = r32 2; a = I.Reg (r32 1); b = I.Imm 0 };
      I.St
        {
          src = I.Reg (r32 2);
          addr = { V.rid = 3; rty = T.I64 };
          mem = { I.m_space = Safara_gpu.Memspace.Global; m_access = Safara_gpu.Memspace.Coalesced; m_bytes = 4 };
          note = "x";
        };
      I.Ret;
    |]
  in
  let out = Safara_vir.Peephole.optimize code in
  (* the store must NOT have been constant-folded to 10 or 20 *)
  Alcotest.(check bool) "no cross-block propagation" true
    (not
       (Array.exists
          (function I.St { src = I.Imm (10 | 20); _ } -> true | _ -> false)
          out))

(* --- offset strength reduction -------------------------------------- *)

let compile_kernel src =
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  Codegen_helper.compile_region ~arch prog (List.hd prog.Safara_ir.Program.regions)

let test_strength_reduction_neighbors () =
  (* a[k] and a[k-1] on a dynamic 3D array: the second address must be
     derived (constant instruction count), not a fresh Horner chain *)
  let src offsets =
    Printf.sprintf
      {|
param int nx;
param int ny;
param int nz;
in double a[nz][ny][nx];
double o[nz][ny][nx];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= nx - 1; i++) {
    #pragma acc loop seq
    for (kk = 2; kk <= nz - 2; kk++) {
      o[kk][0][i] = %s;
    }
  }
}
|}
      offsets
  in
  let one = compile_kernel (src "a[kk][0][i]") in
  let two = compile_kernel (src "a[kk][0][i] + a[kk-1][0][i]") in
  let three = compile_kernel (src "a[kk][0][i] + a[kk-1][0][i] + a[kk+1][0][i]") in
  let n1 = Array.length one.Safara_vir.Kernel.code in
  let n2 = Array.length two.Safara_vir.Kernel.code in
  let n3 = Array.length three.Safara_vir.Kernel.code in
  (* each extra neighbor costs only a few instructions (derive + load +
     add), far less than a full offset chain *)
  Alcotest.(check bool) "second ref cheap" true (n2 - n1 <= 6);
  Alcotest.(check bool) "third ref cheap" true (n3 - n2 <= 5)

let test_strength_reduction_correct () =
  (* semantics: neighbor-derived addresses must load the right cells *)
  let src =
    {|
param int n;
in double a[n][n];
double o[n][n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    #pragma acc loop seq
    for (kk = 1; kk <= n - 2; kk++) {
      o[kk][i] = a[kk][i] * 2.0 + a[kk-1][i] + a[kk+1][i];
    }
  }
}
|}
  in
  let n = 16 in
  let prog = Safara_lang.Frontend.compile src in
  let c = Safara_core.Compiler.compile Safara_core.Compiler.Base prog in
  let env = Safara_core.Compiler.make_env c ~scalars:[ ("n", Safara_sim.Value.I n) ] in
  let a = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "a" in
  Array.iteri (fun i _ -> a.(i) <- float_of_int i) a;
  Safara_core.Compiler.run_functional c env;
  let o = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "o" in
  let idx k i = (k * n) + i in
  let expect k i =
    (float_of_int (idx k i) *. 2.0)
    +. float_of_int (idx (k - 1) i)
    +. float_of_int (idx (k + 1) i)
  in
  Alcotest.(check (float 0.)) "o[3][5]" (expect 3 5) o.(idx 3 5);
  Alcotest.(check (float 0.)) "o[14][0]" (expect 14 0) o.(idx 14 0)

(* --- register promotion & write chains ------------------------------- *)

let test_promotion_candidate_found () =
  let src =
    {|
param int n;
param int m;
in double a[n][m];
double q[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= n - 1; i++) {
    q[i] = 0.0;
    #pragma acc loop seq
    for (kk = 0; kk <= m - 1; kk++) {
      q[i] = q[i] + a[i][kk];
    }
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let r = List.hd prog.Safara_ir.Program.regions in
  let cands = Safara_analysis.Reuse.candidates ~arch ~latency prog r in
  Alcotest.(check bool) "q promoted" true
    (List.exists
       (fun c ->
         c.Safara_analysis.Reuse.c_array = "q"
         &&
         match c.Safara_analysis.Reuse.c_kind with
         | Safara_analysis.Reuse.Promote { carrier = "kk"; has_write = true } -> true
         | _ -> false)
       cands)

let test_promotion_removes_inner_traffic () =
  let src =
    {|
param int n;
param int m;
in double a[n][m];
double q[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= n - 1; i++) {
    q[i] = 0.0;
    #pragma acc loop seq
    for (kk = 0; kk <= m - 1; kk++) {
      q[i] = q[i] + a[i][kk];
    }
  }
}
|}
  in
  let count_q profile =
    let c = Safara_core.Compiler.compile_src profile src in
    let k, _ = List.hd c.Safara_core.Compiler.c_kernels in
    Safara_vir.Kernel.count_instr k ~f:(function
      | I.Ld { note = "q"; _ } | I.St { note = "q"; _ } -> true
      | _ -> false)
  in
  let base = count_q Safara_core.Compiler.Base in
  let saf = count_q Safara_core.Compiler.Safara_only in
  (* base: zero-store + per-iteration load and store; promoted: the
     zero-store, one preload, one store-back *)
  Alcotest.(check bool) "q traffic reduced" true (saf <= 3 && base >= 3)

let test_promotion_blocked_by_alias () =
  (* a write to q[i+1] inside the loop may alias q[i] across threads?
     no — but q[i-1] read + q[i] write in the same loop must block
     promoting either tuple with writes *)
  let src =
    {|
param int n;
param int m;
in double a[n][m];
double q[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(64)
  for (i = 1; i <= n - 1; i++) {
    #pragma acc loop seq
    for (kk = 0; kk <= m - 1; kk++) {
      q[i] = q[i] + a[i][kk] * q[i-1];
    }
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let r = List.hd prog.Safara_ir.Program.regions in
  let cands = Safara_analysis.Reuse.candidates ~arch ~latency prog r in
  (* q[i] rw cannot promote because q[i-1] is another (read) ref to the
     array in the subtree that is not provably independent across the
     outer parallel loop... our rule: same-tuple refs must be members
     and other tuples independent; q[i-1] vs q[i] differ by 1 in the
     parallel dim -> test_pair gives distance on i, carried only by i;
     zero-distance alias impossible, so promotion of q[i] IS legal
     here. What must NOT happen is promotion of the read q[i-1]
     (written elsewhere in the subtree with possible overlap). *)
  List.iter
    (fun c ->
      match c.Safara_analysis.Reuse.c_kind with
      | Safara_analysis.Reuse.Promote { has_write = false; _ }
        when c.Safara_analysis.Reuse.c_array = "q" ->
          (* read-only promotion of q[i-1] would be unsound *)
          Alcotest.fail "read-only promotion of q[i-1] must be blocked"
      | _ -> ())
    cands;
  (* and whatever is selected must preserve semantics *)
  let run profile =
    let c = Safara_core.Compiler.compile_src profile src in
    let env =
      Safara_core.Compiler.make_env c
        ~scalars:[ ("n", Safara_sim.Value.I 20); ("m", Safara_sim.Value.I 6) ]
    in
    let a = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "a" in
    Array.iteri (fun i _ -> a.(i) <- 0.001 *. float_of_int i) a;
    let q = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "q" in
    Array.iteri (fun i _ -> q.(i) <- 1.0) q;
    Safara_core.Compiler.run_functional c env;
    Array.copy (Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "q")
  in
  Alcotest.(check bool) "semantics preserved" true
    (run Safara_core.Compiler.Base = run Safara_core.Compiler.Safara_only)

let test_write_chain_forwarding () =
  let src =
    {|
param int n;
param int m;
in double c[n][m];
double w[n][m];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(64)
  for (j = 0; j <= n - 1; j++) {
    #pragma acc loop seq
    for (i = 1; i <= m - 1; i++) {
      w[j][i] = w[j][i-1] * 0.5 + c[j][i];
    }
  }
}
|}
  in
  let count_w_loads profile =
    let c = Safara_core.Compiler.compile_src profile src in
    let k, _ = List.hd c.Safara_core.Compiler.c_kernels in
    Safara_vir.Kernel.count_instr k ~f:(function
      | I.Ld { note = "w"; _ } -> true
      | _ -> false)
  in
  (* base loads w[j][i-1] every iteration; the forward chain keeps only
     the initializing load outside the loop *)
  Alcotest.(check int) "base has a w load" 1 (count_w_loads Safara_core.Compiler.Base);
  Alcotest.(check int) "forwarded w load stays (init only)" 1
    (count_w_loads Safara_core.Compiler.Safara_only);
  (* distinguish: in the SAFARA version the load must live outside the
     loop; cheap proxy: the store count is unchanged and semantics agree
     (covered by the workload suite); here check the rotation scalar
     appeared *)
  let c = Safara_core.Compiler.compile_src Safara_core.Compiler.Safara_only src in
  let r = List.hd c.Safara_core.Compiler.c_prog.Safara_ir.Program.regions in
  let has_sr_local = ref false in
  Safara_ir.Stmt.iter
    (fun s ->
      match s with
      | Safara_ir.Stmt.Local (v, _)
        when String.length v.E.vname >= 4 && String.sub v.E.vname 0 4 = "__sr" ->
          has_sr_local := true
      | _ -> ())
    r.Safara_ir.Region.body;
  Alcotest.(check bool) "rotating scalar introduced" true !has_sr_local

(* --- dynamic counters ------------------------------------------------ *)

let test_dynamic_loads_reduced () =
  let src =
    {|
param int jsize;
param int isize;
double a[isize][jsize];
in double b[jsize][isize];
double c[jsize];
#pragma acc kernels name(fig5)
{
  #pragma acc loop gang vector(32)
  for (j = 1; j <= jsize - 2; j++) {
    c[j] = b[j][0] + b[j][1];
    #pragma acc loop seq
    for (i = 1; i <= isize - 2; i++) {
      a[i][j] = a[i-1][j] + b[j][i-1] + a[i+1][j] + b[j][i+1];
    }
  }
}
|}
  in
  let dynamic profile =
    let c = Safara_core.Compiler.compile_src profile src in
    let env =
      Safara_core.Compiler.make_env c
        ~scalars:[ ("jsize", Safara_sim.Value.I 24); ("isize", Safara_sim.Value.I 16) ]
    in
    let counters = Safara_sim.Interp.fresh_counters () in
    List.iter
      (fun (k, _) ->
        let grid = Safara_sim.Launch.grid_of ~env:env.Safara_sim.Interp.scalars k in
        Safara_sim.Interp.run_kernel ~counters ~prog:c.Safara_core.Compiler.c_prog
          ~env ~grid k)
      c.Safara_core.Compiler.c_kernels;
    counters
  in
  let base = dynamic Safara_core.Compiler.Base in
  let saf = dynamic Safara_core.Compiler.Safara_only in
  Alcotest.(check bool) "fewer dynamic loads" true
    (saf.Safara_sim.Interp.c_loads < base.Safara_sim.Interp.c_loads);
  Alcotest.(check int) "no spill traffic" 0 saf.Safara_sim.Interp.c_spill_ops;
  Alcotest.(check bool) "stores unchanged" true
    (saf.Safara_sim.Interp.c_stores = base.Safara_sim.Interp.c_stores)

(* --- emitter --------------------------------------------------------- *)

let test_emit_parses_back () =
  let w = Safara_suites.Registry.find "356.sp" in
  let prog = Safara_lang.Frontend.compile w.Safara_suites.Workload.source in
  let emitted = Safara_lang.Emit.program prog in
  match Safara_lang.Frontend.compile emitted with
  | _ -> ()
  | exception e -> Alcotest.fail ("emitted source does not parse: " ^ Printexc.to_string e)

let test_emit_float_literals () =
  Alcotest.(check string) "whole float keeps a point" "2.0"
    (Safara_lang.Emit.expr_to_source (E.float 2.0));
  let e = Safara_lang.Emit.expr_to_source (E.float 0.30000000000000004) in
  Alcotest.(check bool) "precise roundtrip text" true (float_of_string e = 0.30000000000000004)

(* --- timing details --------------------------------------------------- *)

let test_cache_tiers () =
  (* re-touching the same segment must be cheaper than streaming *)
  let streaming =
    {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(128)
  for (i = 0; i <= n - 1; i++) {
    a[i] = b[i];
  }
}
|}
  in
  let rereading =
    {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(128)
  for (i = 0; i <= n - 1; i++) {
    a[i] = b[0] + b[1];
  }
}
|}
  in
  let cycles src =
    let prog = Safara_lang.Frontend.compile src in
    let prog = Safara_analysis.Schedule.resolve_program prog in
    let k = Codegen_helper.compile_region ~arch prog (List.hd prog.Safara_ir.Program.regions) in
    let mem = Safara_sim.Memory.create () in
    Safara_sim.Memory.alloc_program mem ~env:[ ("n", 65536) ] prog;
    let env = { Safara_sim.Interp.scalars = [ ("n", Safara_sim.Value.I 65536) ]; mem } in
    let st =
      Safara_sim.Timing.simulate_resident_set ~arch ~latency ~prog ~env
        ~grid:(512, 1, 1) ~blocks_per_sm:8 k
    in
    st.Safara_sim.Timing.cycles
  in
  Alcotest.(check bool) "broadcast re-reads beat streaming" true
    (cycles rereading < cycles streaming)

let test_partial_wave_occupancy_irrelevant () =
  (* with fewer blocks than the GPU can hold, register counts should
     barely matter: effective residency is grid-bound *)
  let src =
    {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(128)
  for (i = 0; i <= n - 1; i++) {
    a[i] = b[i] * 2.0;
  }
}
|}
  in
  let time regs =
    let prog = Safara_lang.Frontend.compile src in
    let c = Safara_core.Compiler.compile Safara_core.Compiler.Base prog in
    let k, report = List.hd c.Safara_core.Compiler.c_kernels in
    let report = { report with Safara_ptxas.Assemble.regs_used = regs } in
    let env =
      Safara_core.Compiler.make_env c ~scalars:[ ("n", Safara_sim.Value.I 1024) ]
    in
    (Safara_sim.Launch.time_kernel ~arch ~latency ~prog:c.Safara_core.Compiler.c_prog
       ~env ~report k)
      .Safara_sim.Launch.kt_ms
  in
  (* 1024 threads = 8 blocks << 14 SMs: occupancy limits are slack *)
  Alcotest.(check (float 1e-9)) "8-block grid insensitive to registers"
    (time 32) (time 200)

let suite =
  [
    Alcotest.test_case "peephole constant folding" `Quick test_peephole_constant_folding;
    Alcotest.test_case "peephole identities" `Quick test_peephole_identities;
    Alcotest.test_case "peephole dead code" `Quick test_peephole_dce;
    Alcotest.test_case "peephole respects control flow" `Quick test_peephole_keeps_control_flow;
    Alcotest.test_case "strength reduction: neighbors cheap" `Quick test_strength_reduction_neighbors;
    Alcotest.test_case "strength reduction: correct" `Quick test_strength_reduction_correct;
    Alcotest.test_case "promotion candidate found" `Quick test_promotion_candidate_found;
    Alcotest.test_case "promotion removes inner traffic" `Quick test_promotion_removes_inner_traffic;
    Alcotest.test_case "promotion alias safety" `Quick test_promotion_blocked_by_alias;
    Alcotest.test_case "write-chain forwarding" `Quick test_write_chain_forwarding;
    Alcotest.test_case "dynamic loads reduced" `Quick test_dynamic_loads_reduced;
    Alcotest.test_case "emit parses back" `Quick test_emit_parses_back;
    Alcotest.test_case "emit float literals" `Quick test_emit_float_literals;
    Alcotest.test_case "cache tiers reward reuse" `Quick test_cache_tiers;
    Alcotest.test_case "partial waves ignore registers" `Quick test_partial_wave_occupancy_irrelevant;
  ]
