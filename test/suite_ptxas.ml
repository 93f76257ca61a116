(* Tests for the assembler stand-in: the CFG and live intervals it
   allocates over, linear-scan allocation (pair alignment, spilling)
   and the feedback report. *)

module I = Safara_vir.Instr
module V = Safara_vir.Vreg
module T = Safara_ir.Types
module Cfg = Safara_vir.Cfg
module Facts = Safara_vir.Facts
open Safara_ptxas

let arch = Safara_gpu.Arch.kepler_k20xm

let r32 rid = { V.rid; rty = T.I32 }
let r64 rid = { V.rid; rty = T.I64 }
let f64 rid = { V.rid; rty = T.F64 }
let pred rid = { V.rid; rty = T.Bool }

let straightline =
  [|
    I.Mov { dst = r32 0; src = I.Imm 1 };
    I.Mov { dst = r32 1; src = I.Imm 2 };
    I.Bin { op = I.Add; dst = r32 2; a = I.Reg (r32 0); b = I.Reg (r32 1) };
    I.Ret;
  |]

let test_cfg_single_block () =
  let cfg = Cfg.build straightline in
  Alcotest.(check int) "one block" 1 (Array.length cfg.Cfg.blocks)

let branchy =
  [|
    I.Mov { dst = r32 0; src = I.Imm 1 };
    I.Setp { cmp = I.Lt; dst = pred 1; a = I.Reg (r32 0); b = I.Imm 5 };
    I.Brc { pred = pred 1; if_true = false; target = "else" };
    I.Mov { dst = r32 2; src = I.Imm 10 };
    I.Bra "end";
    I.Label "else";
    I.Mov { dst = r32 2; src = I.Imm 20 };
    I.Label "end";
    I.Ret;
  |]

let test_cfg_diamond () =
  let cfg = Cfg.build branchy in
  Alcotest.(check int) "four blocks" 4 (Array.length cfg.Cfg.blocks);
  let b0 = cfg.Cfg.blocks.(0) in
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] b0.Cfg.succs

let loopy =
  (* r0 = 0; loop: r0 += 1; if r0 < 10 goto loop; r1 = r0 *)
  [|
    I.Mov { dst = r32 0; src = I.Imm 0 };
    I.Label "loop";
    I.Bin { op = I.Add; dst = r32 0; a = I.Reg (r32 0); b = I.Imm 1 };
    I.Setp { cmp = I.Lt; dst = pred 1; a = I.Reg (r32 0); b = I.Imm 10 };
    I.Brc { pred = pred 1; if_true = true; target = "loop" };
    I.Mov { dst = r32 2; src = I.Reg (r32 0) };
    I.Ret;
  |]

let test_liveness_loop () =
  let facts = Facts.make loopy in
  let ivs = Linear_scan.intervals facts in
  let iv0 = List.find (fun iv -> iv.Linear_scan.reg.V.rid = 0) ivs in
  (* r0 is live from its definition through the loop to the final use *)
  Alcotest.(check int) "r0 starts at def" 0 iv0.Linear_scan.i_start;
  Alcotest.(check bool) "r0 live until final use" true (iv0.Linear_scan.i_end >= 5)

let test_dead_def_has_point_interval () =
  let code = [| I.Mov { dst = r32 0; src = I.Imm 1 }; I.Ret |] in
  let ivs = Linear_scan.intervals (Facts.make code) in
  let iv = List.find (fun iv -> iv.Linear_scan.reg.V.rid = 0) ivs in
  Alcotest.(check int) "point interval" iv.Linear_scan.i_start iv.Linear_scan.i_end

let test_allocation_reuses_registers () =
  (* two values with disjoint lifetimes share one register *)
  let code =
    [|
      I.Mov { dst = r32 0; src = I.Imm 1 };
      I.Bin { op = I.Add; dst = r32 1; a = I.Reg (r32 0); b = I.Imm 1 };
      (* r0 dead after this *)
      I.Mov { dst = r32 2; src = I.Imm 5 };
      I.Bin { op = I.Add; dst = r32 3; a = I.Reg (r32 2); b = I.Reg (r32 1) };
      I.Ret;
    |]
  in
  let facts = Facts.make code in
  let res = Linear_scan.allocate ~max_regs:255 facts in
  Alcotest.(check bool) "at most 3 regs" true (res.Linear_scan.regs_used <= 3);
  (match Linear_scan.verify facts res with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

let test_pair_alignment () =
  let code =
    [|
      I.Mov { dst = r32 0; src = I.Imm 1 };
      I.Mov { dst = r64 1; src = I.Imm 2 };
      I.Bin { op = I.Add; dst = r64 2; a = I.Reg (r64 1); b = I.Reg (r32 0) };
      I.Ret;
    |]
  in
  let facts = Facts.make code in
  let res = Linear_scan.allocate ~max_regs:255 facts in
  List.iter
    (fun (r, base) ->
      if V.width r = 2 then
        Alcotest.(check int) "aligned" 0 (base mod 2))
    res.Linear_scan.assignment;
  match Linear_scan.verify facts res with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let many_live n =
  (* define n long-lived f64 values, then sum them *)
  let defs =
    List.init n (fun i -> I.Mov { dst = f64 i; src = I.FImm (float_of_int i) })
  in
  let sums =
    List.init (n - 1) (fun i ->
        I.Bin
          {
            op = I.Add;
            dst = f64 (n + i);
            a = I.Reg (if i = 0 then f64 0 else f64 (n + i - 1));
            b = I.Reg (f64 (i + 1));
          })
  in
  Array.of_list (defs @ sums @ [ I.Ret ])

let test_spilling_under_cap () =
  let code = many_live 20 in
  let facts = Facts.make code in
  (* 20 f64 = 40 units live at once; cap at 16 forces spills *)
  let res = Linear_scan.allocate ~max_regs:16 facts in
  Alcotest.(check bool) "spills happened" true (res.Linear_scan.spilled <> []);
  Alcotest.(check bool) "cap respected" true (res.Linear_scan.regs_used <= 16)

let test_no_spill_when_fits () =
  let code = many_live 20 in
  let res = Linear_scan.allocate ~max_regs:255 (Facts.make code) in
  Alcotest.(check (list string)) "no spills" []
    (List.map V.to_string res.Linear_scan.spilled)

let test_predicates_not_counted () =
  let code =
    [|
      I.Setp { cmp = I.Lt; dst = pred 0; a = I.Imm 1; b = I.Imm 2 };
      I.Brc { pred = pred 0; if_true = true; target = "end" };
      I.Label "end";
      I.Ret;
    |]
  in
  let res = Linear_scan.allocate ~max_regs:255 (Facts.make code) in
  Alcotest.(check int) "no gprs" 0 res.Linear_scan.regs_used;
  Alcotest.(check int) "one predicate" 1 res.Linear_scan.pred_used

let test_assemble_spill_roundtrip () =
  (* assembling with a tiny cap inserts local-memory spill code that
     still computes the same result (checked via the interpreter) *)
  let src =
    {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    double t1 = b[i] * 1.5;
    double t2 = t1 + 2.0;
    double t3 = t1 * t2;
    double t4 = t3 - t1;
    double t5 = t4 * t2 + t3;
    a[i] = t1 + t2 + t3 + t4 + t5;
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let k = Codegen_helper.compile_region ~arch prog (List.hd prog.Safara_ir.Program.regions) in
  let run kernel =
    let mem = Safara_sim.Memory.create () in
    Safara_sim.Memory.alloc_program mem ~env:[ ("n", 64) ] prog;
    let b = Safara_sim.Memory.float_data mem "b" in
    Array.iteri (fun i _ -> b.(i) <- float_of_int i *. 0.25) b;
    let env = { Safara_sim.Interp.scalars = [ ("n", Safara_sim.Value.I 64) ]; mem } in
    Safara_sim.Launch.run_functional ~prog ~env [ kernel ];
    Array.copy (Safara_sim.Memory.float_data mem "a")
  in
  let k_full, _, rep_full = Assemble.assemble ~arch k in
  let k_tight, _, rep_tight = Assemble.assemble ~max_regs:10 ~arch k in
  Alcotest.(check int) "full cap has no spills" 0 rep_full.Assemble.spill_bytes;
  Alcotest.(check bool) "tight cap spills" true (rep_tight.Assemble.spill_bytes > 0);
  Alcotest.(check bool) "tight cap respected" true (rep_tight.Assemble.regs_used <= 10);
  let a1 = run k_full and a2 = run k_tight in
  Alcotest.(check bool) "identical results" true (a1 = a2)

(* peak number of 32-bit units whose intervals overlap one index *)
let interval_peak code =
  let n = Array.length code in
  let units = Array.make n 0 in
  List.iter
    (fun (iv : Linear_scan.interval) ->
      for i = iv.Linear_scan.i_start to iv.Linear_scan.i_end do
        units.(i) <- units.(i) + V.width iv.Linear_scan.reg
      done)
    (Linear_scan.intervals (Facts.make code));
  Array.fold_left max 0 units

let test_pressure_lower_bound () =
  (* peak interval overlap is a lower bound for any allocation, and
     the intervals over-approximate the liveness solver's live sets *)
  let srcs =
    [ (Safara_suites.Registry.find "355.seismic").Safara_suites.Workload.source;
      (Safara_suites.Registry.find "SP").Safara_suites.Workload.source ]
  in
  List.iter
    (fun src ->
      let prog = Safara_lang.Frontend.compile src in
      let prog = Safara_analysis.Schedule.resolve_program prog in
      List.iter
        (fun r ->
          let k = Codegen_helper.compile_region ~arch prog r in
          let code = k.Safara_vir.Kernel.code in
          let res = Linear_scan.allocate ~max_regs:255 (Facts.make code) in
          let peak = interval_peak code in
          Alcotest.(check bool)
            (r.Safara_ir.Region.rname ^ " allocation >= interval peak")
            true
            (res.Linear_scan.regs_used >= peak);
          Alcotest.(check bool)
            (r.Safara_ir.Region.rname ^ " interval peak >= live units")
            true
            (Facts.max_units (Facts.make code) <= peak))
        prog.Safara_ir.Program.regions)
    srcs

let test_report_fields () =
  let src =
    "param int n;\nin double b[n];\ndouble a[n];\n#pragma acc kernels name(k)\n{\n#pragma acc loop gang vector(64)\nfor (i=0;i<n;i++) { a[i] = b[i]; } }"
  in
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let k = Codegen_helper.compile_region ~arch prog (List.hd prog.Safara_ir.Program.regions) in
  let _, _, rep = Assemble.assemble ~arch k in
  Alcotest.(check string) "name" "k" rep.Assemble.kernel_name;
  Alcotest.(check bool) "positive regs" true (rep.Assemble.regs_used > 0);
  Alcotest.(check bool) "instr count" true (rep.Assemble.instructions > 10)

let suite =
  [
    Alcotest.test_case "cfg single block" `Quick test_cfg_single_block;
    Alcotest.test_case "cfg diamond" `Quick test_cfg_diamond;
    Alcotest.test_case "liveness across loop" `Quick test_liveness_loop;
    Alcotest.test_case "dead def interval" `Quick test_dead_def_has_point_interval;
    Alcotest.test_case "allocation reuses registers" `Quick test_allocation_reuses_registers;
    Alcotest.test_case "64-bit pair alignment" `Quick test_pair_alignment;
    Alcotest.test_case "spilling under cap" `Quick test_spilling_under_cap;
    Alcotest.test_case "no spill when fits" `Quick test_no_spill_when_fits;
    Alcotest.test_case "predicates not counted" `Quick test_predicates_not_counted;
    Alcotest.test_case "assemble spill roundtrip" `Quick test_assemble_spill_roundtrip;
    Alcotest.test_case "pressure lower bound" `Quick test_pressure_lower_bound;
    Alcotest.test_case "report fields" `Quick test_report_fields;
  ]
