(* Loop-aware optimization tests: induction-variable rewriting
   (back-edge stride detection, preheader cloning, the structural
   refusals) and load/store merging (redundant-load elimination,
   store-to-load forwarding, and the legality boundaries: aliasing,
   control flow, cross-iteration values, space classes).  The suite
   ends with golden hot-kernel op counts that fail if indvar/memmerge
   ever stop firing on the stencil and mesh workloads. *)

open Safara_suites
module I = Safara_vir.Instr
module V = Safara_vir.Vreg
module K = Safara_vir.Kernel
module T = Safara_ir.Types
module M = Safara_gpu.Memspace
module C = Safara_core.Compiler
module Pl = Safara_core.Pipeline
module Facts = Safara_vir.Facts

(* a VIR pass on bare code: its result on fresh facts of [c] *)
let opt pass c = Facts.code (pass (Facts.make c))

(* --- builders (mirroring suite_dataflow) --------------------------- *)

let r id ty = { V.rid = id; rty = ty }
let i32 id = r id T.I32
let i64 id = r id T.I64
let f64 id = r id T.F64
let prd id = r id T.Bool
let gmem = { I.m_space = M.Global; m_access = M.Coalesced; m_bytes = 8 }
let lmem = { I.m_space = M.Local; m_access = M.Coalesced; m_bytes = 8 }
let movi d c = I.Mov { dst = d; src = I.Imm c }
let add d a b = I.Bin { op = I.Add; dst = d; a; b }
let sub d a b = I.Bin { op = I.Sub; dst = d; a; b }
let mul d a b = I.Bin { op = I.Mul; dst = d; a; b }
let setp d a b = I.Setp { cmp = I.Lt; dst = d; a; b }
let brc pr target = I.Brc { pred = pr; if_true = true; target }
let ld d addr mem = I.Ld { dst = d; addr; mem; note = "arr" }
let st s addr mem = I.St { src = s; addr; mem; note = "arr" }

let instr = Alcotest.testable (Fmt.of_to_string I.to_string) ( = )
let instrs = Alcotest.(list instr)
let to_list = Array.to_list

(* --- indvar: back-edge stride detection ---------------------------- *)

(* i = 0; loop { t = i*8; t64 = cvt t; a = base + t64; st [a]; i += 1 }
   — the canonical per-iteration address chain.  After the rewrite the
   loop body carries `add a, a, 8` across the back edge, the chain's
   per-iteration def of [a] is gone, and a clone of the chain
   initializes [a] in the preheader. *)
let addr_chain_loop ~step ~iv_op =
  [|
    movi (i32 1) 0;
    I.Label "loop";
    mul (i32 2) (I.Reg (i32 1)) (I.Imm 8);
    I.Cvt { dst = i64 3; src = i32 2 };
    add (i64 4) (I.Reg (i64 10)) (I.Reg (i64 3));
    st (I.Reg (f64 5)) (i64 4) gmem;
    iv_op step;
    setp (prd 6) (I.Reg (i32 1)) (I.Imm 100);
    brc (prd 6) "loop";
    I.Ret;
  |]

let incr_add step = add (i32 1) (I.Reg (i32 1)) (I.Imm step)
let incr_sub step = sub (i32 1) (I.Reg (i32 1)) (I.Imm step)

let label_index code l =
  let found = ref (-1) in
  Array.iteri (fun i ins -> if ins = I.Label l then found := i) code;
  !found

let count_if code f = Array.fold_left (fun n i -> if f i then n + 1 else n) 0 code

let test_indvar_basic_stride () =
  let out = opt Safara_vir.Indvar.optimize (addr_chain_loop ~step:1 ~iv_op:incr_add) in
  let lbl = label_index out "loop" in
  Alcotest.(check bool) "label kept" true (lbl >= 0);
  (* the per-iteration def of a (= base + t64) is deleted from the
     body; its only def inside the loop is now the increment *)
  let body = Array.sub out lbl (Array.length out - lbl) in
  Alcotest.(check int) "in-loop increment add a, a, 8" 1
    (count_if body (function
      | I.Bin { op = I.Add; dst; a = I.Reg a; b = I.Imm 8 } ->
          dst = i64 4 && a = i64 4
      | _ -> false));
  Alcotest.(check int) "per-iteration chain end removed from body" 0
    (count_if body (function
      | I.Bin { op = I.Add; dst; b = I.Reg _; _ } -> dst = i64 4
      | _ -> false));
  (* the preheader clone initializes a from the chain *)
  let pre = Array.sub out 0 lbl in
  Alcotest.(check int) "preheader initializes a" 1
    (count_if pre (function
      | I.Bin { op = I.Add; dst; _ } -> dst = i64 4
      | _ -> false));
  Alcotest.(check int) "preheader clones the multiply" 1
    (count_if pre (function I.Bin { op = I.Mul; _ } -> true | _ -> false))

let test_indvar_negative_step () =
  (* sub i, i, 2 is a step of -2, so the chain advances by -16 *)
  let out = opt Safara_vir.Indvar.optimize (addr_chain_loop ~step:2 ~iv_op:incr_sub) in
  let lbl = label_index out "loop" in
  let body = Array.sub out lbl (Array.length out - lbl) in
  Alcotest.(check int) "increment is add a, a, -16" 1
    (count_if body (function
      | I.Bin { op = I.Add; dst; a = I.Reg a; b = I.Imm -16 } ->
          dst = i64 4 && a = i64 4
      | _ -> false))

let test_indvar_symbolic_stride () =
  (* t = i * w with w a loop-invariant register: the stride is w itself,
     materialized once in the preheader and added across the back edge *)
  let code =
    [|
      movi (i32 1) 0;
      movi (i32 9) 24;
      I.Label "loop";
      mul (i32 2) (I.Reg (i32 1)) (I.Reg (i32 9));
      I.Cvt { dst = i64 3; src = i32 2 };
      add (i64 4) (I.Reg (i64 10)) (I.Reg (i64 3));
      st (I.Reg (f64 5)) (i64 4) gmem;
      incr_add 1;
      setp (prd 6) (I.Reg (i32 1)) (I.Imm 100);
      brc (prd 6) "loop";
      I.Ret;
    |]
  in
  let out = opt Safara_vir.Indvar.optimize code in
  let lbl = label_index out "loop" in
  let body = Array.sub out lbl (Array.length out - lbl) in
  Alcotest.(check int) "increment adds a register stride" 1
    (count_if body (function
      | I.Bin { op = I.Add; dst; a = I.Reg a; b = I.Reg _ } ->
          dst = i64 4 && a = i64 4
      | _ -> false))

let test_indvar_refuses_outside_use () =
  (* a is read after the loop: keeping it incrementally would change
     which value survives, so the pass must leave the code alone *)
  let code =
    [|
      movi (i32 1) 0;
      I.Label "loop";
      mul (i32 2) (I.Reg (i32 1)) (I.Imm 8);
      I.Cvt { dst = i64 3; src = i32 2 };
      add (i64 4) (I.Reg (i64 10)) (I.Reg (i64 3));
      st (I.Reg (f64 5)) (i64 4) gmem;
      incr_add 1;
      setp (prd 6) (I.Reg (i32 1)) (I.Imm 100);
      brc (prd 6) "loop";
      st (I.Reg (f64 5)) (i64 4) gmem;
      I.Ret;
    |]
  in
  Alcotest.check instrs "unchanged" (to_list code)
    (to_list (opt Safara_vir.Indvar.optimize code))

let test_indvar_refuses_multi_latch () =
  (* two back edges: the increment would have to run on both, refuse *)
  let code =
    [|
      movi (i32 1) 0;
      I.Label "loop";
      mul (i32 2) (I.Reg (i32 1)) (I.Imm 8);
      I.Cvt { dst = i64 3; src = i32 2 };
      add (i64 4) (I.Reg (i64 10)) (I.Reg (i64 3));
      st (I.Reg (f64 5)) (i64 4) gmem;
      incr_add 1;
      setp (prd 6) (I.Reg (i32 1)) (I.Imm 50);
      brc (prd 6) "loop";
      setp (prd 7) (I.Reg (i32 1)) (I.Imm 100);
      brc (prd 7) "loop";
      I.Ret;
    |]
  in
  Alcotest.check instrs "unchanged" (to_list code)
    (to_list (opt Safara_vir.Indvar.optimize code))

(* --- memmerge: merging and its legality boundaries ----------------- *)

let test_memmerge_redundant_load () =
  let code = [| ld (f64 1) (i64 0) gmem; ld (f64 2) (i64 0) gmem; I.Ret |] in
  let out = opt Safara_vir.Memmerge.optimize code in
  Alcotest.check instr "second load becomes a move"
    (I.Mov { dst = f64 2; src = I.Reg (f64 1) })
    out.(1)

let test_memmerge_store_forwarding () =
  let code = [| st (I.Reg (f64 1)) (i64 0) gmem; ld (f64 2) (i64 0) gmem; I.Ret |] in
  let out = opt Safara_vir.Memmerge.optimize code in
  Alcotest.check instr "load forwards the stored value"
    (I.Mov { dst = f64 2; src = I.Reg (f64 1) })
    out.(1)

let test_memmerge_alias_kill () =
  (* an intervening store through an unrelated base may overwrite the
     loaded cell: the reload must stay a load *)
  let code =
    [|
      ld (f64 1) (i64 0) gmem;
      st (I.Reg (f64 3)) (i64 9) gmem;
      ld (f64 2) (i64 0) gmem;
      I.Ret;
    |]
  in
  let out = opt Safara_vir.Memmerge.optimize code in
  Alcotest.check instr "reload survives the may-alias store" code.(2) out.(2)

let test_memmerge_disjoint_intervals () =
  (* same base, byte intervals [0,8) and [8,16): provably disjoint, so
     the neighbor store does not kill the center element *)
  let code =
    [|
      ld (f64 1) (i64 0) gmem;
      add (i64 9) (I.Reg (i64 0)) (I.Imm 8);
      st (I.Reg (f64 3)) (i64 9) gmem;
      ld (f64 2) (i64 0) gmem;
      I.Ret;
    |]
  in
  let out = opt Safara_vir.Memmerge.optimize code in
  Alcotest.check instr "disjoint store keeps the value available"
    (I.Mov { dst = f64 2; src = I.Reg (f64 1) })
    out.(3)

let test_memmerge_partial_path () =
  (* the load is only available on the then-path: the join must drop
     the fact, and the post-join load stays a load *)
  let code =
    [|
      setp (prd 1) (I.Reg (i32 2)) (I.Imm 10);
      brc (prd 1) "then";
      movi (i32 3) 0;
      I.Bra "join";
      I.Label "then";
      ld (f64 4) (i64 0) gmem;
      I.Label "join";
      ld (f64 5) (i64 0) gmem;
      I.Ret;
    |]
  in
  let out = opt Safara_vir.Memmerge.optimize code in
  Alcotest.check instr "post-join load survives" code.(7) out.(7)

let test_memmerge_cross_iteration () =
  (* the loop stores a different value every iteration: at the loop
     header the preheader fact (Reg a) and the back-edge fact (Reg c)
     disagree, so the in-loop load must stay a load *)
  let code =
    [|
      ld (f64 1) (i64 0) gmem;
      movi (i64 7) 0;
      I.Label "loop";
      ld (f64 2) (i64 0) gmem;
      add (i64 7) (I.Reg (i64 7)) (I.Imm 1);
      st (I.Reg (i64 7)) (i64 0) gmem;
      setp (prd 6) (I.Reg (i64 7)) (I.Imm 100);
      brc (prd 6) "loop";
      I.Ret;
    |]
  in
  let out = opt Safara_vir.Memmerge.optimize code in
  Alcotest.check instr "in-loop load survives the varying store" code.(3) out.(3);
  (* drop the store and reload into the same register: the fact now
     agrees around the back edge and the in-loop reload disappears
     entirely (the register already holds the value) *)
  let code2 =
    [|
      ld (f64 1) (i64 0) gmem;
      movi (i64 7) 0;
      I.Label "loop";
      ld (f64 1) (i64 0) gmem;
      add (i64 7) (I.Reg (i64 7)) (I.Imm 1);
      setp (prd 6) (I.Reg (i64 7)) (I.Imm 100);
      brc (prd 6) "loop";
      I.Ret;
    |]
  in
  let out2 = opt Safara_vir.Memmerge.optimize code2 in
  Alcotest.(check int) "loop-invariant reload dropped"
    (Array.length code2 - 1)
    (Array.length out2);
  Alcotest.(check int) "no load left in the loop" 1
    (count_if out2 (function I.Ld _ -> true | _ -> false))

let test_memmerge_space_classes () =
  (* Local is a separate per-thread store in the simulator: a local
     store at the same base/offset cannot touch a global value *)
  let code =
    [|
      ld (f64 1) (i64 0) gmem;
      st (I.Reg (f64 3)) (i64 0) lmem;
      ld (f64 2) (i64 0) gmem;
      I.Ret;
    |]
  in
  let out = opt Safara_vir.Memmerge.optimize code in
  Alcotest.check instr "local store leaves the global fact alone"
    (I.Mov { dst = f64 2; src = I.Reg (f64 1) })
    out.(2)

(* --- golden hot-kernel op counts ----------------------------------- *)

let loopopt_off =
  {
    Pl.default_options with
    Pl.o_disable = [ "indvar"; "memmerge" ];
  }

(* decoded ops inside the kernel's hottest loop (largest natural-loop
   body) — the preheader clones indvar plants are outside the loop by
   design, so whole-kernel counts would hide the win *)
let hot_loop_ops ~options id kname =
  let w = Registry.find id in
  let c = C.compile_src ~options C.Base w.Workload.source in
  let k, _ =
    List.find
      (fun ((k : K.t), _) -> String.equal k.K.kname kname)
      c.C.c_kernels
  in
  let cfg = Safara_vir.Cfg.build k.K.code in
  List.fold_left
    (fun acc (l : Safara_vir.Cfg.loop) ->
      let ops = ref 0 in
      Array.iteri
        (fun b in_body ->
          if in_body then
            let blk = cfg.Safara_vir.Cfg.blocks.(b) in
            ops := !ops + blk.Safara_vir.Cfg.last - blk.Safara_vir.Cfg.first + 1)
        l.Safara_vir.Cfg.body;
      max acc !ops)
    0 (Safara_vir.Cfg.loops cfg)

let test_golden_op_counts () =
  (* exact counts under the default pipeline: these fail the moment
     indvar/memmerge stop firing (the count jumps back toward the
     disabled figure).  Regenerate by printing both numbers below after
     an intentional codegen or pass change. *)
  List.iter
    (fun (id, kname) ->
      let on = hot_loop_ops ~options:Pl.default_options id kname in
      let off = hot_loop_ops ~options:loopopt_off id kname in
      if not (on < off) then
        Alcotest.failf "%s/%s: %d hot-loop ops with the loop passes, %d without"
          id kname on off)
    [ ("303.ostencil", "stencil"); ("364.umesh", "edge_flux") ]

let test_golden_op_counts_exact () =
  List.iter
    (fun (id, kname, expect) ->
      let got = hot_loop_ops ~options:Pl.default_options id kname in
      Alcotest.(check int)
        (Printf.sprintf "%s/%s hot-loop decoded ops" id kname)
        expect got)
    [ ("303.ostencil", "stencil", 30); ("364.umesh", "edge_flux", 26) ]

let suite =
  [
    Alcotest.test_case "indvar: basic back-edge stride" `Quick
      test_indvar_basic_stride;
    Alcotest.test_case "indvar: negative step" `Quick test_indvar_negative_step;
    Alcotest.test_case "indvar: symbolic stride" `Quick
      test_indvar_symbolic_stride;
    Alcotest.test_case "indvar: refuses use outside loop" `Quick
      test_indvar_refuses_outside_use;
    Alcotest.test_case "indvar: refuses multiple latches" `Quick
      test_indvar_refuses_multi_latch;
    Alcotest.test_case "memmerge: redundant load" `Quick
      test_memmerge_redundant_load;
    Alcotest.test_case "memmerge: store forwarding" `Quick
      test_memmerge_store_forwarding;
    Alcotest.test_case "memmerge: may-alias store kills" `Quick
      test_memmerge_alias_kill;
    Alcotest.test_case "memmerge: disjoint intervals survive" `Quick
      test_memmerge_disjoint_intervals;
    Alcotest.test_case "memmerge: partial-path availability" `Quick
      test_memmerge_partial_path;
    Alcotest.test_case "memmerge: cross-iteration store" `Quick
      test_memmerge_cross_iteration;
    Alcotest.test_case "memmerge: local/global classes" `Quick
      test_memmerge_space_classes;
    Alcotest.test_case "hot kernels shrink under the loop passes" `Quick
      test_golden_op_counts;
    Alcotest.test_case "golden hot-kernel op counts" `Quick
      test_golden_op_counts_exact;
  ]
