(* Direct unit tests of the SMX timing model: hand-built VIR kernels
   with known cycle accounting — issue throughput, scoreboard
   dependences, memory-pipe serialization, scheduler partitioning. *)

module I = Safara_vir.Instr
module V = Safara_vir.Vreg
module T = Safara_ir.Types
module K = Safara_vir.Kernel

let arch = Safara_gpu.Arch.kepler_k20xm
let latency = Safara_gpu.Latency.kepler

let f64 rid = { V.rid; rty = T.F64 }
let r32 rid = { V.rid; rty = T.I32 }
let r64 rid = { V.rid; rty = T.I64 }

let kernel code =
  {
    K.kname = "t";
    params = [];
    code = Array.of_list (code @ [ I.Ret ]);
    block = (32, 1, 1);
    axes = [];
    shared_bytes = 0;
  }

let simulate ?(blocks = 1) k =
  let prog = Safara_ir.Program.make "p" [] in
  let mem = Safara_sim.Memory.create () in
  Safara_sim.Memory.alloc mem ~name:"scratch" ~elem:T.F64 ~length:4096;
  let env = { Safara_sim.Interp.scalars = []; mem } in
  Safara_sim.Timing.simulate_resident_set ~arch ~latency ~prog ~env
    ~grid:(blocks, 1, 1) ~blocks_per_sm:blocks k

(* n independent 32-bit adds: issue cost 1 each *)
let independent_adds n =
  List.init n (fun i ->
      I.Bin { op = I.Add; dst = r32 (i + 1); a = I.Imm 1; b = I.Imm 2 })

(* f64 adds dual-issue: cost 2 per instruction on the warp pipeline *)
let f64_adds n =
  List.init n (fun i ->
      I.Bin { op = I.Add; dst = f64 (i + 1); a = I.FImm 1.0; b = I.FImm 2.0 })

(* n dependent adds: a serial chain paying the ALU latency each step *)
let dependent_adds n =
  I.Mov { dst = f64 0; src = I.FImm 0.0 }
  :: List.init n (fun i ->
         I.Bin { op = I.Add; dst = f64 (i + 1); a = I.Reg (f64 i); b = I.FImm 1.0 })

let test_independent_issue_rate () =
  let st = simulate (kernel (independent_adds 200)) in
  (* one warp on one scheduler: ~1 instruction per cycle *)
  Alcotest.(check bool) "close to issue-limited" true
    (st.Safara_sim.Timing.cycles >= 200. && st.Safara_sim.Timing.cycles < 260.);
  (* f64 arithmetic issues at half rate *)
  let st64 = simulate (kernel (f64_adds 200)) in
  Alcotest.(check bool) "f64 at half rate" true
    (st64.Safara_sim.Timing.cycles >= 400. && st64.Safara_sim.Timing.cycles < 470.)

let test_dependent_chain_latency () =
  let st = simulate (kernel (dependent_adds 50)) in
  (* f64 dependent adds pay the f64 latency each step *)
  let expected = 50. *. float_of_int latency.Safara_gpu.Latency.f64_latency in
  Alcotest.(check bool) "close to latency-limited" true
    (st.Safara_sim.Timing.cycles >= expected -. 30.
    && st.Safara_sim.Timing.cycles < expected +. 60.)

let test_warps_hide_dependent_latency () =
  (* the same dependent chain in many warps: chains interleave, so the
     per-warp latency is hidden and total time grows slowly *)
  let one = simulate (kernel (dependent_adds 50)) in
  let k8 = { (kernel (dependent_adds 50)) with K.block = (256, 1, 1) } in
  let eight = simulate k8 in
  Alcotest.(check bool) "8 warps nearly free" true
    (eight.Safara_sim.Timing.cycles < 1.6 *. one.Safara_sim.Timing.cycles)

let mem_op ~access =
  let addr = r64 100 in
  [
    I.Mov { dst = addr; src = I.Imm 65536 };
    I.Ld
      {
        dst = f64 0;
        addr;
        mem = { I.m_space = Safara_gpu.Memspace.Global; m_access = access; m_bytes = 8 };
        note = "scratch";
      };
    I.St
      {
        src = I.Reg (f64 0);
        addr;
        mem = { I.m_space = Safara_gpu.Memspace.Global; m_access = access; m_bytes = 8 };
        note = "scratch";
      };
  ]

let test_uncoalesced_transactions () =
  let rec repeat n l = if n = 0 then [] else l @ repeat (n - 1) l in
  let co = simulate (kernel (repeat 20 (mem_op ~access:Safara_gpu.Memspace.Coalesced))) in
  let un =
    simulate (kernel (repeat 20 (mem_op ~access:(Safara_gpu.Memspace.Uncoalesced 32))))
  in
  Alcotest.(check bool) "many more transactions" true
    (un.Safara_sim.Timing.transactions >= 8 * co.Safara_sim.Timing.transactions);
  Alcotest.(check bool) "uncoalesced slower" true
    (un.Safara_sim.Timing.cycles > 1.2 *. co.Safara_sim.Timing.cycles)

let test_label_costs_nothing () =
  let st1 = simulate (kernel (independent_adds 10)) in
  let with_labels =
    List.concat_map (fun i -> [ I.Label (Printf.sprintf "L%d" (Hashtbl.hash i)) ; i ])
      (independent_adds 10)
  in
  let st2 = simulate (kernel with_labels) in
  Alcotest.(check int) "same instruction count" st1.Safara_sim.Timing.instructions
    st2.Safara_sim.Timing.instructions

let test_scheduler_partitioning () =
  (* 4 warps (one per scheduler) issue independent work fully in
     parallel: time ~ the one-warp time, not 4x *)
  let one = simulate (kernel (independent_adds 100)) in
  let k4 = { (kernel (independent_adds 100)) with K.block = (128, 1, 1) } in
  let four = simulate k4 in
  Alcotest.(check bool) "4 schedulers in parallel" true
    (four.Safara_sim.Timing.cycles < 1.5 *. one.Safara_sim.Timing.cycles);
  (* 8 warps share 4 schedulers: roughly 2x the issue time *)
  let k8 = { (kernel (independent_adds 100)) with K.block = (256, 1, 1) } in
  let eight = simulate k8 in
  Alcotest.(check bool) "oversubscribed schedulers serialize" true
    (eight.Safara_sim.Timing.cycles > 1.5 *. one.Safara_sim.Timing.cycles)

let test_sfu_issue_cost () =
  let sqrt_chain n =
    I.Mov { dst = f64 0; src = I.FImm 2.0 }
    :: List.init n (fun i -> I.Una { op = I.Sqrt; dst = f64 (i + 1); a = I.Reg (f64 0) })
  in
  let alu = simulate (kernel (independent_adds 60)) in
  let sfu = simulate (kernel (sqrt_chain 60)) in
  (* SFU ops occupy the warp pipeline ~4x longer than simple ALU ops *)
  Alcotest.(check bool) "SFU ops issue slower" true
    (sfu.Safara_sim.Timing.cycles > 3. *. alu.Safara_sim.Timing.cycles)

(* --- the segment table ---------------------------------------------- *)

(* The recency table as a [Hashtbl]: what {!Safara_sim.Timing.touch}
   must answer, touch for touch. *)
let hashtbl_cache (arch : Safara_gpu.Arch.t) =
  let seg_bytes = arch.Safara_gpu.Arch.mem_segment_bytes in
  let l1 = max 16 (arch.Safara_gpu.Arch.read_only_cache_bytes / seg_bytes) in
  let l2 =
    max l1 (arch.Safara_gpu.Arch.l2_bytes / seg_bytes / max 1 arch.Safara_gpu.Arch.num_sms)
  in
  let last = Hashtbl.create 16 and clock = ref 0 in
  fun ~ro addr ->
    let seg = addr / seg_bytes in
    let age =
      match Hashtbl.find_opt last seg with Some t -> !clock - t | None -> max_int
    in
    incr clock;
    Hashtbl.replace last seg !clock;
    if age < l1 && ro then Safara_sim.Timing.L1
    else if age < l2 then Safara_sim.Timing.L2
    else Safara_sim.Timing.Dram

(* A seeded address stream: streaming runs, re-touches of recent
   addresses (L1/L2 distances), scattered addresses that add thousands
   of segments (so the table grows several times), and a few negative
   addresses. *)
let address_stream seed n =
  let rs = Random.State.make [| seed |] in
  let recent = Array.make 4096 0 and cursor = ref 4096 in
  List.init n (fun i ->
      let addr =
        match Random.State.int rs 100 with
        | r when r < 40 ->
            cursor := !cursor + (8 * (1 + Random.State.int rs 4));
            !cursor
        | r when r < 70 -> recent.(Random.State.int rs (1 + min i 4095))
        | r when r < 99 -> Random.State.int rs (1 lsl 26)
        | _ -> -Random.State.int rs 100_000
      in
      recent.(i land 4095) <- addr;
      (Random.State.bool rs, addr))

let test_segment_table_matches_hashtbl () =
  List.iter
    (fun (arch : Safara_gpu.Arch.t) ->
      List.iter
        (fun seed ->
          let stream = address_stream seed 30_000 in
          let segs = Hashtbl.create 1024 in
          List.iter
            (fun (_, a) ->
              Hashtbl.replace segs (a / arch.Safara_gpu.Arch.mem_segment_bytes) ())
            stream;
          Alcotest.(check bool) "the stream crosses table growth" true
            (Hashtbl.length segs > 4096);
          let table = Safara_sim.Timing.cache_model arch in
          let reference = hashtbl_cache arch in
          let tiers = Hashtbl.create 3 in
          List.iteri
            (fun i (ro, a) ->
              let got = Safara_sim.Timing.touch table ~ro a
              and want = reference ~ro a in
              Hashtbl.replace tiers want ();
              if got <> want then
                Alcotest.failf "%s, seed %d: touch %d (address %d) differs"
                  arch.Safara_gpu.Arch.key seed i a)
            stream;
          Alcotest.(check int) "every tier served" 3 (Hashtbl.length tiers))
        [ 1; 2; 3 ])
    Safara_gpu.Arch.all

(* --- labels: the threaded engine skips them ------------------------- *)

let bool_reg rid = { V.rid; rty = T.Bool }

let engines_agree name ?(blocks = 1) k =
  let module D = Safara_sim.Decode in
  let run e = D.with_engine e (fun () -> simulate ~blocks k) in
  let r = run D.Reference and t = run D.Threaded in
  let bits f = Int64.bits_of_float f in
  let open Safara_sim.Timing in
  Alcotest.(check int64) (name ^ ": cycles") (bits r.cycles) (bits t.cycles);
  Alcotest.(check int64) (name ^ ": issue stall") (bits r.issue_stall) (bits t.issue_stall);
  Alcotest.(check int) (name ^ ": instructions") r.instructions t.instructions;
  Alcotest.(check int) (name ^ ": transactions") r.transactions t.transactions;
  Alcotest.(check int) (name ^ ": warps") r.warps t.warps

(* Each warp loops [3 + (tid / 32) mod 3] times, so warps finish at
   different times. Branches land on labels, one of them the first of
   two consecutive labels. *)
let label_loop =
  let i = r32 1 and tid = r32 2 and w = r32 3 and lim = r32 4 and p = bool_reg 5 in
  [
    I.Spec { dst = tid; sp = I.Tid I.X };
    I.Bin { op = I.Div; dst = w; a = I.Reg tid; b = I.Imm 32 };
    I.Bin { op = I.Rem; dst = w; a = I.Reg w; b = I.Imm 3 };
    I.Bin { op = I.Add; dst = lim; a = I.Reg w; b = I.Imm 3 };
    I.Mov { dst = i; src = I.Imm 0 };
    I.Label "head";
    I.Label "head2";
  ]
  @ mem_op ~access:Safara_gpu.Memspace.Coalesced
  @ [
      I.Bin { op = I.Add; dst = i; a = I.Reg i; b = I.Imm 1 };
      I.Setp { cmp = I.Lt; dst = p; a = I.Reg i; b = I.Reg lim };
      I.Brc { pred = p; if_true = true; target = "head" };
      I.Bra "out";
      I.Label "skipped";
    ]
  @ independent_adds 3
  @ [ I.Label "out"; I.Label "out2" ]
  @ dependent_adds 4

let test_labels_reference_equals_threaded () =
  let code l = { (kernel []) with K.code = Array.of_list l } in
  let multi k = { k with K.block = (256, 1, 1) } in
  (* a label at pc 0 *)
  engines_agree "label at entry" ~blocks:2
    (multi (kernel ((I.Label "entry" :: mem_op ~access:Safara_gpu.Memspace.Coalesced)
                    @ dependent_adds 5)));
  (* consecutive labels mid-stream, and labels as the last instructions
     with no [Ret]: the warp falls off the end *)
  engines_agree "consecutive labels" ~blocks:2
    (multi
       (code
          (independent_adds 4
          @ [ I.Label "a"; I.Label "b"; I.Label "c" ]
          @ dependent_adds 3
          @ [ I.Label "z1"; I.Label "z2" ])));
  (* nothing but labels *)
  engines_agree "only labels" (code [ I.Label "x"; I.Label "y" ]);
  (* branches onto labels, warps leaving the loop at different times *)
  engines_agree "loop over labels" ~blocks:3 (multi (kernel label_loop));
  engines_agree "loop over labels, one warp" (kernel label_loop)

let suite =
  [
    Alcotest.test_case "independent issue rate" `Quick test_independent_issue_rate;
    Alcotest.test_case "dependent chain latency" `Quick test_dependent_chain_latency;
    Alcotest.test_case "warps hide latency" `Quick test_warps_hide_dependent_latency;
    Alcotest.test_case "uncoalesced transactions" `Quick test_uncoalesced_transactions;
    Alcotest.test_case "labels are free" `Quick test_label_costs_nothing;
    Alcotest.test_case "scheduler partitioning" `Quick test_scheduler_partitioning;
    Alcotest.test_case "SFU issue cost" `Quick test_sfu_issue_cost;
    Alcotest.test_case "segment table = Hashtbl reference" `Quick
      test_segment_table_matches_hashtbl;
    Alcotest.test_case "labels: reference = threaded" `Quick
      test_labels_reference_equals_threaded;
  ]
