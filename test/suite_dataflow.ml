(* Dataflow-framework tests: CFG construction, each lattice's solver
   fixpoint (including loops and back-edges), the bitset screen in
   front of the def-before-use site analysis (edge cases, plus a
   seeded differential against [Reach.analyze] over every shipped
   kernel and its deletion mutants), the three catalog passes
   built on them (copy-prop, strength-red, dce), a wide-kernel
   performance regression guarding the linear kill indices, the
   static-pressure cross-validation against the linear-scan allocator,
   and the differential sweep proving the passes preserve simulated
   results bit for bit across workloads, profiles, engines and pool
   sizes. *)

open Safara_suites
module I = Safara_vir.Instr
module V = Safara_vir.Vreg
module K = Safara_vir.Kernel
module Cfg = Safara_vir.Cfg
module D = Safara_vir.Dataflow
module T = Safara_ir.Types
module M = Safara_gpu.Memspace
module C = Safara_core.Compiler
module Facts = Safara_vir.Facts

(* a VIR pass on bare code: its result on fresh facts of [c] *)
let opt pass c = Facts.code (pass (Facts.make c))

(* --- builders ----------------------------------------------------- *)

let r id ty = { V.rid = id; rty = ty }
let i32 id = r id T.I32
let i64 id = r id T.I64
let prd id = r id T.Bool
let gmem = { I.m_space = M.Global; m_access = M.Coalesced; m_bytes = 8 }
let movi d c = I.Mov { dst = d; src = I.Imm c }
let movr d s = I.Mov { dst = d; src = I.Reg s }
let add d a b = I.Bin { op = I.Add; dst = d; a; b }
let mul d a b = I.Bin { op = I.Mul; dst = d; a; b }
let setp d a b = I.Setp { cmp = I.Lt; dst = d; a; b }
let brc pr target = I.Brc { pred = pr; if_true = true; target }
let ldp d param = I.Ldp { dst = d; param }
let st s addr = I.St { src = I.Reg s; addr; mem = gmem; note = "arr" }

let kernel code =
  {
    K.kname = "t";
    params = [];
    code = Array.of_list code;
    block = (128, 1, 1);
    axes = [];
    shared_bytes = 0;
  }

let instr = Alcotest.testable (Fmt.of_to_string I.to_string) ( = )
let ints = Alcotest.(list int)

(* --- CFG construction --------------------------------------------- *)

let test_cfg_straight () =
  let cfg =
    Cfg.build [| movi (i32 0) 1; add (i32 1) (I.Reg (i32 0)) (I.Imm 2); I.Ret |]
  in
  Alcotest.(check int) "blocks" 1 (Cfg.num_blocks cfg);
  let b = cfg.Cfg.blocks.(0) in
  Alcotest.(check int) "first" 0 b.Cfg.first;
  Alcotest.(check int) "last" 2 b.Cfg.last;
  Alcotest.(check ints) "succs" [] b.Cfg.succs;
  Alcotest.(check ints) "preds" [] b.Cfg.preds;
  Alcotest.(check ints) "rpo" [ 0 ] (Array.to_list cfg.Cfg.rpo)

let diamond =
  [|
    movi (i32 0) 1;
    setp (prd 1) (I.Reg (i32 0)) (I.Imm 10);
    brc (prd 1) "then";
    movi (i32 2) 1;
    I.Bra "join";
    I.Label "then";
    movi (i32 2) 2;
    I.Label "join";
    I.Ret;
  |]

let test_cfg_diamond () =
  let cfg = Cfg.build diamond in
  Alcotest.(check int) "blocks" 4 (Cfg.num_blocks cfg);
  Alcotest.(check ints) "entry succs" [ 1; 2 ] cfg.Cfg.blocks.(0).Cfg.succs;
  Alcotest.(check ints) "else succs" [ 3 ] cfg.Cfg.blocks.(1).Cfg.succs;
  Alcotest.(check ints) "then succs" [ 3 ] cfg.Cfg.blocks.(2).Cfg.succs;
  Alcotest.(check ints) "join succs" [] cfg.Cfg.blocks.(3).Cfg.succs;
  Alcotest.(check ints) "join preds" [ 1; 2 ]
    (List.sort compare cfg.Cfg.blocks.(3).Cfg.preds);
  Alcotest.(check int) "label then" 2 (Hashtbl.find cfg.Cfg.label_block "then");
  Alcotest.(check int) "label join" 3 (Hashtbl.find cfg.Cfg.label_block "join");
  Alcotest.(check int) "rpo starts at entry" 0 cfg.Cfg.rpo.(0);
  Alcotest.(check bool) "all reachable" true
    (Array.for_all Fun.id (Cfg.reachable cfg))

let test_cfg_loop_backedge () =
  let cfg =
    Cfg.build
      [|
        movi (i32 0) 0;
        I.Label "loop";
        add (i32 0) (I.Reg (i32 0)) (I.Imm 1);
        setp (prd 1) (I.Reg (i32 0)) (I.Imm 10);
        brc (prd 1) "loop";
        I.Ret;
      |]
  in
  Alcotest.(check int) "blocks" 3 (Cfg.num_blocks cfg);
  (* the loop block branches to itself: a self back-edge *)
  Alcotest.(check ints) "loop succs" [ 1; 2 ] cfg.Cfg.blocks.(1).Cfg.succs;
  Alcotest.(check ints) "loop preds" [ 0; 1 ]
    (List.sort compare cfg.Cfg.blocks.(1).Cfg.preds)

let test_cfg_unreachable () =
  let cfg =
    Cfg.build
      [| movi (i32 0) 1; I.Bra "end"; movi (i32 1) 2; I.Label "end"; I.Ret |]
  in
  Alcotest.(check int) "blocks" 3 (Cfg.num_blocks cfg);
  Alcotest.(check (array bool))
    "reachable" [| true; false; true |] (Cfg.reachable cfg);
  (* unreachable blocks trail the rpo in id order *)
  Alcotest.(check ints) "rpo" [ 0; 2; 1 ] (Array.to_list cfg.Cfg.rpo)

(* --- liveness ----------------------------------------------------- *)

let test_live_units () =
  let code =
    [|
      ldp (i64 0) "a";
      movi (i32 1) 2;
      setp (prd 2) (I.Reg (i32 1)) (I.Imm 3);
      I.Label "use";
      st (i32 1) (i64 0);
      brc (prd 2) "use";
      I.Ret;
    |]
  in
  let facts = Facts.make code in
  let cfg = Facts.cfg facts and info = Facts.live facts in
  let set rids =
    let s = D.Bits.create 3 in
    List.iter (D.Bits.add s) rids;
    s
  in
  Alcotest.(check int) "i64 is 2 units" 2 (D.Live.units info (set [ 0 ]));
  Alcotest.(check int) "predicate is 0 units" 0 (D.Live.units info (set [ 2 ]));
  let use = Hashtbl.find cfg.Cfg.label_block "use" in
  Alcotest.(check int) "mixed" 3 (D.Live.units info info.D.Live.live_in.(use))

let test_live_straightline_peak () =
  let code =
    [|
      ldp (i64 0) "a";
      movi (i32 1) 2;
      add (i32 2) (I.Reg (i32 1)) (I.Imm 1);
      st (i32 2) (i64 0);
      I.Ret;
    |]
  in
  (* peak: the address register (2 units) plus one 32-bit value *)
  Alcotest.(check int) "max units" 3 (Facts.max_units (Facts.make code))

let test_live_loop_carried () =
  let code =
    [|
      movi (i32 0) 0;
      movi (i32 9) 7;
      I.Label "loop";
      add (i32 0) (I.Reg (i32 0)) (I.Imm 1);
      setp (prd 1) (I.Reg (i32 0)) (I.Imm 10);
      brc (prd 1) "loop";
      movr (i32 3) (i32 9);
      I.Ret;
    |]
  in
  let facts = Facts.make code in
  let cfg = Facts.cfg facts and info = Facts.live facts in
  let loop = Hashtbl.find cfg.Cfg.label_block "loop" in
  (* the induction register is loop-carried; r9 is live across the
     whole loop to its post-loop use — both must survive the
     back-edge join *)
  Alcotest.(check bool) "induction live" true
    (D.Bits.mem info.D.Live.live_in.(loop) 0);
  Alcotest.(check bool) "r9 live through loop" true
    (D.Bits.mem info.D.Live.live_in.(loop) 9)

(* every registry kernel on kepler straight out of codegen (no
   peephole) and after the full profile's tail *)
let registry_kernels =
  lazy
    (let arch = Safara_gpu.Arch.kepler_k20xm in
     List.concat_map
       (fun (w : Workload.t) ->
         let prog = Safara_lang.Frontend.compile w.Workload.source in
         let resolved = Safara_analysis.Schedule.resolve_program prog in
         List.map
           (fun r ->
             ( w.Workload.id ^ " codegen",
               Safara_vir.Codegen.compile_region ~arch resolved r ))
           resolved.Safara_ir.Program.regions
         @ List.map
             (fun (k, _) -> (w.Workload.id ^ " tail", k))
             (C.compile ~arch C.Full prog).C.c_kernels)
       Registry.all)

let test_iter_defs_uses () =
  let collect iter ins =
    let acc = ref [] in
    iter (fun r -> acc := r :: !acc) ins;
    List.rev !acc
  in
  let regs = Alcotest.testable (Fmt.of_to_string (fun rs ->
      String.concat "," (List.map V.to_string rs))) ( = ) in
  List.iter
    (fun (what, (k : K.t)) ->
      Array.iteri
        (fun i ins ->
          let at = Printf.sprintf "%s %s instr %d" what k.K.kname i in
          Alcotest.check regs (at ^ " defs") (I.defs ins) (collect I.iter_defs ins);
          Alcotest.check regs (at ^ " uses") (I.uses ins) (collect I.iter_uses ins))
        k.K.code)
    (Lazy.force registry_kernels)

(* the solution satisfies the liveness equations, checked against
   sets built from the [defs]/[uses] lists: live-out is the union of
   the successors' live-in, and live-in is the block's upward-exposed
   uses plus live-out minus its defs *)
let test_live_equations () =
  let module S = Set.Make (Int) in
  let set bits =
    let s = ref S.empty in
    D.Bits.iter (fun k -> s := S.add k !s) bits;
    !s
  in
  let rids rs = S.of_list (List.map (fun (r : V.t) -> r.V.rid) rs) in
  let sets = Alcotest.testable (Fmt.of_to_string (fun s ->
      String.concat "," (List.map string_of_int (S.elements s)))) S.equal in
  List.iter
    (fun (what, (k : K.t)) ->
      let facts = Facts.make k.K.code in
      let cfg = Facts.cfg facts and info = Facts.live facts in
      Array.iter
        (fun (b : Cfg.block) ->
          let at = Printf.sprintf "%s %s block %d" what k.K.kname b.Cfg.bid in
          let out = set info.D.Live.live_out.(b.Cfg.bid) in
          Alcotest.check sets (at ^ " live-out")
            (List.fold_left
               (fun acc s -> S.union acc (set info.D.Live.live_in.(s)))
               S.empty b.Cfg.succs)
            out;
          let exposed = ref S.empty and defined = ref S.empty in
          Cfg.iter_instrs cfg b.Cfg.bid (fun _ ins ->
              exposed := S.union !exposed (S.diff (rids (I.uses ins)) !defined);
              defined := S.union !defined (rids (I.defs ins)));
          Alcotest.check sets (at ^ " live-in")
            (S.union !exposed (S.diff out !defined))
            (set info.D.Live.live_in.(b.Cfg.bid)))
        cfg.Cfg.blocks)
    (Lazy.force registry_kernels)

(* --- reaching definitions / possibly-uninitialized ---------------- *)

let uninitialized code =
  let facts = Facts.make code in
  D.Reach.possibly_uninitialized (Facts.cfg facts) (Facts.sets facts)

let test_reach_one_path () =
  let code =
    [|
      movi (i32 0) 5;
      setp (prd 1) (I.Reg (i32 0)) (I.Imm 3);
      brc (prd 1) "skip";
      movi (i32 2) 1;
      I.Label "skip";
      add (i32 3) (I.Reg (i32 2)) (I.Imm 0);
      I.Ret;
    |]
  in
  match uninitialized code with
  | [ f ] ->
      Alcotest.(check int) "faulting use" 5 f.D.Reach.f_at;
      Alcotest.(check int) "register" 2 f.D.Reach.f_reg.V.rid;
      Alcotest.(check ints) "partial def sites" [ 3 ] f.D.Reach.f_partial
  | fs -> Alcotest.failf "expected exactly one fault, got %d" (List.length fs)

let test_reach_never_defined () =
  let code = [| add (i32 1) (I.Reg (i32 9)) (I.Imm 1); I.Ret |] in
  match uninitialized code with
  | [ f ] ->
      Alcotest.(check int) "faulting use" 0 f.D.Reach.f_at;
      Alcotest.(check ints) "no partial defs" [] f.D.Reach.f_partial
  | fs -> Alcotest.failf "expected exactly one fault, got %d" (List.length fs)

let test_reach_loop_clean () =
  let code =
    [|
      movi (i32 0) 0;
      I.Label "loop";
      add (i32 0) (I.Reg (i32 0)) (I.Imm 1);
      setp (prd 1) (I.Reg (i32 0)) (I.Imm 10);
      brc (prd 1) "loop";
      movr (i32 2) (i32 0);
      I.Ret;
    |]
  in
  Alcotest.(check int) "no faults" 0
    (List.length (uninitialized code))

let test_verify_partial_path_message () =
  let code =
    [|
      movi (i32 0) 5;
      setp (prd 1) (I.Reg (i32 0)) (I.Imm 3);
      brc (prd 1) "skip";
      movi (i32 2) 1;
      I.Label "skip";
      movr (i32 3) (i32 2);
      st (i32 3) (i64 4);
      I.Ret;
    |]
  in
  (* i64 4 is never defined; i32 2 only on one path: the verifier must
     distinguish the two in its messages *)
  let ds = Safara_vir.Verify.verify (kernel (Array.to_list code)) in
  let msgs = List.map (fun d -> d.Safara_diag.Diagnostic.message) ds in
  Alcotest.(check bool) "some-paths wording" true
    (List.exists
       (fun m ->
         Str_helpers.contains m "on some paths"
         && Str_helpers.contains m "used before definition")
       msgs);
  Alcotest.(check bool) "never-defined stays unqualified" true
    (List.exists
       (fun m ->
         Str_helpers.contains m "used before definition"
         && not (Str_helpers.contains m "on some paths"))
       msgs)

(* --- the bitset screen in front of the site analysis -------------- *)

let fault_triples fs =
  List.map
    (fun (f : D.Reach.fault) ->
      (f.D.Reach.f_at, f.D.Reach.f_reg.V.rid, f.D.Reach.f_partial))
    fs

let triples = Alcotest.(list (triple int int ints))

(* the fault list, after checking the screen's own verdict: a screen
   that fires needlessly still yields the right faults (the site
   analysis runs), so only this check sees an imprecise screen *)
let screened code =
  let facts = Facts.make code in
  let cfg = Facts.cfg facts and sets = Facts.sets facts in
  let fs = fault_triples (D.Reach.possibly_uninitialized cfg sets) in
  Alcotest.(check bool) "screen verdict" (fs <> []) (D.Reach.may_see_uninit cfg sets);
  fs

let test_screen_word_boundaries () =
  (* define every rid 0..127 but [k], then use each once: exactly the
     use of [k] faults, so no bit leaks into a neighbour across the
     63-bit word edges *)
  List.iter
    (fun k ->
      let defs = List.filter (( <> ) k) (List.init 128 Fun.id) in
      let code =
        Array.of_list
          (List.map (fun j -> movi (i32 j) j) defs
          @ List.init 128 (fun j -> movr (i32 j) (i32 j))
          @ [ I.Ret ])
      in
      Alcotest.check triples
        (Printf.sprintf "only r%d faults" k)
        [ (127 + k, k, []) ]
        (screened code))
    [ 62; 63; 64; 125; 126 ];
  Alcotest.check triples "all defined" []
    (screened
       (Array.of_list
          (List.init 128 (fun j -> movi (i32 j) j)
          @ List.init 128 (fun j -> movr (i32 j) (i32 j))
          @ [ I.Ret ])))

let test_screen_sparse_high_rid () =
  Alcotest.check triples "undefined r5000 beside r0"
    [ (1, 5000, []) ]
    (screened [| movi (i32 0) 1; add (i32 0) (I.Reg (i32 5000)) (I.Imm 1); I.Ret |]);
  Alcotest.check triples "defined r5000 alone" []
    (screened [| movi (i32 5000) 1; movr (i32 5000) (i32 5000); I.Ret |]);
  Alcotest.check triples "defined r5000 beside r0" []
    (screened
       [| movi (i32 0) 1; movi (i32 5000) 2; add (i32 0) (I.Reg (i32 5000)) (I.Reg (i32 0)); I.Ret |])

let test_screen_join_keeps_every_arm () =
  (* the join's first predecessor defines r2, the second does not:
     the join must keep the second arm's bit *)
  Alcotest.check triples "undefined on the later arm"
    [ (7, 2, [ 3 ]) ]
    (screened
       [|
         movi (i32 0) 5;
         setp (prd 1) (I.Reg (i32 0)) (I.Imm 3);
         brc (prd 1) "then";
         movi (i32 2) 1;
         I.Bra "join";
         I.Label "then";
         I.Label "join";
         movr (i32 3) (i32 2);
         I.Ret;
       |])

let test_screen_unreachable_use () =
  Alcotest.check triples "a use in dead code is not reported" []
    (screened
       [|
         movi (i32 0) 1;
         I.Bra "end";
         add (i32 1) (I.Reg (i32 9)) (I.Imm 1);
         I.Label "end";
         movr (i32 2) (i32 0);
         I.Ret;
       |])

let test_screen_loop_carried () =
  (* r2 is read at the top of the loop and only written below it: the
     first trip sees it uninitialized, later trips see instr 3 *)
  Alcotest.check triples "use before the back-edge def"
    [ (2, 2, [ 3 ]) ]
    (screened
       [|
         movi (i32 0) 0;
         I.Label "loop";
         add (i32 1) (I.Reg (i32 2)) (I.Imm 1);
         movi (i32 2) 5;
         add (i32 0) (I.Reg (i32 0)) (I.Imm 1);
         setp (prd 3) (I.Reg (i32 0)) (I.Imm 10);
         brc (prd 3) "loop";
         I.Ret;
       |])

let test_screen_empty_kernel () =
  Alcotest.check triples "no blocks, no faults" [] (screened [||]);
  let msgs =
    List.map
      (fun d -> d.Safara_diag.Diagnostic.message)
      (Safara_vir.Verify.verify (kernel []))
  in
  Alcotest.(check (list string)) "only the control-flow fault"
    [ "instr 0: kernel has no code" ] msgs

(* the fault list as the site analysis alone derives it, straight
   from the exported [Reach.analyze] — the pre-screen definition *)
let reach_faults cfg =
  let at_start, _ = D.Reach.analyze cfg in
  let faults = ref [] in
  for b = 0 to Cfg.num_blocks cfg - 1 do
    let st = ref at_start.(b) in
    Cfg.iter_instrs cfg b (fun i ins ->
        List.iter
          (fun (u : V.t) ->
            match D.IM.find_opt u.V.rid !st with
            | Some sites when D.IS.mem D.Reach.uninit sites ->
                faults :=
                  (i, u.V.rid, D.IS.elements (D.IS.remove D.Reach.uninit sites))
                  :: !faults
            | _ -> ())
          (I.uses ins);
        List.iter
          (fun (d : V.t) -> st := D.IM.add d.V.rid (D.IS.singleton i) !st)
          (I.defs ins))
  done;
  List.rev !faults

(* run a profile's pipeline pass by pass, keeping the kernels codegen
   emits as well as the final assembled ones *)
let codegen_and_final ~arch p prog =
  let desc = C.desc_of_profile p in
  let ctx =
    Safara_core.Pass.make_ctx
      ~arch:(Safara_core.Pipeline.effective_arch arch desc)
      ~latency:(Safara_gpu.Latency.for_arch arch)
  in
  let at_codegen = ref [] in
  let rec go : type a b. (a, b) Safara_core.Pipeline.seq -> a -> b =
   fun s v ->
    match s with
    | Safara_core.Pipeline.Done -> v
    | Safara_core.Pipeline.Step (pass, rest) ->
        let v' = pass.Safara_core.Pass.run ctx v in
        (match pass.Safara_core.Pass.output with
        | Safara_core.Pass.Vir when pass.Safara_core.Pass.name = "codegen" ->
            at_codegen := v'.Safara_core.Pass.v_kernels
        | _ -> ());
        go rest v'
  in
  let final = go (Safara_core.Pipeline.build desc) prog in
  List.map fst !at_codegen
  @ List.map (fun (k, _, _) -> k) final.Safara_core.Pass.a_kernels

let differential_seed = 20_161_013
let mutants_per_kernel = 3

let test_screen_differential () =
  Printf.printf "differential seed: %d\n%!" differential_seed;
  let rng = Random.State.make [| differential_seed |] in
  let checked = ref 0 and faulting = ref 0 in
  let compare_code what code =
    let facts = Facts.make code in
    let cfg = Facts.cfg facts and sets = Facts.sets facts in
    let expected = reach_faults cfg in
    let got = fault_triples (D.Reach.possibly_uninitialized cfg sets) in
    let fired = D.Reach.may_see_uninit cfg sets in
    incr checked;
    if expected <> [] then incr faulting;
    if got <> expected || fired <> (expected <> []) then
      Alcotest.failf
        "%s (seed %d): screened %d faults (screen %b), site analysis %d" what
        differential_seed (List.length got) fired (List.length expected)
  in
  List.iter
    (fun (w : Workload.t) ->
      let prog = Safara_lang.Frontend.compile w.Workload.source in
      List.iter
        (fun arch ->
          List.iter
            (fun p ->
              List.iter
                (fun (k : K.t) ->
                  let what =
                    Printf.sprintf "%s/%s/%s/%s" w.Workload.id
                      (C.profile_name p) arch.Safara_gpu.Arch.name k.K.kname
                  in
                  let code = k.K.code in
                  compare_code what code;
                  let n = Array.length code in
                  for _ = 1 to mutants_per_kernel do
                    if n > 0 then begin
                      let del = Random.State.int rng n in
                      compare_code
                        (Printf.sprintf "%s minus instr %d" what del)
                        (Array.append (Array.sub code 0 del)
                           (Array.sub code (del + 1) (n - del - 1)))
                    end
                  done)
                (codegen_and_final ~arch p prog))
            C.all_profiles)
        Safara_gpu.Arch.all)
    Registry.all;
  Printf.printf "%d kernel codes compared, %d with faults, 0 mismatches\n"
    !checked !faulting;
  Alcotest.(check bool) "mutants exercise the explainer" true (!faulting > 0)

(* --- available copies --------------------------------------------- *)

let copies_at_join arm_a arm_b =
  let code =
    Array.of_list
      ([
         movi (i64 0) 5;
         setp (prd 1) (I.Reg (i64 0)) (I.Imm 9);
         brc (prd 1) "then";
       ]
      @ arm_a
      @ [ I.Bra "join"; I.Label "then" ]
      @ arm_b
      @ [ I.Label "join"; I.Ret ])
  in
  let cfg = Cfg.build code in
  let at_start, _ = D.Copies.analyze cfg in
  match at_start.(Hashtbl.find cfg.Cfg.label_block "join") with
  | None -> Alcotest.fail "join unreachable"
  | Some env -> D.Copies.find 2 env

let test_copies_join_agree () =
  match copies_at_join [ movr (i64 2) (i64 0) ] [ movr (i64 2) (i64 0) ] with
  | Some (I.Reg s) ->
      Alcotest.(check bool) "copy of r0 survives the join" true
        (V.equal s (i64 0))
  | _ -> Alcotest.fail "copy fact lost at the join"

let test_copies_join_disagree () =
  match copies_at_join [ movr (i64 2) (i64 0) ] [ movi (i64 2) 7 ] with
  | None -> ()
  | Some _ -> Alcotest.fail "disagreeing arms must meet to no-fact"

(* --- affine values ------------------------------------------------ *)

let affine_fact =
  Alcotest.testable
    (Fmt.of_to_string (fun (f : D.Affine.fact) ->
         match f.D.Affine.base with
         | None -> Printf.sprintf "const %d" f.D.Affine.k
         | Some b -> Printf.sprintf "r%d + %d" b.V.rid f.D.Affine.k))
    D.Affine.fact_equal

let test_affine_chain () =
  let u = i64 0 in
  let code =
    [|
      ldp u "n";
      add (i64 1) (I.Reg u) (I.Imm 2);
      add (i64 2) (I.Reg (i64 1)) (I.Imm 3);
      movr (i64 3) (i64 2);
      add (i64 4) (I.Reg (i64 3)) (I.Imm (-5));
      I.Ret;
    |]
  in
  let env = D.Affine.create ~nregs:(I.rid_bound code) code in
  Array.iter (D.Affine.step env) code;
  let find rid = D.Affine.find rid env in
  Alcotest.(check (option affine_fact))
    "chain normalizes to the deepest base"
    (Some { D.Affine.base = Some u; k = 5 })
    (find 2);
  Alcotest.(check (option affine_fact))
    "copy preserves the fact"
    (Some { D.Affine.base = Some u; k = 5 })
    (find 3);
  Alcotest.(check (option affine_fact))
    "offsets cancel back to the base"
    (Some { D.Affine.base = Some u; k = 0 })
    (find 4)

let test_affine_self_update_and_kill () =
  let u = i64 0 and x = i64 1 in
  let code =
    [|
      ldp u "n";
      movr x u;
      add x (I.Reg x) (I.Imm 1);
      add x (I.Reg x) (I.Imm 1);
      movi u 9;
    |]
  in
  let env = D.Affine.create ~nregs:2 code in
  Array.iter (D.Affine.step env) (Array.sub code 0 4);
  Alcotest.(check (option affine_fact))
    "self-update accumulates"
    (Some { D.Affine.base = Some u; k = 2 })
    (D.Affine.find 1 env);
  (* redefining the base must drop every dependent fact (the reverse
     index is what makes this O(dependents)) *)
  D.Affine.step env code.(4);
  Alcotest.(check (option affine_fact))
    "dependent killed with its base" None (D.Affine.find 1 env);
  Alcotest.(check (option affine_fact))
    "base now a constant"
    (Some { D.Affine.base = None; k = 9 })
    (D.Affine.find 0 env)

(* --- strength reduction ------------------------------------------- *)

let test_strength_neighbor_product () =
  let u = i64 0 and p1 = i64 1 and t = i64 2 and q = i64 3 in
  let out =
    opt Safara_vir.Strength.optimize
      [|
        ldp u "n";
        mul p1 (I.Reg u) (I.Imm 8);
        add t (I.Reg u) (I.Imm 1);
        mul q (I.Reg t) (I.Imm 8);
        I.Ret;
      |]
  in
  Alcotest.check instr "neighbor multiply becomes an add off the product"
    (add q (I.Reg p1) (I.Imm 8))
    out.(3)

let test_strength_local_folds () =
  let u = i64 0 in
  let out =
    opt Safara_vir.Strength.optimize
      [|
        ldp u "n";
        movi (i64 1) 5;
        mul (i64 2) (I.Reg (i64 1)) (I.Imm 3);
        mul (i64 3) (I.Reg u) (I.Imm 0);
        mul (i64 4) (I.Reg u) (I.Imm 2);
        mul (i64 5) (I.Reg u) (I.Imm 1);
        I.Bin { op = I.Rem; dst = i64 6; a = I.Reg u; b = I.Imm 1 };
        I.Ret;
      |]
  in
  Alcotest.check instr "const*const folds" (movi (i64 2) 15) out.(2);
  Alcotest.check instr "*0 is zero" (movi (i64 3) 0) out.(3);
  Alcotest.check instr "*2 is a self-add"
    (add (i64 4) (I.Reg u) (I.Reg u))
    out.(4);
  Alcotest.check instr "*1 is a move" (movr (i64 5) u) out.(5);
  Alcotest.check instr "rem 1 is zero" (movi (i64 6) 0) out.(6)

let test_strength_loop_invalidation () =
  let u = i64 0 in
  let code =
    [|
      ldp u "n";
      mul (i64 1) (I.Reg u) (I.Imm 8);
      I.Label "loop";
      mul (i64 2) (I.Reg u) (I.Imm 8);
      add u (I.Reg u) (I.Imm 1);
      setp (prd 3) (I.Reg u) (I.Imm 10);
      brc (prd 3) "loop";
      I.Ret;
    |]
  in
  let out = opt Safara_vir.Strength.optimize code in
  (* the latch redefines the base, so the product is not available on
     the back edge; the must-join at the loop header has to keep the
     multiply *)
  Alcotest.check instr "product killed across the back edge" code.(3) out.(3)

(* --- liveness-driven DCE ------------------------------------------ *)

let test_dce_overwritten_def () =
  let out =
    opt Safara_vir.Dce.optimize
      [| ldp (i64 0) "a"; movi (i32 1) 5; movi (i32 1) 7; st (i32 1) (i64 0); I.Ret |]
  in
  Alcotest.(check int) "first store-to-register removed" 4 (Array.length out);
  Alcotest.check instr "surviving def" (movi (i32 1) 7) out.(1)

let test_dce_dead_chain () =
  let out =
    opt Safara_vir.Dce.optimize
      [|
        movi (i32 0) 5;
        add (i32 1) (I.Reg (i32 0)) (I.Imm 1);
        add (i32 2) (I.Reg (i32 1)) (I.Imm 2);
        I.Ret;
      |]
  in
  Alcotest.(check int) "whole dead chain removed" 1 (Array.length out);
  Alcotest.check instr "only the return survives" I.Ret out.(0)

let test_dce_keeps_effects () =
  let code =
    [| ldp (i64 0) "a"; movi (i32 1) 5; st (i32 1) (i64 0); I.Ret |]
  in
  let out = opt Safara_vir.Dce.optimize code in
  Alcotest.(check int) "stores and their inputs survive" 4 (Array.length out)

(* --- global copy propagation -------------------------------------- *)

let test_copyprop_across_branch () =
  let y = i64 0 and x = i64 1 in
  let out =
    opt Safara_vir.Copyprop.optimize
      [|
        movi y 5;
        movr x y;
        setp (prd 2) (I.Reg y) (I.Imm 9);
        brc (prd 2) "a";
        st x y;
        I.Label "a";
        st x y;
        I.Ret;
      |]
  in
  (* the block-local window resets at the branch and the label; the
     global analysis carries the copy into both, so each store's
     source is forwarded to y *)
  let check_store i =
    match out.(i) with
    | I.St { src = I.Reg s; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "store %d forwarded" i)
          true (V.equal s y)
    | other -> Alcotest.failf "instr %d: expected store, got %s" i (I.to_string other)
  in
  check_store 4;
  check_store 6

(* --- wide-kernel performance regression --------------------------- *)

let test_wide_kernel_linear () =
  (* a 20k-instruction add chain off an unknown base: every
     instruction defines a fresh register whose affine fact hangs off
     the base, every def triggers a kill. With the old
     full-map-filter kills this battery was quadratic (minutes); the
     reverse-dependency indices make it well under the ceiling. *)
  let n = 20_000 in
  let u = i64 0 in
  let chain =
    Array.init (n + 3) (fun i ->
        if i = 0 then ldp u "n"
        else if i = 1 then mul (i64 1) (I.Reg u) (I.Imm 8)
        else if i <= n then
          add (i64 i) (I.Reg (i64 (i - 1))) (I.Imm 1)
        else if i = n + 1 then st (i64 n) (i64 1)
        else I.Ret)
  in
  let t0 = Sys.time () in
  let a = Safara_vir.Peephole.optimize chain in
  let b = opt Safara_vir.Copyprop.optimize a in
  let c = opt Safara_vir.Strength.optimize b in
  let d = opt Safara_vir.Dce.optimize c in
  let dt = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "20k-instruction battery stayed linear (%.2fs)" dt)
    true (dt < 5.0);
  (* the chain feeds a store, so nothing load-bearing may vanish *)
  Alcotest.(check bool) "store survived" true
    (Array.exists (function I.St _ -> true | _ -> false) d)

(* --- static pressure bounds the allocator ------------------------- *)

let test_static_pressure_bounds_allocator () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun p ->
          let c = C.compile_src p w.Workload.source in
          List.iter
            (fun ((k : K.t), (r : Safara_ptxas.Assemble.report)) ->
              if r.Safara_ptxas.Assemble.spill_bytes = 0 then begin
                let static = Facts.max_units (Facts.make k.K.code) in
                if static > r.Safara_ptxas.Assemble.regs_used then
                  Alcotest.failf
                    "%s/%s under %s: static peak %d exceeds the %d \
                     registers the allocator assigned without spilling"
                    w.Workload.id k.K.kname (C.profile_name p) static
                    r.Safara_ptxas.Assemble.regs_used
              end)
            c.C.c_kernels)
        C.all_profiles)
    Registry.all

(* --- differential sweep: the passes preserve results -------------- *)

let disabled_options =
  {
    Safara_core.Pipeline.default_options with
    Safara_core.Pipeline.o_disable =
      [ "copy-prop"; "strength-red"; "indvar"; "memmerge"; "dce" ];
  }

let run_checksums ?pool ~options p (w : Workload.t) =
  let prog = Safara_lang.Frontend.compile w.Workload.source in
  let c, _ = C.compile_with ~options p prog in
  let env = Workload.prepare c w in
  C.run_functional ?pool c env;
  List.map
    (fun a -> (a, Safara_sim.Memory.checksum env.Safara_sim.Interp.mem a))
    w.Workload.check_arrays

let check_same ctx expected actual =
  List.iter2
    (fun (a, e) (_, g) ->
      if Int64.bits_of_float e <> Int64.bits_of_float g then
        Alcotest.failf "%s: array %s differs with the passes on (%.12g vs %.12g)"
          ctx a e g)
    expected actual

let shrink = Suite_workloads.shrink

let test_passes_bit_identical (w : Workload.t) () =
  let w = shrink w in
  List.iter
    (fun p ->
      let off = run_checksums ~options:disabled_options p w in
      let on = run_checksums ~options:Safara_core.Pipeline.default_options p w in
      check_same
        (Printf.sprintf "%s under %s" w.Workload.id (C.profile_name p))
        off on)
    C.all_profiles

let test_passes_engine_matrix () =
  (* engines × pool sizes at the Full profile: the optimized streams
     must stay bit-identical to the pass-disabled pipeline under every
     execution strategy *)
  let saved = !Safara_sim.Decode.engine in
  let pools = [ (1, Safara_engine.Pool.create ~size:1 ());
                (4, Safara_engine.Pool.create ~size:4 ()) ] in
  Fun.protect
    ~finally:(fun () ->
      Safara_sim.Decode.engine := saved;
      List.iter (fun (_, p) -> Safara_engine.Pool.shutdown p) pools)
    (fun () ->
      List.iter
        (fun (w : Workload.t) ->
          let w = shrink w in
          let off = run_checksums ~options:disabled_options C.Full w in
          List.iter
            (fun e ->
              Safara_sim.Decode.engine := e;
              List.iter
                (fun (j, pool) ->
                  let on =
                    run_checksums ~pool
                      ~options:Safara_core.Pipeline.default_options C.Full w
                  in
                  check_same
                    (Printf.sprintf "%s under Full/%s/-j%d" w.Workload.id
                       (Safara_sim.Decode.engine_name e) j)
                    off on)
                pools)
            Safara_sim.Decode.all_engines)
        Registry.all)

let suite =
  [
    Alcotest.test_case "cfg: straight line" `Quick test_cfg_straight;
    Alcotest.test_case "cfg: diamond" `Quick test_cfg_diamond;
    Alcotest.test_case "cfg: loop back-edge" `Quick test_cfg_loop_backedge;
    Alcotest.test_case "cfg: unreachable block" `Quick test_cfg_unreachable;
    Alcotest.test_case "live: unit widths" `Quick test_live_units;
    Alcotest.test_case "live: straight-line peak" `Quick
      test_live_straightline_peak;
    Alcotest.test_case "live: loop-carried registers" `Quick
      test_live_loop_carried;
    Alcotest.test_case "live: registry kernels satisfy the equations" `Quick
      test_live_equations;
    Alcotest.test_case "instr: iter_defs/iter_uses match defs/uses" `Quick
      test_iter_defs_uses;
    Alcotest.test_case "reach: defined on one path" `Quick test_reach_one_path;
    Alcotest.test_case "reach: never defined" `Quick test_reach_never_defined;
    Alcotest.test_case "reach: loop is clean" `Quick test_reach_loop_clean;
    Alcotest.test_case "verify: partial-path wording" `Quick
      test_verify_partial_path_message;
    Alcotest.test_case "screen: word boundaries" `Quick
      test_screen_word_boundaries;
    Alcotest.test_case "screen: sparse high rid" `Quick
      test_screen_sparse_high_rid;
    Alcotest.test_case "screen: join keeps every arm" `Quick
      test_screen_join_keeps_every_arm;
    Alcotest.test_case "screen: unreachable use" `Quick
      test_screen_unreachable_use;
    Alcotest.test_case "screen: loop-carried use" `Quick
      test_screen_loop_carried;
    Alcotest.test_case "screen: empty kernel" `Quick test_screen_empty_kernel;
    Alcotest.test_case "screen: differential vs site analysis" `Slow
      test_screen_differential;
    Alcotest.test_case "copies: join agreement" `Quick test_copies_join_agree;
    Alcotest.test_case "copies: join disagreement" `Quick
      test_copies_join_disagree;
    Alcotest.test_case "affine: chain through copies" `Quick test_affine_chain;
    Alcotest.test_case "affine: self-update and kill" `Quick
      test_affine_self_update_and_kill;
    Alcotest.test_case "strength: neighbor product" `Quick
      test_strength_neighbor_product;
    Alcotest.test_case "strength: local folds" `Quick test_strength_local_folds;
    Alcotest.test_case "strength: back-edge invalidation" `Quick
      test_strength_loop_invalidation;
    Alcotest.test_case "dce: overwritten def" `Quick test_dce_overwritten_def;
    Alcotest.test_case "dce: dead chain" `Quick test_dce_dead_chain;
    Alcotest.test_case "dce: keeps effects" `Quick test_dce_keeps_effects;
    Alcotest.test_case "copyprop: across branches" `Quick
      test_copyprop_across_branch;
    Alcotest.test_case "wide kernel stays linear" `Quick
      test_wide_kernel_linear;
    Alcotest.test_case "static pressure bounds the allocator" `Slow
      test_static_pressure_bounds_allocator;
  ]
  @ List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case
          (w.Workload.id ^ " bit-identical with passes on")
          `Slow (test_passes_bit_identical w))
      Registry.all
  @ [
      Alcotest.test_case "engine and pool matrix" `Slow
        test_passes_engine_matrix;
    ]
