(* Transformation tests: scalar replacement (structure + semantics),
   the SAFARA feedback driver, clause verification and unrolling. *)

module S = Safara_ir.Stmt
module E = Safara_ir.Expr
open Safara_transform

let arch = Safara_gpu.Arch.kepler_k20xm
let latency = Safara_gpu.Latency.kepler

(* run a program functionally under a profile and return named array
   contents *)
let run_profile profile src ~scalars ~ints ~init ~out =
  let c = Safara_core.Compiler.compile_src profile src in
  ignore ints;
  let env = Safara_core.Compiler.make_env c ~scalars in
  init env.Safara_sim.Interp.mem;
  Safara_core.Compiler.run_functional c env;
  List.map
    (fun a -> (a, Array.copy (Safara_sim.Memory.float_data env.Safara_sim.Interp.mem a)))
    out

let check_profiles_agree name src ~scalars ~ints ~init ~out =
  let base = run_profile Safara_core.Compiler.Base src ~scalars ~ints ~init ~out in
  List.iter
    (fun profile ->
      let got = run_profile profile src ~scalars ~ints ~init ~out in
      List.iter2
        (fun (a, expected) (_, actual) ->
          if expected <> actual then
            Alcotest.fail
              (Printf.sprintf "%s: profile %s changed array %s" name
                 (Safara_core.Compiler.profile_name profile)
                 a))
        base got)
    [ Safara_core.Compiler.Safara_only; Safara_core.Compiler.Small_only;
      Safara_core.Compiler.Clauses_only; Safara_core.Compiler.Full;
      Safara_core.Compiler.Pgi_like ]

let fig5_src =
  {|
param int jsize;
param int isize;
double a[isize][jsize];
in double b[jsize][isize];
double c[jsize];
double d[jsize];
#pragma acc kernels name(fig5) small(a, b, c, d)
{
  #pragma acc loop gang vector(128)
  for (j = 1; j <= jsize - 2; j++) {
    c[j] = b[j][0] + b[j][1];
    d[j] = c[j] * b[j][0];
    #pragma acc loop seq
    for (i = 1; i <= isize - 2; i++) {
      a[i][j] = a[i-1][j] + b[j][i-1] + a[i+1][j] + b[j][i+1];
    }
  }
}
|}

let fig5_init mem =
  let b = Safara_sim.Memory.float_data mem "b" in
  Array.iteri (fun i _ -> b.(i) <- cos (float_of_int i *. 0.017)) b;
  let a = Safara_sim.Memory.float_data mem "a" in
  Array.iteri (fun i _ -> a.(i) <- sin (float_of_int i *. 0.003)) a

let fig5_scalars =
  [ ("jsize", Safara_sim.Value.I 96); ("isize", Safara_sim.Value.I 40) ]

let test_fig5_semantics_preserved () =
  check_profiles_agree "fig5" fig5_src ~scalars:fig5_scalars
    ~ints:[ ("jsize", 96); ("isize", 40) ]
    ~init:fig5_init ~out:[ "a"; "c"; "d" ]

(* structural check: after SR on fig5 the inner loop contains exactly
   one load of b (the leading rotating load) *)
let test_fig5_structure_fig6 () =
  let prog = Safara_lang.Frontend.compile fig5_src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let r = List.hd prog.Safara_ir.Program.regions in
  let cands = Safara_analysis.Reuse.candidates ~arch ~latency prog r in
  let b_cands = List.filter (fun c -> c.Safara_analysis.Reuse.c_array = "b") cands in
  let r' = Scalar_replacement.apply r b_cands in
  (* count loads of b inside the i loop *)
  let b_loads_in_i = ref (-1) in
  let rec find stmts =
    List.iter
      (fun s ->
        match s with
        | S.For l when l.S.index.E.vname = "i" ->
            let count = ref 0 in
            S.iter
              (fun s ->
                let exprs =
                  match s with
                  | S.Assign (S.Larray (_, subs), e) -> e :: subs
                  | S.Assign (S.Lvar _, e) -> [ e ]
                  | S.Local (_, Some e) -> [ e ]
                  | S.Local (_, None) -> []
                  | S.For { S.lo; hi; _ } -> [ lo; hi ]
                  | S.If (c, _, _) -> [ c ]
                in
                List.iter
                  (fun e ->
                    count :=
                      !count
                      + List.length
                          (List.filter (fun a -> a = "b") (E.arrays_used e)))
                  exprs)
              l.S.body;
            b_loads_in_i := !count
        | S.For l -> find l.S.body
        | S.If (_, t, e) ->
            find t;
            find e
        | S.Assign _ | S.Local _ -> ())
      stmts
  in
  find r'.Safara_ir.Region.body;
  Alcotest.(check int) "one b load left in the i loop" 1 !b_loads_in_i

let test_sr_never_sequentializes () =
  (* fig3: applying whatever candidates exist must keep the loop
     parallelizable (only intra candidates are produced) *)
  let src =
    {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(128)
  for (i = 1; i <= n - 2; i++) {
    a[i] = (b[i] + b[i+1]) / 2.0;
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let r = List.hd prog.Safara_ir.Program.regions in
  let cands = Safara_analysis.Reuse.candidates ~arch ~latency prog r in
  let r' = Scalar_replacement.apply r cands in
  Alcotest.(check bool) "loop i still parallel" true
    (Suite_analysis.parallel r'.Safara_ir.Region.body "i"
    ||
    (* the loop still carries no new dependence: also acceptable if
       no candidate was applied at all *)
    cands = [])

let test_sr_intra_write_update () =
  (* read-modify-write of the same cell twice: scalar caches the value *)
  let src =
    {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= n - 1; i++) {
    a[i] = b[i] + 1.0;
    a[i] = a[i] * 2.0;
  }
}
|}
  in
  check_profiles_agree "rmw" src
    ~scalars:[ ("n", Safara_sim.Value.I 100) ]
    ~ints:[ ("n", 100) ]
    ~init:(fun mem ->
      let b = Safara_sim.Memory.float_data mem "b" in
      Array.iteri (fun i _ -> b.(i) <- float_of_int i) b)
    ~out:[ "a" ]

let test_sr_zero_trip_guard () =
  (* the carrier loop may execute zero times for some threads: the
     guard must prevent out-of-bounds rotating inits *)
  let src =
    {|
param int n;
param int m;
in double b[n];
double a[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(32)
  for (j = 0; j <= n - 1; j++) {
    #pragma acc loop seq
    for (i = 1; i <= m; i++) {
      a[j] = a[j] + b[i] + b[i-1];
    }
  }
}
|}
  in
  (* m = 0: inner loop never runs *)
  check_profiles_agree "zero trip" src
    ~scalars:[ ("n", Safara_sim.Value.I 64); ("m", Safara_sim.Value.I 0) ]
    ~ints:[ ("n", 64); ("m", 0) ]
    ~init:(fun mem ->
      let b = Safara_sim.Memory.float_data mem "b" in
      Array.iteri (fun i _ -> b.(i) <- 1.0) b)
    ~out:[ "a" ]

(* --- SAFARA driver --------------------------------------------------- *)

let test_safara_rounds_terminate () =
  let c = Safara_core.Compiler.compile_src Safara_core.Compiler.Safara_only fig5_src in
  List.iter
    (fun (_, rounds) ->
      Alcotest.(check bool) "bounded rounds" true (List.length rounds <= 8))
    c.Safara_core.Compiler.c_logs

let test_safara_respects_budget () =
  (* with a tiny register cap, SAFARA must not spill: the assembled
     kernels stay within budget and spill bytes stay zero *)
  let config =
    {
      (Safara.default_config ~arch) with
      Safara.reg_cap = 40;
    }
  in
  let c =
    Safara_core.Compiler.compile_src ~safara_config:config
      Safara_core.Compiler.Safara_only fig5_src
  in
  List.iter
    (fun (_, report) ->
      Alcotest.(check int) "no spills" 0 report.Safara_ptxas.Assemble.spill_bytes)
    c.Safara_core.Compiler.c_kernels

let test_safara_uses_feedback () =
  let c = Safara_core.Compiler.compile_src Safara_core.Compiler.Safara_only fig5_src in
  match c.Safara_core.Compiler.c_logs with
  | (_, round1 :: _) :: _ ->
      Alcotest.(check bool) "feedback regs positive" true
        (round1.Safara.regs_before > 0);
      Alcotest.(check bool) "available = cap - used" true
        (round1.Safara.available
        = arch.Safara_gpu.Arch.max_registers_per_thread - round1.Safara.regs_before)
  | _ -> Alcotest.fail "no SAFARA rounds logged"

(* the feedback hook is a compile: a round asks for it only when it has
   candidates to choose among *)
let resolved_region src =
  let prog =
    Safara_analysis.Schedule.resolve_program (Safara_lang.Frontend.compile src)
  in
  (prog, List.hd prog.Safara_ir.Program.regions)

let test_safara_no_candidates_no_feedback () =
  let prog, r =
    resolved_region
      "param int n;\nin double b[n];\ndouble a[n];\n#pragma acc kernels \
       name(k)\n{\n#pragma acc loop gang vector(64)\nfor (i=0;i<n;i++) { \
       a[i] = b[i] * 2.0; } }"
  in
  Alcotest.(check int) "no candidates" 0
    (List.length (Safara_analysis.Reuse.candidates ~arch ~latency prog r));
  let feedback _ _ = Alcotest.fail "feedback asked for a region without candidates" in
  let r', rounds = Safara.optimize_region ~feedback ~arch ~latency prog r in
  Alcotest.(check int) "no rounds" 0 (List.length rounds);
  Alcotest.(check bool) "region unchanged" true (r' == r)

let test_safara_feedback_once_per_round () =
  let prog, r = resolved_region fig5_src in
  let calls = ref 0 in
  let feedback p r =
    incr calls;
    Codegen_helper.feedback ~arch p r
  in
  let _, rounds = Safara.optimize_region ~feedback ~arch ~latency prog r in
  Alcotest.(check bool) "some rounds" true (rounds <> []);
  Alcotest.(check int) "one feedback per round" (List.length rounds) !calls

(* the single-shot estimate takes its candidates from the caller's
   hook too, so a memo serves it like a feedback round *)
let test_safara_single_shot_uses_candidate_hook () =
  let prog, r = resolved_region fig5_src in
  let calls = ref 0 in
  let candidates policy p r =
    incr calls;
    Safara_analysis.Reuse.candidates ~policy ~arch ~latency p r
  in
  let feedback _ _ = Alcotest.fail "feedback asked for without use_feedback" in
  let config = { (Safara.default_config ~arch) with Safara.use_feedback = false } in
  let _, rounds =
    Safara.optimize_region ~config ~feedback ~candidates ~arch ~latency prog r
  in
  Alcotest.(check int) "one round" 1 (List.length rounds);
  Alcotest.(check int) "one candidate lookup" 1 !calls

let test_safara_cost_model_ablation () =
  (* count-only ranking must change the order when an uncoalesced
     low-count candidate competes with a coalesced high-count one;
     at minimum, both configurations still produce valid code *)
  let config =
    { (Safara.default_config ~arch) with Safara.cost_model = `Count_only }
  in
  let c =
    Safara_core.Compiler.compile_src ~safara_config:config
      Safara_core.Compiler.Safara_only fig5_src
  in
  Alcotest.(check bool) "compiles" true (c.Safara_core.Compiler.c_kernels <> [])

(* --- clause runtime verification ------------------------------------ *)

let dim_src =
  {|
param int n;
param int m;
double u[n][m];
double v[n][m];
#pragma acc kernels name(k) dim((u, v)) small(u, v)
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= n - 1; i++) {
    u[i][0] = v[i][0] * 2.0;
  }
}
|}

let test_clause_runtime_ok () =
  let prog = Safara_lang.Frontend.compile dim_src in
  let r = List.hd prog.Safara_ir.Program.regions in
  Alcotest.(check int) "no violations" 0
    (List.length (Clause_check.runtime_verify ~env:[ ("n", 10); ("m", 20) ] prog r))

let test_clause_runtime_small_violation () =
  let prog = Safara_lang.Frontend.compile dim_src in
  let r = List.hd prog.Safara_ir.Program.regions in
  (* 30000 x 30000 doubles = 7.2 GB: small is a lie *)
  let violations =
    Clause_check.runtime_verify ~env:[ ("n", 30000); ("m", 30000) ] prog r
  in
  Alcotest.(check bool) "small violation detected" true
    (List.exists (fun v -> v.Clause_check.v_clause = `Small) violations)

let test_clause_dual_version_dispatch () =
  let prog = Safara_lang.Frontend.compile dim_src in
  let r = List.hd prog.Safara_ir.Program.regions in
  let chosen, violations =
    Clause_check.choose_version ~env:[ ("n", 30000); ("m", 30000) ] prog r
  in
  Alcotest.(check bool) "violations reported" true (violations <> []);
  Alcotest.(check bool) "clauses stripped" true
    (chosen.Safara_ir.Region.small = [] && chosen.Safara_ir.Region.dim_groups = [])

let test_clause_dim_mismatched_groups () =
  (* same symbolic dims but unequal runtime values in a stated group *)
  let src =
    {|
param int n;
param int m;
double u[n];
double v[m];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    u[i] = 1.0;
    v[0] = 2.0;
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let r0 = List.hd prog.Safara_ir.Program.regions in
  (* inject the dim group manually: u and v have different symbolic dims
     so the static validator rejects it; runtime check with equal values
     must accept, with different values must reject *)
  let r =
    { r0 with Safara_ir.Region.dim_groups =
        [ { Safara_ir.Region.stated_dims = None; group_arrays = [ "u"; "v" ] } ] }
  in
  Alcotest.(check int) "equal extents ok" 0
    (List.length (Clause_check.runtime_verify ~env:[ ("n", 8); ("m", 8) ] prog r));
  Alcotest.(check bool) "unequal extents rejected" true
    (Clause_check.runtime_verify ~env:[ ("n", 8); ("m", 9) ] prog r <> [])

let test_dual_version_in_driver () =
  (* a truthful small clause keeps the optimized version; a lying one
     (array >= 4 GB) compiles the stripped version with more registers *)
  let src =
    {|
param int n;
double u[n][n];
double v[n][n];
#pragma acc kernels name(k) small(u, v)
{
  #pragma acc loop gang vector(64)
  for (j = 1; j <= n - 2; j++) {
    #pragma acc loop seq
    for (i = 1; i <= n - 2; i++) {
      u[j][i] = u[j][i-1] * 0.5 + v[j][i];
    }
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let regs scalars =
    let c, violations =
      Safara_core.Compiler.compile_for_env Safara_core.Compiler.Clauses_only
        ~scalars prog
    in
    ((Safara_core.Compiler.report_of c "k").Safara_ptxas.Assemble.regs_used, violations)
  in
  let r_ok, v_ok = regs [ ("n", Safara_sim.Value.I 64) ] in
  (* 40000^2 doubles = 12.8 GB: the small clause lies *)
  let r_lie, v_lie = regs [ ("n", Safara_sim.Value.I 40000) ] in
  Alcotest.(check int) "truthful: no violations" 0 (List.length v_ok);
  Alcotest.(check bool) "lying: violation reported" true (v_lie <> []);
  Alcotest.(check bool) "lying: stripped version uses more registers" true
    (r_lie > r_ok)

(* --- unrolling ------------------------------------------------------- *)

let unroll_src =
  {|
param int n;
param int m;
in double b[n];
double a[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(32)
  for (j = 0; j <= n - 1; j++) {
    #pragma acc loop seq
    for (i = 0; i <= m - 1; i++) {
      a[j] = a[j] + b[i] * 0.5;
    }
  }
}
|}

let run_unrolled factor m =
  let prog = Safara_lang.Frontend.compile unroll_src in
  let prog = Unroll.unroll_program ~factor prog in
  Safara_ir.Validate.check_exn prog;
  let c = Safara_core.Compiler.compile Safara_core.Compiler.Base prog in
  let scalars = [ ("n", Safara_sim.Value.I 32); ("m", Safara_sim.Value.I m) ] in
  let env = Safara_core.Compiler.make_env c ~scalars in
  let b = Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "b" in
  Array.iteri (fun i _ -> b.(i) <- float_of_int (i + 1)) b;
  Safara_core.Compiler.run_functional c env;
  Array.copy (Safara_sim.Memory.float_data env.Safara_sim.Interp.mem "a")

(* hmm: unrolling requires bodies without scalar assignment; a[j] +=
   qualifies since it is an array assignment *)
let test_unroll_semantics () =
  List.iter
    (fun m ->
      let reference = run_unrolled 1 m in
      List.iter
        (fun u ->
          let got = run_unrolled u m in
          if got <> reference then
            Alcotest.fail (Printf.sprintf "unroll %d changed results at m=%d" u m))
        [ 2; 3; 4 ])
    [ 0; 1; 5; 8; 9 ]

let test_unroll_identity_factor () =
  let prog = Safara_lang.Frontend.compile unroll_src in
  let prog' = Unroll.unroll_program ~factor:1 prog in
  Alcotest.(check bool) "factor 1 is identity" true (prog = prog')

(* --- the corpus kernels a reuse group spells two ways ------------- *)

let corpus_source name =
  let path =
    if Sys.file_exists "corpus" then Filename.concat "corpus" name
    else Filename.concat (Filename.concat "test" "corpus") name
  in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

let corpus_checksums profile src =
  let c = Safara_core.Compiler.compile_src profile src in
  let env =
    Safara_core.Compiler.make_env c ~scalars:[ ("n", Safara_sim.Value.I 64) ]
  in
  Safara_core.Compiler.run_functional c env;
  List.map
    (fun a -> (a, Safara_sim.Memory.checksum env.Safara_sim.Interp.mem a))
    [ "a"; "b"; "c" ]

(* a[1+j] is written between two reads of a[j+1]: the scalar caching
   the cell must take the written value *)
let test_sr_write_in_other_spelling () =
  let src = corpus_source "stale.macc" in
  let base = corpus_checksums Safara_core.Compiler.Base src in
  List.iter
    (fun p ->
      Alcotest.(check (list (pair string (float 0.))))
        (Safara_core.Compiler.profile_name p ^ " matches base") base
        (corpus_checksums p src))
    Safara_core.Compiler.[ Safara_only; Full; Pgi_like ]

(* both spellings of the cell become the scalar in the first round, so
   the second finds nothing left to replace *)
let test_sr_rewrites_every_spelling () =
  let c =
    Safara_core.Compiler.compile_src Safara_core.Compiler.Safara_only
      (corpus_source "spell.macc")
  in
  Alcotest.(check int) "one SAFARA round" 1
    (List.length (List.assoc "spell" c.Safara_core.Compiler.c_logs));
  let emitted = Safara_lang.Emit.program c.Safara_core.Compiler.c_prog in
  Alcotest.(check bool) "no a[(1 + j)] load left" false
    (Str_helpers.contains emitted "a[(1 + j)]")

(* every round SAFARA logs changed the kernel it measures next: no
   region's log repeats a round's candidates (the same references of
   the same kind) at the same register count, over every tune grid
   point of the tune workloads on kepler *)
let test_safara_rounds_make_progress () =
  let module Tune = Safara_tune.Tune in
  let module Eval = Safara_suites.Eval in
  let module Reuse = Safara_analysis.Reuse in
  let signature (r : Safara.round) =
    ( r.Safara.regs_before,
      List.map
        (fun (c : Reuse.candidate) ->
          ( Reuse.kind_to_string c.Reuse.c_kind,
            List.map
              (fun (m : Safara_analysis.Dependence.aref) ->
                Safara_ir.Expr.to_string
                  (E.Load (m.Safara_analysis.Dependence.array, m.Safara_analysis.Dependence.subs)))
              c.Reuse.c_refs ))
        r.Safara.applied )
  in
  List.iter
    (fun id ->
      let w = Safara_suites.Registry.find id in
      let eng = Eval.create ~jobs:1 () in
      Fun.protect
        ~finally:(fun () -> Eval.shutdown eng)
        (fun () ->
          List.iter
            (fun pt_config ->
              List.iter
                (fun pt_unroll ->
                  let c =
                    Eval.compiled eng
                      (Tune.job ~arch w { Tune.pt_config; pt_unroll })
                  in
                  List.iter
                    (fun (region, log) ->
                      let rec go = function
                        | a :: (b :: _ as rest) ->
                            if signature a = signature b then
                              Alcotest.failf "%s %s/u%d region %s repeats round %d"
                                id pt_config pt_unroll region b.Safara.round_index;
                            go rest
                        | _ -> ()
                      in
                      go log)
                    c.Safara_core.Compiler.c_logs)
                Tune.unroll_factors)
            Tune.config_labels))
    Suite_pipeline.tune_golden_ids

let suite =
  [
    Alcotest.test_case "fig5 semantics across profiles" `Quick test_fig5_semantics_preserved;
    Alcotest.test_case "fig5 -> fig6 structure" `Quick test_fig5_structure_fig6;
    Alcotest.test_case "SR never sequentializes" `Quick test_sr_never_sequentializes;
    Alcotest.test_case "SR intra write update" `Quick test_sr_intra_write_update;
    Alcotest.test_case "SR zero-trip guard" `Quick test_sr_zero_trip_guard;
    Alcotest.test_case "SR write in another spelling" `Quick
      test_sr_write_in_other_spelling;
    Alcotest.test_case "SR rewrites every spelling" `Quick
      test_sr_rewrites_every_spelling;
    Alcotest.test_case "SAFARA rounds make progress" `Quick
      test_safara_rounds_make_progress;
    Alcotest.test_case "SAFARA rounds terminate" `Quick test_safara_rounds_terminate;
    Alcotest.test_case "SAFARA respects budget" `Quick test_safara_respects_budget;
    Alcotest.test_case "SAFARA uses feedback" `Quick test_safara_uses_feedback;
    Alcotest.test_case "SAFARA: no candidates, no feedback" `Quick
      test_safara_no_candidates_no_feedback;
    Alcotest.test_case "SAFARA: one feedback per round" `Quick
      test_safara_feedback_once_per_round;
    Alcotest.test_case "SAFARA: single shot uses the candidate hook" `Quick
      test_safara_single_shot_uses_candidate_hook;
    Alcotest.test_case "SAFARA cost-model ablation" `Quick test_safara_cost_model_ablation;
    Alcotest.test_case "clause runtime ok" `Quick test_clause_runtime_ok;
    Alcotest.test_case "clause small violation" `Quick test_clause_runtime_small_violation;
    Alcotest.test_case "clause dual-version dispatch" `Quick test_clause_dual_version_dispatch;
    Alcotest.test_case "clause dim runtime groups" `Quick test_clause_dim_mismatched_groups;
    Alcotest.test_case "dual-version in driver" `Quick test_dual_version_in_driver;
    Alcotest.test_case "unroll semantics" `Quick test_unroll_semantics;
    Alcotest.test_case "unroll factor 1" `Quick test_unroll_identity_factor;
  ]
