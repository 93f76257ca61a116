(* Pass-manager tests: registration, declarative pipeline shapes,
   signatures, --disable-pass semantics, verify-between-every-pass,
   per-pass instrumentation, and a golden snapshot of the pipeline
   order plus one IR dump (guards against accidental reordering). *)

open Safara_suites
module C = Safara_core.Compiler
module Pl = Safara_core.Pipeline
module Pass = Safara_core.Pass

(* the paper's Fig-5 running example, inlined so the test does not
   depend on the example files' path *)
let fig5_src =
  {|
param int jsize;
param int isize;
double a[isize][jsize];
in double b[jsize][isize];
double c[jsize];
double d[jsize];

#pragma acc kernels name(fig5)
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

let fig5 () = Safara_lang.Frontend.compile fig5_src
let checksum v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let instrs_of (c : C.compiled) =
  List.fold_left
    (fun acc (k, _) -> acc + Array.length k.Safara_vir.Kernel.code)
    0 c.C.c_kernels

let base_passes =
  [ "strip-clauses"; "resolve-schedules"; "codegen"; "peephole"; "copy-prop";
    "strength-red"; "indvar"; "memmerge"; "dce"; "assemble" ]

let safara_passes =
  [ "strip-clauses"; "resolve-schedules"; "safara"; "codegen"; "peephole";
    "copy-prop"; "strength-red"; "indvar"; "memmerge"; "dce"; "assemble" ]

let test_registration () =
  (* building any pipeline registers its passes in the global name
     registry (used to reject --disable-pass/--dump-ir typos) *)
  List.iter (fun p -> ignore (Pl.build (C.desc_of_profile p))) C.all_profiles;
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (Pass.is_registered n))
    safara_passes;
  Alcotest.(check bool) "typos are not registered" false
    (Pass.is_registered "peepole");
  let reg = Pass.registered () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " listed") true (List.mem n reg))
    safara_passes

let test_pipeline_shapes () =
  let expect p names =
    Alcotest.(check (list string))
      (C.profile_name p)
      names
      (Pl.pass_names (C.desc_of_profile p))
  in
  expect C.Base base_passes;
  expect C.Small_only base_passes;
  expect C.Clauses_only base_passes;
  expect C.Safara_only safara_passes;
  expect C.Full safara_passes;
  expect C.Pgi_like safara_passes

let test_signatures_distinct () =
  let sigs = List.map (fun p -> C.pipeline_signature p) C.all_profiles in
  let uniq = List.sort_uniq compare sigs in
  Alcotest.(check int) "six profiles, six signatures" (List.length sigs)
    (List.length uniq);
  (* toggling a pass must change the signature (the engine folds it
     into compile-cache keys, so a stale hit is impossible) *)
  Alcotest.(check bool) "disable changes signature" false
    (C.pipeline_signature C.Full
    = C.pipeline_signature ~disable:[ "peephole" ] C.Full);
  (* ... deterministically: the disable set is order-insensitive *)
  Alcotest.(check string) "disable set is unordered"
    (C.pipeline_signature ~disable:[ "peephole"; "safara" ] C.Full)
    (C.pipeline_signature ~disable:[ "safara"; "peephole" ] C.Full);
  Alcotest.(check string) "signatures are stable"
    (C.pipeline_signature C.Full)
    (C.pipeline_signature C.Full)

let compile_with_disable profile disable prog =
  let options = { Pl.default_options with Pl.o_disable = disable } in
  C.compile_with ~options profile prog

let test_disable_peephole () =
  let prog = fig5 () in
  let on = C.compile C.Full prog in
  let off, trace = compile_with_disable C.Full [ "peephole" ] prog in
  let r =
    List.find (fun r -> r.Pl.pr_pass = "peephole") trace.Pl.tr_reports
  in
  Alcotest.(check bool) "peephole marked disabled" true r.Pl.pr_disabled;
  if not (instrs_of off > instrs_of on) then
    Alcotest.fail
      (Printf.sprintf
         "disabling peephole did not grow the kernels (%d vs %d instrs)"
         (instrs_of off) (instrs_of on))

let test_disable_safara_equals_clauses_only () =
  (* Full minus SAFARA is exactly Clauses_only: same strips, same
     arch, same codegen — the declarative pipeline makes this a
     one-line identity *)
  let prog = fig5 () in
  let clauses = C.compile C.Clauses_only prog in
  let full_off, _ = compile_with_disable C.Full [ "safara" ] prog in
  Alcotest.(check string) "kernels identical"
    (checksum (clauses.C.c_prog, clauses.C.c_kernels))
    (checksum (full_off.C.c_prog, full_off.C.c_kernels));
  Alcotest.(check int) "no SAFARA logs" 0 (List.length full_off.C.c_logs)

let test_disable_errors () =
  let prog = fig5 () in
  Alcotest.check_raises "stage-changing pass refuses to be disabled"
    (Invalid_argument "pass codegen changes the IR stage and cannot be disabled")
    (fun () -> ignore (compile_with_disable C.Full [ "codegen" ] prog));
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  (match compile_with_disable C.Full [ "no-such-pass" ] prog with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the bad pass" true
        (contains ~sub:"no-such-pass" msg)
  | _ -> Alcotest.fail "unknown pass name was accepted");
  (* a disable that names a real pass absent from this pipeline is
     ignored, so one flag can apply across profiles *)
  let c, _ = compile_with_disable C.Base [ "safara" ] prog in
  Alcotest.(check string) "absent pass ignored"
    (checksum (C.compile C.Base prog).C.c_kernels)
    (checksum c.C.c_kernels)

(* a deliberately broken Ir -> Ir pass: duplicates every region, which
   Validate rejects (duplicate region names) *)
let broken_pass =
  Pass.make ~name:"test-break-ir" ~input:Pass.Ir ~output:Pass.Ir
    ~identity:Fun.id (fun _ (prog : Safara_ir.Program.t) ->
      { prog with Safara_ir.Program.regions =
          prog.Safara_ir.Program.regions @ prog.Safara_ir.Program.regions })

let test_verify_catches_broken_pass () =
  let prog = fig5 () in
  let ctx =
    Pass.make_ctx ~arch:Safara_gpu.Arch.kepler_k20xm
      ~latency:Safara_gpu.Latency.kepler
  in
  let pipe = Pl.Step (broken_pass, Pl.Done) in
  let opts verify = { Pl.default_options with Pl.o_verify = verify } in
  (match Pl.run ~options:(opts true) ~name:"broken" ctx pipe prog with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "verify-between-passes missed a duplicated region");
  (* without verification the bad value flows through untouched *)
  let out, trace = Pl.run ~options:(opts false) ~name:"broken" ctx pipe prog in
  Alcotest.(check int) "broken output kept" 2
    (List.length out.Safara_ir.Program.regions);
  Alcotest.(check int) "one report" 1 (List.length trace.Pl.tr_reports)

(* a deliberately broken Vir -> Vir pass: drops every kernel's final
   [ret], which the VIR verifier rejects. It builds new code arrays,
   with new facts, as every pass must: the pipeline verifies only the
   kernel values a step changed. *)
let broken_vir_pass =
  Pass.make ~name:"test-break-vir" ~input:Pass.Vir ~output:Pass.Vir
    ~identity:Fun.id (fun _ (s : Pass.vir_state) ->
      { s with
        Pass.v_kernels =
          List.map
            (fun ((k : Safara_vir.Kernel.t), _) ->
              let n = Array.length k.Safara_vir.Kernel.code in
              let code = Array.sub k.Safara_vir.Kernel.code 0 (n - 1) in
              ({ k with Safara_vir.Kernel.code }, Safara_vir.Facts.make code))
            s.Pass.v_kernels })

let test_verify_catches_broken_vir_pass () =
  let prog = Safara_analysis.Schedule.resolve_program (fig5 ()) in
  let ctx =
    Pass.make_ctx ~arch:Safara_gpu.Arch.kepler_k20xm
      ~latency:Safara_gpu.Latency.kepler
  in
  (* the tail's own codegen step, then the broken pass *)
  let pipe : (Safara_ir.Program.t, Pass.vir_state) Pl.seq =
    match Pl.tail with
    | Pl.Step (codegen, _) -> (
        match codegen.Pass.output with
        | Pass.Vir -> Pl.Step (codegen, Pl.Step (broken_vir_pass, Pl.Done))
        | _ -> Alcotest.fail "the tail does not start with codegen")
  in
  let opts verify = { Pl.default_options with Pl.o_verify = verify } in
  (match Pl.run ~options:(opts true) ~name:"broken" ctx pipe prog with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "the VIR verifier rejects it" true
        (Str_helpers.contains msg "VIR verifier")
  | _ -> Alcotest.fail "verify-between-passes missed a kernel without ret");
  let out, _ = Pl.run ~options:(opts false) ~name:"broken" ctx pipe prog in
  Alcotest.(check bool) "without verification the bad kernel flows on" true
    (List.for_all
       (fun (k : Safara_vir.Kernel.t) ->
         Safara_vir.Verify.verify k <> [])
       (List.map fst out.Pass.v_kernels))

(* The contract verify-once rests on: a pass that rewrites nothing
   hands its input kernel on physically. Every VIR pass and assemble
   is applied again to every registry kernel after the full tail on
   kepler; a structurally unchanged kernel must be the input itself. *)
let test_noop_passes_hand_input_on () =
  let arch = Safara_gpu.Arch.kepler_k20xm in
  let ctx = Pass.make_ctx ~arch ~latency:Safara_gpu.Latency.kepler in
  let module K = Safara_vir.Kernel in
  let rec reapply : type a b.
      (a, b) Pl.seq -> (string * (Pass.vir_state -> K.t list)) list = function
    | Pl.Done -> []
    | Pl.Step (p, rest) ->
        let here : (string * (Pass.vir_state -> K.t list)) list =
          match (p.Pass.input, p.Pass.output) with
          | Pass.Vir, Pass.Vir ->
              [ (p.Pass.name, fun s -> List.map fst (p.Pass.run ctx s).Pass.v_kernels) ]
          | Pass.Vir, Pass.Asm ->
              [ ( p.Pass.name,
                  fun s ->
                    List.map (fun (k, _, _) -> k) (p.Pass.run ctx s).Pass.a_kernels ) ]
          | _ -> []
        in
        here @ reapply rest
  in
  let passes = reapply Pl.tail in
  Alcotest.(check int) "every VIR pass and assemble" 7 (List.length passes);
  let unchanged = Hashtbl.create 8 in
  List.iter
    (fun (w : Workload.t) ->
      let c = C.compile ~arch C.Full (Safara_lang.Frontend.compile w.Workload.source) in
      let s =
        {
          Pass.v_prog = c.C.c_prog;
          v_kernels =
            List.map
              (fun ((k : K.t), _) -> (k, Safara_vir.Facts.make k.K.code))
              c.C.c_kernels;
        }
      in
      List.iter
        (fun (name, f) ->
          List.iter2
            (fun (k : Safara_vir.Kernel.t) k' ->
              if k' = k then begin
                Hashtbl.replace unchanged name ();
                if k' != k then
                  Alcotest.failf "%s: %s %s rewrote nothing but built a new kernel"
                    w.Workload.id name k.Safara_vir.Kernel.kname
              end)
            (List.map fst s.Pass.v_kernels) (f s))
        passes)
    Registry.all;
  (* the check is not vacuous: each pass left some kernel alone *)
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " left some kernel alone") true
        (Hashtbl.mem unchanged name))
    passes

let test_every_pass_timed () =
  let prog = fig5 () in
  List.iter
    (fun p ->
      let options = { Pl.default_options with Pl.o_precise_stats = true } in
      let _, trace = C.compile_with ~options p prog in
      List.iter
        (fun r ->
          if not (r.Pl.pr_s > 0.) then
            Alcotest.fail
              (Printf.sprintf "%s/%s reported zero seconds" (C.profile_name p)
                 r.Pl.pr_pass))
        trace.Pl.tr_reports;
      Alcotest.(check (list string))
        (C.profile_name p ^ " reports in pipeline order")
        (Pl.pass_names (C.desc_of_profile p))
        (List.map (fun r -> r.Pl.pr_pass) trace.Pl.tr_reports))
    C.all_profiles

let test_dump_all () =
  let prog = fig5 () in
  let options = { Pl.default_options with Pl.o_dump = `All } in
  let _, trace = C.compile_with ~options C.Full prog in
  Alcotest.(check (list string))
    "one dump per pass" safara_passes
    (List.map fst trace.Pl.tr_dumps);
  List.iter
    (fun (n, d) ->
      if String.length d = 0 then Alcotest.fail (n ^ ": empty dump"))
    trace.Pl.tr_dumps

let test_eval_cache_respects_disable () =
  (* toggling a pass must be a distinct compile-cache entry, never a
     stale hit (the pipeline signature is folded into the key) *)
  let eng = Eval.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Eval.shutdown eng) @@ fun () ->
  let w = Registry.find "355.seismic" in
  let on = Eval.compiled eng (Eval.job C.Full w) in
  let off = Eval.compiled eng (Eval.job ~disable:[ "peephole" ] C.Full w) in
  let s = Eval.stats eng in
  Alcotest.(check int) "two distinct compiles" 2 s.Eval.st_compile_misses;
  Alcotest.(check bool) "distinct artifacts" false
    (checksum on.C.c_kernels = checksum off.C.c_kernels);
  let on' = Eval.compiled eng (Eval.job C.Full w) in
  let s = Eval.stats eng in
  Alcotest.(check int) "repeat is a hit" 1 s.Eval.st_compile_hits;
  Alcotest.(check bool) "hit is the same artifact" true (on == on');
  (* pass timings accumulated over both misses: every Full pass ran
     twice (the disabled peephole still reports) *)
  List.iter
    (fun n ->
      match List.find_opt (fun (m, _, _) -> m = n) s.Eval.st_pass_s with
      | Some (_, runs, secs) ->
          Alcotest.(check int) (n ^ " runs") 2 runs;
          Alcotest.(check bool) (n ^ " time > 0") true (secs > 0.)
      | None -> Alcotest.fail ("no accumulated timing for " ^ n))
    safara_passes

(* a compile without a memo misses every region, so its trace is the
   unsplit pipeline's: every pass in order, with the same before/after
   statistics as Pipeline.build run in one go *)
let test_memoless_trace_is_unsplit () =
  let prog = fig5 () in
  let options = { Pl.default_options with Pl.o_precise_stats = true } in
  let stats (t : Pl.trace) =
    List.map (fun r -> (r.Pl.pr_pass, r.Pl.pr_before, r.Pl.pr_after)) t.Pl.tr_reports
  in
  List.iter
    (fun p ->
      let desc = C.desc_of_profile p in
      let _, trace = C.compile_with ~options p prog in
      Alcotest.(check (list string))
        (C.profile_name p ^ ": every pass, in order")
        (Pl.pass_names desc)
        (List.map (fun r -> r.Pl.pr_pass) trace.Pl.tr_reports);
      let arch = Safara_gpu.Arch.default in
      let ctx =
        Pass.make_ctx ~arch:(Pl.effective_arch arch desc)
          ~latency:(Safara_gpu.Latency.for_arch arch)
      in
      let _, unsplit =
        Pl.run ~options ~name:desc.Pl.d_name ctx (Pl.build desc) prog
      in
      Alcotest.(check bool)
        (C.profile_name p ^ ": stats as unsplit")
        true
        (stats trace = stats unsplit))
    C.all_profiles

let test_unrolled_programs_verify () =
  (* regression: the addressing cache leaked lazily-emitted stride
     registers across sibling branches; unrolling duplicates the
     remainder-guard [if], so the second copy read a register the
     first copy's (skippable) branch defined. Caught by
     verify-between-every-pass, fixed by scoping stride cache entries
     like offsets/addrs. *)
  List.iter
    (fun id ->
      let w = Registry.find id in
      let prog = Safara_lang.Frontend.compile w.Workload.source in
      List.iter
        (fun factor ->
          let prog = Safara_transform.Unroll.unroll_program ~factor prog in
          let options = { Pl.default_options with Pl.o_verify = true } in
          ignore (C.compile_with ~options C.Full prog))
        [ 2; 4 ])
    [ "303.ostencil"; "355.seismic"; "370.bt" ]

(* --- golden snapshots ----------------------------------------------

   The checked-in files guard the pipeline order per profile and the
   IR shape entering codegen (pipeline.golden), and the exact
   allocation of every registry workload (ptxas.golden) with a digest
   of the assembled code it ships (kernels.golden). Regenerate
   after an intentional change with:  SAFARA_BLESS_GOLDEN=1 dune
   runtest  (then copy the files the failure messages point at back
   into test/golden/). *)

(* dune runtest runs with cwd = _build/.../test (where the dune deps
   glob copies golden/); a manual `dune exec test/test_main.exe` runs
   from the project root *)
let golden_path name =
  if Sys.file_exists "golden" then Filename.concat "golden" name
  else Filename.concat (Filename.concat "test" "golden") name

let check_golden name what got =
  let path = golden_path name in
  if Sys.getenv_opt "SAFARA_BLESS_GOLDEN" <> None then begin
    let oc = open_out path in
    output_string oc got;
    close_out oc;
    Alcotest.fail
      (Printf.sprintf "blessed: copy %s back into test/golden/"
         (Filename.concat (Sys.getcwd ()) path))
  end;
  let ic = open_in_bin path in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) what expected got

let golden_content () =
  let b = Buffer.create 1024 in
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "pipeline %-12s %s\n" (C.profile_name p)
           (String.concat " -> " (Pl.pass_names (C.desc_of_profile p)))))
    C.all_profiles;
  let options =
    { Pl.default_options with Pl.o_dump = `Passes [ "resolve-schedules" ] }
  in
  let _, trace = C.compile_with ~options C.Full (fig5 ()) in
  Buffer.add_string b "\n=== fig5 after resolve-schedules (full) ===\n";
  Buffer.add_string b (List.assoc "resolve-schedules" trace.Pl.tr_dumps);
  Buffer.contents b

let test_golden () =
  check_golden "pipeline.golden" "pipeline order and IR snapshot"
    (golden_content ())

(* every registry workload x profile x arch compile, shared by the
   allocation, assembled-kernel and SAFARA-log goldens so only the
   first pays for the compiles *)
let registry_compiles =
  lazy
    (List.map
       (fun (w : Workload.t) ->
         let prog = Safara_lang.Frontend.compile w.Workload.source in
         ( w.Workload.id,
           List.map
             (fun p ->
               ( p,
                 List.map
                   (fun (arch : Safara_gpu.Arch.t) -> (arch, C.compile ~arch p prog))
                   Safara_gpu.Arch.registry ))
             C.all_profiles ))
       Registry.all)

(* one line per registry workload x profile, [cell kernels] per arch
   after the padded row label *)
let registry_golden cell =
  let b = Buffer.create 8192 in
  List.iter
    (fun (id, per_profile) ->
      List.iter
        (fun (p, per_arch) ->
          Buffer.add_string b (Printf.sprintf "%-12s %-23s" id (C.profile_name p));
          List.iter
            (fun ((arch : Safara_gpu.Arch.t), c) ->
              Buffer.add_string b
                (Printf.sprintf " %s=%s" arch.Safara_gpu.Arch.key
                   (cell c.C.c_kernels)))
            per_arch;
          Buffer.add_char b '\n')
        per_profile)
    (Lazy.force registry_compiles);
  Buffer.contents b

(* per arch: kernels, sum/max registers, sum predicates, sum spill
   bytes, sum instructions — every figure the allocator feeds back to
   SAFARA *)
let ptxas_golden_content () =
  registry_golden (fun ks ->
      let reps = List.map snd ks in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
      let max_regs =
        List.fold_left
          (fun acc r -> max acc r.Safara_ptxas.Assemble.regs_used)
          0 reps
      in
      Printf.sprintf "k%d,r%d/%d,p%d,s%d,i%d" (List.length reps)
        (sum (fun r -> r.Safara_ptxas.Assemble.regs_used))
        max_regs
        (sum (fun r -> r.Safara_ptxas.Assemble.pred_regs))
        (sum (fun r -> r.Safara_ptxas.Assemble.spill_bytes))
        (sum (fun r -> r.Safara_ptxas.Assemble.instructions)))

let test_ptxas_golden () =
  check_golden "ptxas.golden" "registry allocation snapshot"
    (ptxas_golden_content ())

(* per arch: the MD5 of every assembled kernel's listing followed by
   its ptxas report, so any change to the shipped code shows *)
let kernels_digest ks =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun (k, r) ->
               Format.asprintf "%a@.%a@." Safara_vir.Kernel.pp k
                 Safara_ptxas.Assemble.pp_report r)
             ks)))

let kernels_golden_content () = registry_golden kernels_digest

let test_kernels_golden () =
  check_golden "kernels.golden" "registry assembled-kernel snapshot"
    (kernels_golden_content ())

(* every registry workload under full, unrolled by 2 and by 4, on
   every arch: the digest of its shipped kernels as kernels.golden
   takes it. Unrolled loops are where indvar rewrites one kernel over
   several rounds, which the unroll-1 goldens never exercise. *)
let unrolled_golden_content () =
  let b = Buffer.create 8192 in
  List.iter
    (fun (w : Workload.t) ->
      let prog = Safara_lang.Frontend.compile w.Workload.source in
      List.iter
        (fun factor ->
          let prog = Safara_transform.Unroll.unroll_program ~factor prog in
          Buffer.add_string b (Printf.sprintf "%-12s u%d" w.Workload.id factor);
          List.iter
            (fun (arch : Safara_gpu.Arch.t) ->
              Buffer.add_string b
                (Printf.sprintf " %s=%s" arch.Safara_gpu.Arch.key
                   (kernels_digest (C.compile ~arch C.Full prog).C.c_kernels)))
            Safara_gpu.Arch.registry;
          Buffer.add_char b '\n')
        [ 2; 4 ])
    Registry.all;
  Buffer.contents b

let test_unrolled_golden () =
  check_golden "unrolled.golden" "unrolled full-profile kernel snapshot"
    (unrolled_golden_content ())

(* every SAFARA round of every registry workload under the profiles
   that run SAFARA, on every arch: a header line per region, then its
   rounds as {!Safara_transform.Safara.pp_round} prints them *)
let safara_golden_content () =
  let b = Buffer.create 16384 in
  List.iter
    (fun (id, per_profile) ->
      List.iter
        (fun (p, per_arch) ->
          if List.mem p [ C.Safara_only; C.Full; C.Pgi_like ] then
            List.iter
              (fun ((arch : Safara_gpu.Arch.t), c) ->
                List.iter
                  (fun (region, rounds) ->
                    Buffer.add_string b
                      (Printf.sprintf "%s %s %s %s\n" id (C.profile_name p)
                         arch.Safara_gpu.Arch.key region);
                    List.iter
                      (fun r ->
                        Buffer.add_string b
                          (Format.asprintf "  %a\n"
                             Safara_transform.Safara.pp_round r))
                      rounds)
                  c.C.c_logs)
              per_arch)
        per_profile)
    (Lazy.force registry_compiles);
  Buffer.contents b

let test_safara_golden () =
  check_golden "safara.golden" "registry SAFARA round logs"
    (safara_golden_content ())

(* one line per registry kernel under base and full on kepler, where
   nothing spills, re-assembled under 16- and 32-register caps: the
   first allocation's register count, spilled registers in spill order
   and a digest of its assignment, then the spill-converged report and
   the digest of its final allocation. Every allocation verifies. *)
let spill_golden_content () =
  let module LS = Safara_ptxas.Linear_scan in
  let module A = Safara_ptxas.Assemble in
  let arch = Safara_gpu.Arch.kepler_k20xm in
  let allocate cap code what =
    let facts = Safara_vir.Facts.make code in
    let res = LS.allocate ~max_regs:cap facts in
    (match LS.verify facts res with
    | Ok () -> ()
    | Error e -> Alcotest.fail (what ^ ": " ^ e));
    let digest =
      Digest.to_hex
        (Digest.string
           (String.concat ","
              (List.map
                 (fun (r, u) -> Printf.sprintf "%s=%d" (Safara_vir.Vreg.to_string r) u)
                 res.LS.assignment)))
    in
    (res, String.sub digest 0 8)
  in
  let b = Buffer.create 16384 in
  List.iter
    (fun (w : Workload.t) ->
      let prog = Safara_lang.Frontend.compile w.Workload.source in
      List.iter
        (fun p ->
          List.iter
            (fun ((k : Safara_vir.Kernel.t), (rep : A.report)) ->
              let what = w.Workload.id ^ " " ^ k.Safara_vir.Kernel.kname in
              Alcotest.(check int) (what ^ " ships unspilled") 0 rep.A.spill_bytes;
              Buffer.add_string b
                (Printf.sprintf "%-12s %-23s %s" w.Workload.id (C.profile_name p)
                   k.Safara_vir.Kernel.kname);
              List.iter
                (fun cap ->
                  let first, first_digest = allocate cap k.Safara_vir.Kernel.code what in
                  let k', _, rep' = A.assemble ~max_regs:cap ~arch k in
                  let final, final_digest = allocate cap k'.Safara_vir.Kernel.code what in
                  Alcotest.(check (list string)) (what ^ " spill converged") []
                    (List.map Safara_vir.Vreg.to_string final.LS.spilled);
                  Buffer.add_string b
                    (Printf.sprintf
                       " | cap%d r%d a=%s spill=[%s] -> r%d s%d i%d a=%s" cap
                       first.LS.regs_used first_digest
                       (String.concat " "
                          (List.map Safara_vir.Vreg.to_string first.LS.spilled))
                       rep'.A.regs_used rep'.A.spill_bytes rep'.A.instructions
                       final_digest))
                [ 16; 32 ];
              Buffer.add_char b '\n')
            (C.compile ~arch p prog).C.c_kernels)
        [ C.Base; C.Full ])
    Registry.all;
  Buffer.contents b

let test_spill_golden () =
  check_golden "spill.golden" "capped allocation and spill snapshot"
    (spill_golden_content ())

(* one line per tuned workload x arch: the grid-search winner, its
   and the default point's simulated ms (hex floats, so any bit of
   drift shows) and the points evaluated. The workloads are the ones
   whose search is cheap: every registry entry but the six slowest. *)
let tune_golden_ids =
  List.filter
    (fun id ->
      not
        (List.mem id
           [ "355.seismic"; "356.sp"; "357.csp"; "MG"; "LU"; "BT" ]))
    (List.map (fun (w : Workload.t) -> w.Workload.id) Registry.all)

let tune_golden_content () =
  let module Tune = Safara_tune.Tune in
  let b = Buffer.create 4096 in
  List.iter
    (fun id ->
      let w = Registry.find id in
      List.iter
        (fun (arch : Safara_gpu.Arch.t) ->
          let eng = Eval.create ~jobs:1 () in
          let r = Tune.search eng ~arch w in
          Eval.shutdown eng;
          Buffer.add_string b
            (Printf.sprintf
               "%-12s %-8s best=%s/u%d best_ms=%h default_ms=%h evaluated=%d\n"
               id arch.Safara_gpu.Arch.key r.Tune.tr_best.Tune.pt_config
               r.Tune.tr_best.Tune.pt_unroll r.Tune.tr_best_ms
               r.Tune.tr_default_ms r.Tune.tr_evaluated))
        Safara_gpu.Arch.registry)
    tune_golden_ids;
  Buffer.contents b

let test_tune_golden () =
  check_golden "tune.golden" "tune winners snapshot" (tune_golden_content ())

let suite =
  [
    Alcotest.test_case "pass registration" `Quick test_registration;
    Alcotest.test_case "declarative pipeline shapes" `Quick test_pipeline_shapes;
    Alcotest.test_case "signatures distinct and stable" `Quick
      test_signatures_distinct;
    Alcotest.test_case "--disable-pass peephole" `Quick test_disable_peephole;
    Alcotest.test_case "Full - safara = Clauses_only" `Quick
      test_disable_safara_equals_clauses_only;
    Alcotest.test_case "disable errors" `Quick test_disable_errors;
    Alcotest.test_case "verify between passes catches a broken pass" `Quick
      test_verify_catches_broken_pass;
    Alcotest.test_case "verify-between-passes catches a broken VIR pass" `Quick
      test_verify_catches_broken_vir_pass;
    Alcotest.test_case "no-op passes hand their input kernel on" `Quick
      test_noop_passes_hand_input_on;
    Alcotest.test_case "every pass reports nonzero time" `Quick
      test_every_pass_timed;
    Alcotest.test_case "--dump-ir=all" `Quick test_dump_all;
    Alcotest.test_case "eval cache keyed by pipeline" `Quick
      test_eval_cache_respects_disable;
    Alcotest.test_case "memo-less compile traces the unsplit pipeline" `Quick
      test_memoless_trace_is_unsplit;
    Alcotest.test_case "unrolled programs verify between passes" `Quick
      test_unrolled_programs_verify;
    Alcotest.test_case "golden pipeline snapshot" `Quick test_golden;
    Alcotest.test_case "golden ptxas allocation" `Quick test_ptxas_golden;
    Alcotest.test_case "golden assembled kernels" `Quick test_kernels_golden;
    Alcotest.test_case "golden SAFARA round logs" `Quick test_safara_golden;
    Alcotest.test_case "golden capped allocation and spills" `Quick
      test_spill_golden;
    Alcotest.test_case "golden tune winners" `Slow test_tune_golden;
    Alcotest.test_case "golden unrolled full-profile kernels" `Quick
      test_unrolled_golden;
  ]
