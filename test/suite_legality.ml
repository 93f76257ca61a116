(* Dependence legality: one golden snapshot of every loop verdict,
   dependence, race diagnostic (SAF010/SAF011) and block-parallel
   verdict over the registry workloads, the example and corpus
   programs and the shared legality sources. *)

module C = Safara_core.Compiler
module Diag = Safara_diag.Diagnostic
module Workload = Safara_suites.Workload
module Blockpar = Safara_sim.Blockpar
module Legality = Safara_analysis.Legality

let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let macc_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".macc")
  |> List.sort compare
  |> List.map (fun f -> (f, Suite_more.read_file (Filename.concat dir f)))

(* every program the golden covers, with its compiles on the default
   arch per profile; the registry's come from the shared pipeline
   compiles *)
let programs =
  lazy
    (let default = Safara_gpu.Arch.default.Safara_gpu.Arch.key in
     let compiles src =
       let prog = Safara_lang.Frontend.compile src in
       List.map (fun p -> (p, C.compile p prog)) C.all_profiles
     in
     let examples =
       match Suite_more.sample_dir with
       | None -> Alcotest.fail "examples/programs not found"
       | Some dir -> macc_files dir
     in
     List.map
       (fun (w : Workload.t) ->
         let per_profile =
           List.map
             (fun (p, per_arch) ->
               ( p,
                 snd
                   (List.find
                      (fun ((a : Safara_gpu.Arch.t), _) ->
                        String.equal a.Safara_gpu.Arch.key default)
                      per_arch) ))
             (List.assoc w.Workload.id (Lazy.force Suite_pipeline.registry_compiles))
         in
         (w.Workload.id, w.Workload.source, per_profile))
       Safara_suites.Registry.all
     @ List.map
         (fun (f, src) -> ("examples/" ^ f, src, compiles src))
         examples
     @ List.map
         (fun (f, src) -> ("corpus/" ^ f, src, compiles src))
         (macc_files corpus_dir)
     @ List.map
         (fun (name, src) -> ("sources/" ^ name, src, compiles src))
         Legality_sources.all)

let blockpar_line (c : C.compiled) (k : Safara_vir.Kernel.t) =
  match Blockpar.analyze ~prog:c.C.c_prog k with
  | Blockpar.Block_parallel -> "block-parallel"
  | Blockpar.Serial r -> "serial: " ^ Blockpar.reason_message r

let legality_content () =
  let b = Buffer.create 65536 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  List.iter
    (fun (name, src, per_profile) ->
      line "##### %s" name;
      let prog, map = Safara_lang.Frontend.compile_with_map ~file:name src in
      (* the resolved regions, as `saraccc analyze` prints them *)
      List.iter
        (fun (r : Safara_ir.Region.t) ->
          let legality = Legality.analyze r.Safara_ir.Region.body in
          line "=== region %s ===" r.Safara_ir.Region.rname;
          line "--- parallelism:";
          List.iter
            (fun (idx, v) ->
              line "  loop %s: %s" idx
                (Format.asprintf "%a" Legality.pp_verdict v))
            (Legality.verdicts legality);
          line "--- dependences:";
          List.iter
            (fun d ->
              line "  %s" (Format.asprintf "%a" Safara_analysis.Dependence.pp_dep d))
            (Legality.deps legality))
        (Safara_analysis.Schedule.resolve_program prog).Safara_ir.Program.regions;
      line "--- races:";
      List.iter
        (fun (d : Diag.t) ->
          line "  %s %s: %s%s" d.Diag.code d.Diag.where d.Diag.message
            (match d.Diag.hint with None -> "" | Some h -> " [hint: " ^ h ^ "]"))
        (Safara_check.Races.check_program ~map prog);
      line "--- block-parallel:";
      List.iter
        (fun (p, (c : C.compiled)) ->
          List.iter
            (fun ((k : Safara_vir.Kernel.t), _) ->
              line "  %-23s %s: %s" (C.profile_name p) k.Safara_vir.Kernel.kname
                (blockpar_line c k))
            c.C.c_kernels)
        per_profile)
    (Lazy.force programs);
  Buffer.contents b

let test_legality_golden () =
  Suite_pipeline.check_golden "legality.golden"
    "loop verdicts, dependences, races and block-parallel verdicts"
    (legality_content ())

(* Block-parallel soundness: a kernel judged block-parallel must also
   pass the loop-parallelism answer at each grid-mapped loop — no
   dependence carried there and no write of the same element from
   every iteration. *)
let test_blocks_imply_parallel_axes () =
  let judged = ref 0 in
  List.iter
    (fun (name, _, per_profile) ->
      List.iter
        (fun (p, (c : C.compiled)) ->
          List.iter
            (fun ((k : Safara_vir.Kernel.t), _) ->
              match Blockpar.analyze ~prog:c.C.c_prog k with
              | Blockpar.Serial _ -> ()
              | Blockpar.Block_parallel ->
                  incr judged;
                  let r =
                    List.find
                      (fun (r : Safara_ir.Region.t) ->
                        String.equal r.Safara_ir.Region.rname
                          k.Safara_vir.Kernel.kname)
                      c.C.c_prog.Safara_ir.Program.regions
                  in
                  let legality = Legality.analyze r.Safara_ir.Region.body in
                  List.iter
                    (fun (m : Safara_vir.Kernel.axis_map) ->
                      let idx = m.Safara_vir.Kernel.ax_index in
                      let where =
                        Printf.sprintf "%s %s kernel %s axis loop %s" name
                          (C.profile_name p) k.Safara_vir.Kernel.kname idx
                      in
                      Alcotest.(check int)
                        (where ^ ": carried dependences") 0
                        (List.length (Legality.carried legality idx));
                      Alcotest.(check int)
                        (where ^ ": same-element writes") 0
                        (List.length (Legality.invariant_writes legality idx)))
                    k.Safara_vir.Kernel.axes)
            c.C.c_kernels)
        per_profile)
    (Lazy.force programs);
  Alcotest.(check bool) "some kernel is block-parallel" true (!judged > 0)

(* Under [kernels] an undirected loop is the compiler's to promote,
   but not one whose every iteration writes the same element. *)
let test_same_element_write_stays_seq () =
  let src = Legality_sources.wrap_loop ~sched:"" "c[0] = a[i];" in
  let prog =
    Safara_analysis.Schedule.resolve_program (Safara_lang.Frontend.compile src)
  in
  let r = List.hd prog.Safara_ir.Program.regions in
  match r.Safara_ir.Region.body with
  | [ Safara_ir.Stmt.For l ] ->
      Alcotest.(check bool)
        "stays seq" true
        (l.Safara_ir.Stmt.sched = Safara_ir.Stmt.Seq)
  | _ -> Alcotest.fail "loop missing"

let suite =
  [
    Alcotest.test_case "golden legality verdicts" `Quick test_legality_golden;
    Alcotest.test_case "block-parallel kernels pass the loop verdict" `Quick
      test_blocks_imply_parallel_axes;
    Alcotest.test_case "same-element write keeps an auto loop seq" `Quick
      test_same_element_write_stays_seq;
  ]
