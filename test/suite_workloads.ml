(* Benchmark-suite tests: every workload compiles under every profile,
   runs functionally, and produces identical results (the transforms
   must preserve each benchmark's semantics); plus structural
   assertions the paper's tables rely on. *)

open Safara_suites

(* shrink problem sizes so the functional interpreter stays fast *)
let shrink (w : Workload.t) =
  let shrink_value name v =
    match v with
    | Safara_sim.Value.I n ->
        let small =
          match name with
          | "nx" | "ny" | "nz" | "nxp" -> max 6 (min n 10)
          | _ -> max 4 (min n 96)
        in
        (* keep derived extents consistent: nxp = nx + 1 *)
        let small = if name = "nxp" then 11 else small in
        let small = if name = "nx" && List.mem_assoc "nxp" w.Workload.scalars then 10 else small in
        Safara_sim.Value.I small
    | f -> f
  in
  {
    w with
    Workload.scalars =
      List.map (fun (n, v) -> (n, shrink_value n v)) w.Workload.scalars;
  }

(* static array extents cannot shrink via scalars; NPB workloads with
   constant dims keep their size but have small iteration spaces tied
   to the params — cap the params instead *)
let runnable_workloads = Registry.all

let test_profiles_agree (w : Workload.t) () =
  let w = shrink w in
  let base = Workload.run_under Safara_core.Compiler.Base w in
  List.iter
    (fun p ->
      let got = Workload.run_under p w in
      List.iter2
        (fun (a, expected) (_, actual) ->
          if
            Int64.bits_of_float expected <> Int64.bits_of_float actual
          then
            Alcotest.fail
              (Printf.sprintf "%s: array %s differs under %s (%.12g vs %.12g)"
                 w.Workload.id a
                 (Safara_core.Compiler.profile_name p)
                 expected actual))
        base got)
    [ Safara_core.Compiler.Safara_only; Safara_core.Compiler.Small_only;
      Safara_core.Compiler.Clauses_only; Safara_core.Compiler.Full;
      Safara_core.Compiler.Pgi_like ]

let test_all_kernels_within_hardware () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun p ->
          let c = Safara_core.Compiler.compile_src p w.Workload.source in
          List.iter
            (fun (_, r) ->
              if
                r.Safara_ptxas.Assemble.regs_used
                > Safara_gpu.Arch.kepler_k20xm.Safara_gpu.Arch.max_registers_per_thread
              then
                Alcotest.fail
                  (Printf.sprintf "%s/%s: %d registers exceed the hardware cap"
                     w.Workload.id r.Safara_ptxas.Assemble.kernel_name
                     r.Safara_ptxas.Assemble.regs_used))
            c.Safara_core.Compiler.c_kernels)
        Safara_core.Compiler.all_profiles)
    runnable_workloads

let test_seismic_table1_ordering () =
  let w = Registry.find "355.seismic" in
  let regs p k =
    let c = Safara_core.Compiler.compile_src p w.Workload.source in
    (Safara_core.Compiler.report_of c k).Safara_ptxas.Assemble.regs_used
  in
  List.iter
    (fun k ->
      let base = regs Safara_core.Compiler.Base k in
      let small = regs Safara_core.Compiler.Small_only k in
      let both = regs Safara_core.Compiler.Clauses_only k in
      if not (small < base) then
        Alcotest.fail (Printf.sprintf "%s: small did not save registers" k);
      if not (both < small) then
        Alcotest.fail (Printf.sprintf "%s: dim did not save further registers" k))
    Spec_seismic.hot_kernels

let test_sp_table2_na_rows () =
  let w = Registry.find "356.sp" in
  let regs p k =
    let c = Safara_core.Compiler.compile_src p w.Workload.source in
    (Safara_core.Compiler.report_of c k).Safara_ptxas.Assemble.regs_used
  in
  (* dim-NA kernels: the dim column must equal the small column *)
  List.iter
    (fun k ->
      Alcotest.(check int)
        (k ^ " NA row")
        (regs Safara_core.Compiler.Small_only k)
        (regs Safara_core.Compiler.Clauses_only k))
    Spec_sp.dim_na;
  (* HOT6 is all-static: small must save nothing *)
  Alcotest.(check int) "hot6 small saves 0"
    (regs Safara_core.Compiler.Base "hot6")
    (regs Safara_core.Compiler.Small_only "hot6")

let test_npb_small_is_noop () =
  (* NAS arrays are static: small (implicit or explicit) cannot change
     register counts, the paper's explanation for Fig 10's flat bars *)
  List.iter
    (fun (w : Workload.t) ->
      let cb = Safara_core.Compiler.compile_src Safara_core.Compiler.Base w.Workload.source in
      let cs = Safara_core.Compiler.compile_src Safara_core.Compiler.Small_only w.Workload.source in
      List.iter2
        (fun (_, r1) (_, r2) ->
          Alcotest.(check int)
            (w.Workload.id ^ "/" ^ r1.Safara_ptxas.Assemble.kernel_name)
            r1.Safara_ptxas.Assemble.regs_used r2.Safara_ptxas.Assemble.regs_used)
        cb.Safara_core.Compiler.c_kernels cs.Safara_core.Compiler.c_kernels)
    Registry.npb

(* --- pass-manager byte-identity harness ----------------------------

   The declarative pipeline (Safara_core.Pipeline) must reproduce the
   pre-refactor monolithic driver bit for bit. [reference_compile] is
   a transcription of that driver — the strip_for/uses_safara
   conditionals and the Pgi_like arch/config special cases, calling
   the underlying phases directly — and every registered workload
   under every profile must yield Marshal-checksum-identical
   transformed IR, kernels, ptxas reports and SAFARA logs. The
   monolithic driver predates the dataflow pass catalog, so the
   pipeline runs with copy-prop/strength-red/dce disabled here; their
   own bit-identity obligation (simulated results, not instruction
   streams) is covered by the differential sweep in
   Suite_dataflow. *)

let reference_compile ?(arch = Safara_gpu.Arch.kepler_k20xm)
    ?(latency = Safara_gpu.Latency.kepler) profile prog =
  let module C = Safara_core.Compiler in
  let module R = Safara_ir.Region in
  let module P = Safara_ir.Program in
  let strip_for profile (r : R.t) =
    match profile with
    | C.Base | C.Safara_only | C.Pgi_like ->
        { r with R.dim_groups = []; small = [] }
    | C.Small_only -> { r with R.dim_groups = [] }
    | C.Clauses_only | C.Full -> r
  in
  let uses_safara = function
    | C.Safara_only | C.Full | C.Pgi_like -> true
    | C.Base | C.Small_only | C.Clauses_only -> false
  in
  let arch =
    if profile = C.Pgi_like then
      { arch with Safara_gpu.Arch.has_read_only_cache = false }
    else arch
  in
  let prog =
    { prog with P.regions = List.map (strip_for profile) prog.P.regions }
  in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let config =
    if profile = C.Pgi_like then
      {
        (Safara_transform.Safara.default_config ~arch) with
        Safara_transform.Safara.use_feedback = false;
        cost_model = `Count_only;
        assumed_free_regs = 4096;
        policy =
          {
            Safara_analysis.Reuse.default_policy with
            Safara_analysis.Reuse.skip_coalesced_read_only = false;
          };
      }
    else Safara_transform.Safara.default_config ~arch
  in
  let prog, logs =
    if uses_safara profile then
      Safara_transform.Safara.optimize_program ~config
        ~feedback:(Codegen_helper.feedback ~arch) ~arch ~latency prog
    else (prog, [])
  in
  let kernels =
    List.map
      (fun r ->
        let k, _, report =
          Safara_ptxas.Assemble.assemble ~arch
            (Codegen_helper.compile_region ~arch prog r)
        in
        (k, report))
      prog.P.regions
  in
  (prog, kernels, logs)

let checksum v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let test_pipeline_matches_reference () =
  List.iter
    (fun (w : Workload.t) ->
      let prog = Safara_lang.Frontend.compile w.Workload.source in
      List.iter
        (fun p ->
          let rprog, rkernels, rlogs = reference_compile p prog in
          let options =
            {
              Safara_core.Pipeline.default_options with
              Safara_core.Pipeline.o_disable =
                [ "copy-prop"; "strength-red"; "indvar"; "memmerge"; "dce" ];
            }
          in
          let c, _ = Safara_core.Compiler.compile_with ~options p prog in
          Alcotest.(check string)
            (Printf.sprintf "%s under %s" w.Workload.id
               (Safara_core.Compiler.profile_name p))
            (checksum (rprog, rkernels, rlogs))
            (checksum
               ( c.Safara_core.Compiler.c_prog,
                 c.Safara_core.Compiler.c_kernels,
                 c.Safara_core.Compiler.c_logs )))
        Safara_core.Compiler.all_profiles)
    Registry.all

let test_no_spills_anywhere () =
  (* the paper reports SAFARA induced no spilling; our feedback-driven
     budget must reproduce that *)
  List.iter
    (fun (w : Workload.t) ->
      let c = Safara_core.Compiler.compile_src Safara_core.Compiler.Full w.Workload.source in
      List.iter
        (fun (_, r) ->
          Alcotest.(check int)
            (w.Workload.id ^ "/" ^ r.Safara_ptxas.Assemble.kernel_name ^ " spill")
            0 r.Safara_ptxas.Assemble.spill_bytes)
        c.Safara_core.Compiler.c_kernels)
    runnable_workloads

let suite =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (w.Workload.id ^ " semantics across profiles")
        `Slow (test_profiles_agree w))
    runnable_workloads
  @ [
      Alcotest.test_case "all kernels within hardware" `Slow test_all_kernels_within_hardware;
      Alcotest.test_case "table I register ordering" `Quick test_seismic_table1_ordering;
      Alcotest.test_case "table II NA rows" `Quick test_sp_table2_na_rows;
      Alcotest.test_case "NAS small is a no-op" `Quick test_npb_small_is_noop;
      Alcotest.test_case "no spills under Full" `Quick test_no_spills_anywhere;
      Alcotest.test_case "pipeline is byte-identical to the reference driver"
        `Slow test_pipeline_matches_reference;
    ]
