(* Tests for the architecture registry and the arch-threading
   contract: names resolve through one parser, per-arch machine
   parameters actually differ where the family differs, arch never
   leaks into functional results (checksums are bit-identical across
   the whole registry), and the evaluation engine never shares cache
   entries between two architectures. Also covers the autotuning
   search driver built on those pieces. *)

open Safara_gpu
module C = Safara_core.Compiler
module Eval = Safara_suites.Eval
module Registry = Safara_suites.Registry
module Tune = Safara_tune.Tune

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- registry ------------------------------------------------------- *)

let test_registry_membership () =
  check_int "four model points" 4 (List.length Arch.registry);
  List.iter
    (fun key ->
      let a = Arch.of_name key in
      Alcotest.(check string) ("key round-trips: " ^ key) key a.Arch.key)
    Arch.names;
  check_bool "default is in the registry" true
    (List.memq Arch.default Arch.registry);
  Alcotest.(check string) "default is kepler" "kepler" Arch.default.Arch.key

let test_of_name_normalizes () =
  check_bool "case-insensitive" true (Arch.of_name "Pascal" == Arch.pascal_like);
  check_bool "trims whitespace" true
    (Arch.of_name "  fermi " == Arch.fermi_like)

let test_of_name_unknown () =
  match Arch.of_name "volta" with
  | _ -> Alcotest.fail "volta should be rejected"
  | exception Failure msg ->
      check_bool "names the bad arch" true (Str_helpers.contains msg "volta");
      (* the error must list every registry name so the user can fix
         the spelling without a round trip to the docs *)
      List.iter
        (fun key ->
          check_bool ("error lists " ^ key) true (Str_helpers.contains msg key))
        Arch.names

(* --- per-arch machine parameters ------------------------------------ *)

let test_register_granularity_per_arch () =
  (* Fermi allocates registers at warp granularity 64; the Kepler+
     generations at 256. 33 regs/thread * 32 lanes = 1056. *)
  check_int "fermi rounds 1056 -> 1088" 1088
    (Arch.registers_per_warp Arch.fermi_like ~regs_per_thread:33);
  List.iter
    (fun a ->
      check_int (a.Arch.key ^ " rounds 1056 -> 1280") 1280
        (Arch.registers_per_warp a ~regs_per_thread:33))
    [ Arch.kepler_k20xm; Arch.maxwell_like; Arch.pascal_like ]

let occ arch threads regs =
  Occupancy.calculate arch
    {
      Occupancy.threads_per_block = threads;
      regs_per_thread = regs;
      shared_bytes_per_block = 0;
    }

let test_occupancy_differs_across_family () =
  (* 256 threads at 48 regs/thread: Fermi's 32 K register file is the
     binding constraint, Kepler's 64 K file is not. *)
  let fermi = occ Arch.fermi_like 256 48 in
  let kepler = occ Arch.kepler_k20xm 256 48 in
  check_bool "fermi register-limited" true
    (fermi.Occupancy.limiter = Occupancy.Registers);
  check_bool "fermi holds fewer warps" true
    (fermi.Occupancy.active_warps < kepler.Occupancy.active_warps);
  (* Maxwell/Pascal raise max_threads_per_sm headroom differently
     from Kepler at tiny blocks: 2048 thr/SM with 32 blocks/SM caps
     64-thread blocks at 64 warps; Kepler's 16 blocks/SM caps at 32. *)
  let kep_small = occ Arch.kepler_k20xm 64 32 in
  let max_small = occ Arch.maxwell_like 64 32 in
  check_bool "maxwell fits more small blocks" true
    (max_small.Occupancy.blocks_per_sm > kep_small.Occupancy.blocks_per_sm)

let test_latency_for_arch () =
  List.iter
    (fun (a, t) ->
      check_bool (a.Arch.key ^ " selects its own table") true
        (Latency.for_arch a == t))
    [
      (Arch.fermi_like, Latency.fermi);
      (Arch.kepler_k20xm, Latency.kepler);
      (Arch.maxwell_like, Latency.maxwell);
      (Arch.pascal_like, Latency.pascal);
    ];
  (* profile deltas ({arch with ...}) keep the generation's table *)
  let flipped = { Arch.kepler_k20xm with Arch.has_read_only_cache = false } in
  check_bool "pipeline delta keeps kepler latencies" true
    (Latency.for_arch flipped == Latency.kepler);
  check_bool "unknown key falls back to kepler" true
    (Latency.for_arch { Arch.kepler_k20xm with Arch.key = "volta" }
    == Latency.kepler)

(* --- memory-space classification flips with the RO cache ------------ *)

let ro_src =
  {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= n - 1; i++) {
    a[i] = b[i] * 2.0;
  }
}
|}

let region_of src =
  let prog = Safara_lang.Frontend.compile src in
  (prog, List.hd prog.Safara_ir.Program.regions)

let test_spaces_flip_with_ro_cache () =
  let prog, r = region_of ro_src in
  let space arch =
    List.assoc "b" (Safara_analysis.Spaces.region_spaces ~arch prog r)
  in
  List.iter
    (fun (a : Arch.t) ->
      let expect =
        if a.Arch.has_read_only_cache then Memspace.Read_only
        else Memspace.Global
      in
      check_bool
        (a.Arch.key ^ ": b classified by has_read_only_cache")
        true
        (space a = expect))
    Arch.registry;
  (* the flip is a property of the flag, not of the generation *)
  check_bool "kepler minus RO cache -> global" true
    (space { Arch.kepler_k20xm with Arch.has_read_only_cache = false }
    = Memspace.Global)

(* --- engine cache isolation between archs --------------------------- *)

let test_eval_cache_isolated_per_arch () =
  let eng = Eval.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Eval.shutdown eng)
    (fun () ->
      let w = Registry.find "303.ostencil" in
      let kep = Eval.job ~arch:Arch.kepler_k20xm C.Full w in
      let pas = Eval.job ~arch:Arch.pascal_like C.Full w in
      let c1 = Eval.compiled eng kep in
      let c2 = Eval.compiled eng pas in
      let s = Eval.stats eng in
      check_int "two archs -> two compile misses" 2
        s.Eval.st_compile_misses;
      check_int "no compile hits yet" 0 s.Eval.st_compile_hits;
      check_bool "distinct artifacts" true (c1 != c2);
      (* revisits are hits, still per-arch *)
      ignore (Eval.compiled eng kep);
      ignore (Eval.compiled eng pas);
      let s = Eval.stats eng in
      check_int "revisits hit" 2 s.Eval.st_compile_hits;
      check_int "still two misses" 2 s.Eval.st_compile_misses;
      (* same isolation for the sim cache *)
      ignore (Eval.time_job eng kep);
      ignore (Eval.time_job eng pas);
      let s = Eval.stats eng in
      check_int "two archs -> two sim misses" 2 s.Eval.st_sim_misses)

(* --- cross-arch differential: checksums never depend on arch -------- *)

let test_checksums_identical_across_registry () =
  let eng = Eval.create () in
  Fun.protect
    ~finally:(fun () -> Eval.shutdown eng)
    (fun () ->
      (* warm everything through the pool, then compare serially *)
      let jobs =
        List.concat_map
          (fun w ->
            List.map (fun arch -> Eval.job ~arch C.Full w) Arch.registry)
          Registry.all
      in
      Eval.warm eng jobs;
      List.iter
        (fun (w : Safara_suites.Workload.t) ->
          let reference =
            (Eval.simulate eng (Eval.job ~arch:Arch.default C.Full w))
              .Eval.sr_checksums
          in
          check_bool
            (w.Safara_suites.Workload.id ^ ": non-empty checksums")
            true (reference <> []);
          List.iter
            (fun (arch : Arch.t) ->
              let got =
                (Eval.simulate eng (Eval.job ~arch C.Full w)).Eval.sr_checksums
              in
              check_bool
                (Printf.sprintf "%s: %s == kepler"
                   w.Safara_suites.Workload.id arch.Arch.key)
                true (got = reference))
            Arch.registry)
        Registry.all)

(* --- tune ----------------------------------------------------------- *)

let test_tune_space () =
  check_int "space = configs x unrolls"
    (List.length Tune.config_labels * List.length Tune.unroll_factors)
    Tune.space_size;
  check_bool "default point is in the space" true
    (Tune.default_point.Tune.pt_config = "default"
    && Tune.default_point.Tune.pt_unroll = 1);
  (* every label resolves on every arch; "default" means no override *)
  List.iter
    (fun arch ->
      List.iter
        (fun label ->
          let c = Tune.config_of arch label in
          check_bool
            (label ^ " on " ^ arch.Arch.key)
            (label = "default") (c = None))
        Tune.config_labels)
    Arch.registry;
  match Tune.config_of Arch.default "nonsense" with
  | _ -> Alcotest.fail "unknown label should be rejected"
  | exception Failure _ -> ()

let test_tune_grid_search () =
  let eng = Eval.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Eval.shutdown eng)
    (fun () ->
      (* two workloads, as the acceptance criteria require *)
      List.iter
        (fun id ->
          let w = Registry.find id in
          let s0 = Eval.stats eng in
          let r = Tune.search eng ~arch:Arch.default w in
          let s1 = Eval.stats eng in
          check_int (id ^ ": exhausts the space") Tune.space_size
            r.Tune.tr_evaluated;
          check_bool (id ^ ": grid best <= default") true
            (r.Tune.tr_best_ms <= r.Tune.tr_default_ms);
          check_bool (id ^ ": improvement >= 1") true
            (r.Tune.tr_improvement >= 1.0);
          check_bool (id ^ ": per-kernel times") true
            (r.Tune.tr_kernels <> []);
          (* each distinct artifact simulates exactly once; points
             whose compiles coincide and the argmin re-reads are hits,
             so hit rate > 50% by construction *)
          let hits = s1.Eval.st_sim_hits - s0.Eval.st_sim_hits in
          let misses = s1.Eval.st_sim_misses - s0.Eval.st_sim_misses in
          let artifacts =
            List.map
              (fun pt -> (w, Eval.compiled eng (Tune.job ~arch:Arch.default w pt)))
              Suite_engine.tune_points
          in
          check_int
            (id ^ ": one miss per distinct artifact")
            (Suite_engine.distinct_simulations artifacts)
            misses;
          check_bool (id ^ ": cache hit rate > 50%") true
            (float_of_int hits /. float_of_int (hits + misses) > 0.5))
        [ "303.ostencil"; "355.seismic" ])

(* Regression: the skip-ro-coalesced policy on 350.md used to crash
   codegen ("undefined scalar __sr1") — after round 1 scalarized the
   neigh[i][k] load, round 2 treated px[__sr1] as invariant in k (the
   affine analysis saw the loop-local scalar as a symbolic constant)
   and hoisted the load above the scalar's definition. Every tune
   config must compile every registry arch and, being a pure register
   optimization, leave functional checksums untouched. *)
let test_tune_configs_preserve_semantics () =
  let eng = Eval.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Eval.shutdown eng)
    (fun () ->
      let w = Registry.find "350.md" in
      List.iter
        (fun arch ->
          let reference =
            (Eval.simulate eng (Eval.job ~arch C.Full w)).Eval.sr_checksums
          in
          List.iter
            (fun label ->
              let job =
                Eval.job ~arch ?safara_config:(Tune.config_of arch label)
                  C.Full w
              in
              let got = (Eval.simulate eng job).Eval.sr_checksums in
              check_bool
                (Printf.sprintf "350.md %s/%s == default" arch.Arch.key label)
                true (got = reference))
            Tune.config_labels)
        Arch.registry)

let test_tune_deterministic_and_greedy () =
  let search ~jobs ~strategy =
    let eng = Eval.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Eval.shutdown eng)
      (fun () ->
        Tune.search ~strategy eng ~arch:Arch.pascal_like
          (Registry.find "303.ostencil"))
  in
  let serial = search ~jobs:1 ~strategy:Tune.Grid in
  let parallel = search ~jobs:4 ~strategy:Tune.Grid in
  check_bool "winner identical at any -j" true
    (serial.Tune.tr_best = parallel.Tune.tr_best);
  Alcotest.(check (float 0.0))
    "best ms identical at any -j" serial.Tune.tr_best_ms
    parallel.Tune.tr_best_ms;
  let greedy = search ~jobs:1 ~strategy:Tune.Greedy in
  check_bool "greedy visits <= the full space" true
    (greedy.Tune.tr_evaluated <= Tune.space_size);
  check_bool "greedy never loses to its start" true
    (greedy.Tune.tr_best_ms <= greedy.Tune.tr_default_ms)

let suite =
  [
    Alcotest.test_case "registry membership" `Quick test_registry_membership;
    Alcotest.test_case "of_name normalizes" `Quick test_of_name_normalizes;
    Alcotest.test_case "of_name rejects unknown" `Quick test_of_name_unknown;
    Alcotest.test_case "register granularity per arch" `Quick
      test_register_granularity_per_arch;
    Alcotest.test_case "occupancy differs across family" `Quick
      test_occupancy_differs_across_family;
    Alcotest.test_case "latency table per arch" `Quick test_latency_for_arch;
    Alcotest.test_case "RO-cache flag flips memory space" `Quick
      test_spaces_flip_with_ro_cache;
    Alcotest.test_case "eval caches isolated per arch" `Quick
      test_eval_cache_isolated_per_arch;
    Alcotest.test_case "checksums identical across registry" `Slow
      test_checksums_identical_across_registry;
    Alcotest.test_case "tune search space" `Quick test_tune_space;
    Alcotest.test_case "tune grid search on two workloads" `Slow
      test_tune_grid_search;
    Alcotest.test_case "tune configs preserve semantics (350.md regression)"
      `Slow test_tune_configs_preserve_semantics;
    Alcotest.test_case "tune deterministic; greedy bounded" `Slow
      test_tune_deterministic_and_greedy;
  ]
