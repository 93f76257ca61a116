(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (see DESIGN.md's per-experiment index)
   from one Experiments.t, built under the paper's pass configuration,
   plus the simulator, tune and loop-pass benchmarks.

   All experiments run through the parallel, memoizing evaluation
   engine (lib/engine + Safara_suites.Eval): -j N sets the domain-pool
   size (default: SAFARA_JOBS, else cores-1), the content-addressed
   caches ensure each (workload, profile) compiles and simulates at
   most once per run, and the rendered output is byte-identical at any
   -j. Engine statistics go to stderr so stdout stays comparable.

   Usage: main.exe [fig7|fig9|fig10|fig11|fig12|table1|table2|offsets|
                    ablations|crossarch|unroll|sim|tune|
                    loopopt|json|all]
                   [-j N] [--smoke] [--min-runs N] [--engine NAME]
                   [--arch NAME] [--store DIR]
   (default: all). --engine selects the simulator execution engine
   (reference|threaded, default threaded) for the experiment modes;
   bench sim always measures both. --arch selects the GPU
   model from the architecture registry (default kepler) for every
   mode except crossarch (inherently multi-arch) and tune (sweeps the
   registry unless --arch restricts it).                              *)

open Safara_suites

(* --- JSON output (the sim, tune, loopopt and json modes) -------------- *)

module Sjson = Safara_json.Sjson

let write_json file v =
  let oc = open_out file in
  output_string oc (Sjson.to_string v);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" file

(* --- sim: simulator-throughput microbenchmark ------------------------ *)
(* Measures simulated instructions per second of both simulator
   engines — the closure-threaded compiler (default) and the boxed
   reference walker — over the evaluation workload mix, for the
   functional interpreter and the timing model separately, plus the
   block-parallel threaded path at the given -j. Before measuring, each
   workload is run once under both engines and, for the threaded one,
   at both parallelism levels, and the results (array checksums,
   dynamic counters, timing stats) are required to match exactly — the
   bit-identity gate; any divergence exits 1. Results go to
   BENCH_sim.json. *)

let sim_smoke_ids = [ "303.ostencil"; "355.seismic"; "EP" ]

type sim_meas = {
  sm_ips : float;  (** total instructions / total wall seconds *)
  sm_best : float;
      (** best single-run ips on the process-CPU clock — the speedup
          basis for serial engine ratios. Wall time charges the engine
          for every preemption by unrelated load; CPU time measures
          the work itself, so serial-vs-serial ratios survive a busy
          machine. *)
  sm_best_wall : float;
      (** best single-run wall-clock ips — the basis for parallel
          ratios, where CPU time would double-count the domains *)
  sm_instr : int;
  sm_s : float;
  sm_runs : int;
}

let sim_with_engine = Safara_sim.Decode.with_engine

(* On a machine shared with background load, measuring the engines one
   after another lets a single load spike poison one engine's window —
   and every ratio computed from it. The engines are therefore
   measured in interleaved rounds, one run of each per round, so any
   noise burst degrades all of them alike; each engine's best-observed
   rate then comes from the same weather, and best-of-K stays an
   apples-to-apples speedup basis. *)
let sim_measure_group ~min_time ~min_runs
    (entries : (Safara_sim.Decode.engine * (unit -> int)) array) :
    sim_meas array =
  let n = Array.length entries in
  (* warm-up round: decoder, closure compiler, allocator *)
  Array.iter
    (fun (e, run) -> sim_with_engine e (fun () -> ignore (run ())))
    entries;
  let instr = Array.make n 0 and secs = Array.make n 0. in
  let best_cpu = Array.make n 0. and best_wall = Array.make n 0. in
  let runs = Array.make n 0 in
  let rec round () =
    Array.iteri
      (fun i (e, run) ->
        let c0 = Sys.time () in
        let r0 = Safara_engine.Clock.now () in
        let k = sim_with_engine e run in
        let r1 = Safara_engine.Clock.now () in
        let c1 = Sys.time () in
        if r1 > r0 then
          best_wall.(i) <-
            Float.max best_wall.(i) (float_of_int k /. (r1 -. r0));
        if c1 > c0 then
          best_cpu.(i) <- Float.max best_cpu.(i) (float_of_int k /. (c1 -. c0));
        instr.(i) <- instr.(i) + k;
        secs.(i) <- secs.(i) +. (r1 -. r0);
        runs.(i) <- runs.(i) + 1)
      entries;
    let continue = ref false in
    for i = 0 to n - 1 do
      if secs.(i) < min_time || runs.(i) < min_runs then continue := true
    done;
    if !continue then round ()
  in
  round ();
  Array.init n (fun i ->
      let ips = float_of_int instr.(i) /. secs.(i) in
      {
        sm_ips = ips;
        sm_best = Float.max best_cpu.(i) ips;
        sm_best_wall = Float.max best_wall.(i) ips;
        sm_instr = instr.(i);
        sm_s = secs.(i);
        sm_runs = runs.(i);
      })

(* Measurement closures prepare memory once and reuse it across runs:
   input generation is engine-independent work that would otherwise
   dilute every engine ratio toward 1. Inputs are produced lazily
   (Memory page slots): a functional closure's first run produces its
   arrays whole, and a timing closure's first run produces the pages
   its resident set touches, which stay filled. That first run is the
   warm-up round of [sim_measure_group], so neither the totals nor
   best-of-K include it. Later timing runs still see one slot per
   page: a site cursor that crosses a page computes the next slot
   from its array (no search), a cost every measured run includes.
   Counters measure the work each run actually
   did, so re-running over mutated arrays remains an honest
   instructions-per-second. The bit-identity gates below use fresh
   memory every time. *)

let sim_functional_run c (w : Workload.t) =
  let env = Workload.prepare c w in
  let kgrids =
    List.map
      (fun (k, _) ->
        (k, Safara_sim.Launch.grid_of ~env:env.Safara_sim.Interp.scalars k))
      c.Safara_core.Compiler.c_kernels
  in
  fun () ->
    let counters = Safara_sim.Interp.fresh_counters () in
    List.iter
      (fun (k, grid) ->
        Safara_sim.Interp.run_kernel ~counters
          ~prog:c.Safara_core.Compiler.c_prog ~env ~grid k)
      kgrids;
    counters.Safara_sim.Interp.c_instructions

let sim_timing_run c (w : Workload.t) =
  let env = Workload.prepare c w in
  fun () ->
    let pt = Safara_core.Compiler.time c env in
    List.fold_left
      (fun acc kt -> acc + kt.Safara_sim.Launch.kt_instructions)
      0 pt.Safara_sim.Launch.ptk

let sim_check_identical c (w : Workload.t) =
  (* every engine must agree bit-for-bit — functional results (array
     checksums compared as raw float bits, dynamic counters) and
     timing-model output — before throughput means anything *)
  let snapshot e =
    sim_with_engine e (fun () ->
        let env = Workload.prepare c w in
        let counters = Safara_sim.Interp.fresh_counters () in
        List.iter
          (fun (k, _) ->
            let grid =
              Safara_sim.Launch.grid_of ~env:env.Safara_sim.Interp.scalars k
            in
            Safara_sim.Interp.run_kernel ~counters
              ~prog:c.Safara_core.Compiler.c_prog ~env ~grid k)
          c.Safara_core.Compiler.c_kernels;
        let sums =
          List.map
            (fun (a : Safara_ir.Array_info.t) ->
              ( a.Safara_ir.Array_info.name,
                Int64.bits_of_float
                  (Safara_sim.Memory.checksum env.Safara_sim.Interp.mem
                     a.Safara_ir.Array_info.name) ))
            c.Safara_core.Compiler.c_prog.Safara_ir.Program.arrays
        in
        let timing = Safara_core.Compiler.time c (Workload.prepare c w) in
        (sums, counters, timing))
  in
  let base = snapshot Safara_sim.Decode.Reference in
  List.iter
    (fun e ->
      if e <> Safara_sim.Decode.Reference && snapshot e <> base then (
        Printf.eprintf "bench sim: %s engine diverges from reference on %s\n"
          (Safara_sim.Decode.engine_name e)
          w.Workload.id;
        exit 1))
    Safara_sim.Decode.all_engines

(* block-parallel legality, judged once per kernel so repeated
   measurement runs skip the dependence analysis *)
let sim_kernel_verdicts c =
  List.map
    (fun (k, _) ->
      (k, Safara_sim.Blockpar.analyze ~prog:c.Safara_core.Compiler.c_prog k))
    c.Safara_core.Compiler.c_kernels

let sim_functional_run_par c (w : Workload.t) ~pool ~verdicts =
  let env = Workload.prepare c w in
  let kgrids =
    List.map
      (fun (k, verdict) ->
        ( k,
          verdict,
          Safara_sim.Launch.grid_of ~env:env.Safara_sim.Interp.scalars k ))
      verdicts
  in
  fun () ->
    let counters = Safara_sim.Interp.fresh_counters () in
    List.iter
      (fun (k, verdict, grid) ->
        Safara_sim.Interp.run_kernel ~counters ~pool ~verdict
          ~prog:c.Safara_core.Compiler.c_prog ~env ~grid k)
      kgrids;
    counters.Safara_sim.Interp.c_instructions

let sim_check_parallel c (w : Workload.t) ~pool ~verdicts =
  (* the bit-identity gate of the block-parallel path: final memory
     (every program array) and summed counters must equal the
     sequential threaded walk exactly, at any -j. The cost model is
     forced open (threshold 0) so the gate actually exercises the
     parallel path even on tiny launches. *)
  let snapshot run =
    let env = Workload.prepare c w in
    let counters = Safara_sim.Interp.fresh_counters () in
    run env counters;
    let sums =
      List.map
        (fun (a : Safara_ir.Array_info.t) ->
          ( a.Safara_ir.Array_info.name,
            Int64.bits_of_float
              (Safara_sim.Memory.checksum env.Safara_sim.Interp.mem
                 a.Safara_ir.Array_info.name) ))
        c.Safara_core.Compiler.c_prog.Safara_ir.Program.arrays
    in
    (sums, counters)
  in
  sim_with_engine Safara_sim.Decode.Threaded (fun () ->
    let seq =
      snapshot (fun env counters ->
          List.iter
            (fun (k, _) ->
              let grid =
                Safara_sim.Launch.grid_of
                  ~env:env.Safara_sim.Interp.scalars k
              in
              Safara_sim.Interp.run_kernel ~counters
                ~prog:c.Safara_core.Compiler.c_prog ~env ~grid k)
            c.Safara_core.Compiler.c_kernels)
    in
    let par =
      let saved = !Safara_sim.Interp.parallel_threshold in
      Safara_sim.Interp.parallel_threshold := 0;
      Fun.protect
        ~finally:(fun () ->
          Safara_sim.Interp.parallel_threshold := saved)
        (fun () ->
          snapshot (fun env counters ->
              List.iter
                (fun (k, verdict) ->
                  let grid =
                    Safara_sim.Launch.grid_of
                      ~env:env.Safara_sim.Interp.scalars k
                  in
                  Safara_sim.Interp.run_kernel ~counters ~pool ~verdict
                    ~prog:c.Safara_core.Compiler.c_prog ~env ~grid k)
                verdicts))
    in
    if seq <> par then (
      Printf.eprintf
        "bench sim: threaded block-parallel interp diverges from \
         serial on %s\n"
        w.Workload.id;
      exit 1))

(* one instrumented pass per workload recording how each launch
   actually executed — chosen chunk count, or the runtime fallback
   reason (cost model, -j 1, single block) *)
let sim_kernel_modes c (w : Workload.t) ~pool ~verdicts =
  sim_with_engine Safara_sim.Decode.Threaded (fun () ->
      let env = Workload.prepare c w in
      List.map
        (fun (k, verdict) ->
          let grid =
            Safara_sim.Launch.grid_of ~env:env.Safara_sim.Interp.scalars k
          in
          let m =
            Safara_sim.Interp.run_kernel_m ~pool ~verdict
              ~prog:c.Safara_core.Compiler.c_prog ~env ~grid k
          in
          (k.Safara_vir.Kernel.kname, m))
        verdicts)

type sim_row = {
  r_id : string;
  r_fr : sim_meas;  (** interp, reference walker *)
  r_ft : sim_meas;  (** interp, threaded closures *)
  r_fp : sim_meas;  (** interp, block-parallel (threaded) *)
  r_tr : sim_meas;  (** timing, reference walker *)
  r_tt : sim_meas;  (** timing, threaded closures *)
  r_verdicts : (Safara_vir.Kernel.t * Safara_sim.Blockpar.verdict) list;
  r_modes : (string * Safara_sim.Interp.mode) list;
}

let run_sim ~smoke ~min_runs ~pool ~arch () =
  let workloads =
    if smoke then List.map Registry.find sim_smoke_ids else Registry.all
  in
  let min_time = if smoke then 0.05 else 0.3 in
  let min_runs =
    match min_runs with Some n -> n | None -> if smoke then 1 else 3
  in
  let jobs = Safara_engine.Pool.size pool in
  Printf.printf
    "Simulator throughput: reference walker vs threaded closures\n\
     profile Full, %s; simulated warp-instructions per second; -j %d, \
     min-runs %d\n\n"
    arch.Safara_gpu.Arch.name jobs min_runs;
  Printf.printf "%-16s %11s %11s %6s %11s %6s %11s %11s %6s\n" "workload"
    "interp-ref" "interp-thr" "thr-x" "interp-par" "par-x" "timing-ref"
    "timing-thr" "thr-x";
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let c =
          Safara_core.Compiler.compile_src ~arch Safara_core.Compiler.Full
            w.Workload.source
        in
        sim_check_identical c w;
        let verdicts = sim_kernel_verdicts c in
        sim_check_parallel c w ~pool ~verdicts;
        let modes = sim_kernel_modes c w ~pool ~verdicts in
        let fg =
          sim_measure_group ~min_time ~min_runs
            [|
              (Safara_sim.Decode.Reference, sim_functional_run c w);
              (Safara_sim.Decode.Threaded, sim_functional_run c w);
              ( Safara_sim.Decode.Threaded,
                sim_functional_run_par c w ~pool ~verdicts );
            |]
        in
        let fr = fg.(0) and ft = fg.(1) and fp = fg.(2) in
        let tg =
          sim_measure_group ~min_time ~min_runs
            [|
              (Safara_sim.Decode.Reference, sim_timing_run c w);
              (Safara_sim.Decode.Threaded, sim_timing_run c w);
            |]
        in
        let tr = tg.(0) and tt = tg.(1) in
        Printf.printf
          "%-16s %11.3e %11.3e %5.2fx %11.3e %5.2fx %11.3e %11.3e %5.2fx\n%!"
          w.Workload.id fr.sm_ips ft.sm_ips
          (ft.sm_best /. fr.sm_best)
          fp.sm_ips
          (fp.sm_best_wall /. ft.sm_best_wall)
          tr.sm_ips tt.sm_ips
          (tt.sm_best /. tr.sm_best);
        List.iter
          (fun (kname, m) ->
            match m with
            | Safara_sim.Interp.Parallel { chunks } ->
                Printf.printf "  %s/%s: threaded, parallel in %d chunks\n%!"
                  w.Workload.id kname chunks
            | Safara_sim.Interp.Sequential None -> ()
            | Safara_sim.Interp.Sequential (Some r) ->
                Printf.printf "  %s/%s: serial fallback — %s\n%!"
                  w.Workload.id kname
                  (Safara_sim.Blockpar.reason_message r))
          modes;
        { r_id = w.Workload.id; r_fr = fr; r_ft = ft; r_fp = fp; r_tr = tr;
          r_tt = tt; r_verdicts = verdicts; r_modes = modes })
      workloads
  in
  (* The aggregate combines each workload's best-of-K rate,
     instruction-weighted: per-workload time = one run's instructions
     at the best observed rate, summed across workloads. Mean rates
     fold scheduler noise into every engine ratio (this box runs the
     bench alongside background load on few cores); the best run is
     the closest observation of an engine's actual cost, and using it
     consistently for every engine keeps the ratios honest. *)
  let agg_on basis f =
    let i, s =
      List.fold_left
        (fun (i, s) r ->
          let m = f r in
          let per_run =
            float_of_int m.sm_instr /. float_of_int (max 1 m.sm_runs)
          in
          (i +. per_run, s +. (per_run /. basis m)))
        (0., 0.) rows
    in
    i /. s
  in
  let agg = agg_on (fun m -> m.sm_best) in
  let agg_wall = agg_on (fun m -> m.sm_best_wall) in
  let fr = agg (fun r -> r.r_fr) and ft = agg (fun r -> r.r_ft) in
  (* the parallel ratio compares wall time to wall time *)
  let ftw = agg_wall (fun r -> r.r_ft) and fp = agg_wall (fun r -> r.r_fp) in
  let tr = agg (fun r -> r.r_tr) and tt = agg (fun r -> r.r_tt) in
  Printf.printf
    "\n%-16s %11.3e %11.3e %5.2fx %11.3e %5.2fx %11.3e %11.3e %5.2fx\n"
    "aggregate" fr ft (ft /. fr) fp (fp /. ftw) tr tt (tt /. tr);
  let open Sjson in
  let meas_json (m : sim_meas) =
    Obj
      [ ("ips", Num m.sm_ips);
        ("best_ips", Num m.sm_best);
        ("best_wall_ips", Num m.sm_best_wall);
        ("instructions", int m.sm_instr);
        ("seconds", Num m.sm_s);
        ("runs", int m.sm_runs) ]
  in
  let verdict_json modes (k, v) =
    let kname = k.Safara_vir.Kernel.kname in
    let mode_fields =
      match List.assoc_opt kname modes with
      | Some (Safara_sim.Interp.Parallel { chunks }) ->
          [ ("mode", Str "parallel"); ("chunks", int chunks) ]
      | Some (Safara_sim.Interp.Sequential None) ->
          [ ("mode", Str "sequential") ]
      | Some (Safara_sim.Interp.Sequential (Some r)) ->
          [ ("mode", Str "sequential");
            ("mode_reason", Str (Safara_sim.Blockpar.reason_message r)) ]
      | None -> []
    in
    Obj
      (("name", Str kname)
      ::
      (match v with
      | Safara_sim.Blockpar.Block_parallel -> [ ("block_parallel", Bool true) ]
      | Safara_sim.Blockpar.Serial r ->
          [ ("block_parallel", Bool false);
            ("fallback_reason", Str (Safara_sim.Blockpar.reason_message r))
          ])
      @ mode_fields)
  in
  let json =
    Obj
      [ ("arch", Str arch.Safara_gpu.Arch.name);
        ("arch_key", Str arch.Safara_gpu.Arch.key);
        ("profile", Str "full");
        ("mode", Str (if smoke then "smoke" else "full"));
        ("jobs", int jobs);
        ("min_runs", int min_runs);
        ("default_engine",
         Str (Safara_sim.Decode.engine_name !Safara_sim.Decode.engine));
        ("workloads",
         Arr
           (List.map
              (fun r ->
                Obj
                  [ ("id", Str r.r_id);
                    ("engine",
                     Str
                       (Safara_sim.Decode.engine_name
                          !Safara_sim.Decode.engine));
                    ("interp_reference", meas_json r.r_fr);
                    ("interp_threaded", meas_json r.r_ft);
                    ("interp_threaded_speedup",
                     Num (r.r_ft.sm_best /. r.r_fr.sm_best));
                    ("interp_parallel", meas_json r.r_fp);
                    ("parallel_speedup",
                     Num (r.r_fp.sm_best_wall /. r.r_ft.sm_best_wall));
                    ("kernels",
                     Arr (List.map (verdict_json r.r_modes) r.r_verdicts));
                    ("timing_reference", meas_json r.r_tr);
                    ("timing_threaded", meas_json r.r_tt);
                    ("timing_threaded_speedup",
                     Num (r.r_tt.sm_best /. r.r_tr.sm_best)) ])
              rows));
        ("aggregate",
         Obj
           [ ("interp_reference_ips", Num fr);
             ("interp_threaded_ips", Num ft);
             ("interp_threaded_speedup", Num (ft /. fr));
             ("interp_parallel_ips", Num fp);
             ("parallel_speedup", Num (fp /. ftw));
             ("timing_reference_ips", Num tr);
             ("timing_threaded_ips", Num tt);
             ("timing_threaded_speedup", Num (tt /. tr)) ]) ]
  in
  write_json "BENCH_sim.json" json

(* --- tune: autotuning search over (config x unroll x arch) ----------- *)
(* Runs Safara_tune's grid search for every (workload, architecture)
   pair through one shared engine, so coincident points are cache
   hits, and reports the winner per pair plus the engine's sim-cache
   hit rate over the whole search. The search revisits every warmed
   point at least once (argmin + baseline reads), so the hit rate must
   exceed 50% — a hard gate in --smoke mode. *)

let tune_smoke_ids = [ "303.ostencil"; "355.seismic" ]

let run_tune ~smoke ~eng ~archs () =
  let workloads =
    if smoke then List.map Registry.find tune_smoke_ids else Registry.all
  in
  let jobs = Eval.jobs eng in
  Printf.printf
    "Autotuning: grid search over (SAFARA config x unroll factor) per \
     workload and architecture\n\
     %d workloads x %d archs, %d points each; objective: timing simulator, \
     profile Full; -j %d\n\n"
    (List.length workloads) (List.length archs) Safara_tune.Tune.space_size
    jobs;
  let s0 = Eval.stats eng in
  let results =
    List.concat_map
      (fun (arch : Safara_gpu.Arch.t) ->
        List.map
          (fun w ->
            let r = Safara_tune.Tune.search eng ~arch w in
            print_string (Safara_tune.Tune.render r);
            r)
          workloads)
      archs
  in
  let s1 = Eval.stats eng in
  let hits = s1.Eval.st_sim_hits - s0.Eval.st_sim_hits in
  let misses = s1.Eval.st_sim_misses - s0.Eval.st_sim_misses in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Printf.printf
    "\nsearch sim-cache: %d hits / %d misses (%.1f%% hit rate)\n" hits misses
    (100. *. hit_rate);
  let json =
    let open Sjson in
    Obj
      [ ("mode", Str (if smoke then "smoke" else "full"));
        ("jobs", int jobs);
        ("strategy", Str "grid");
        ("space", int Safara_tune.Tune.space_size);
        ("config_labels", Arr (List.map str Safara_tune.Tune.config_labels));
        ("unroll_factors", Arr (List.map int Safara_tune.Tune.unroll_factors));
        ("archs",
         Arr
           (List.map
              (fun (a : Safara_gpu.Arch.t) -> Str a.Safara_gpu.Arch.key)
              archs));
        ("results", Arr (List.map Safara_tune.Tune.to_json results));
        ("sim_cache",
         Obj
           [ ("hits", int hits);
             ("misses", int misses);
             ("hit_rate", Num hit_rate) ]);
        ("engine", Eval.stats_json (Eval.stats eng)) ]
  in
  write_json "BENCH_tune.json" json;
  if smoke then begin
    if hit_rate <= 0.5 then begin
      Printf.eprintf
        "bench tune: sim-cache hit rate %.1f%% is below the 50%% gate\n"
        (100. *. hit_rate);
      exit 1
    end;
    List.iter
      (fun (r : Safara_tune.Tune.result) ->
        if r.Safara_tune.Tune.tr_improvement < 1.0 then begin
          Printf.eprintf
            "bench tune: %s on %s: grid best (%.4f ms) worse than default \
             (%.4f ms)\n"
            r.Safara_tune.Tune.tr_id r.Safara_tune.Tune.tr_arch
            r.Safara_tune.Tune.tr_best_ms r.Safara_tune.Tune.tr_default_ms;
          exit 1
        end)
      results
  end

(* --- loopopt: before/after evidence for the loop-aware passes --------- *)

(* The CI artifact for the indvar/memmerge pipeline extension and the
   per-architecture address-cost tables: for each workload ×
   architecture it compiles Base twice — once as-is, once with the
   loop passes disabled — and records per-kernel hot-loop static op
   counts plus the simulated end-to-end time of both variants.
   suite_loopopt pins two of the op counts as goldens; this mode
   publishes the whole matrix (BENCH_loopopt.json) and, under --smoke,
   gates on the stencil/umesh hot loops shrinking and on the timing
   improving on at least four workload × arch pairs. *)

let loopopt_ids = [ "303.ostencil"; "360.ilbdc"; "350.md"; "364.umesh" ]
let loopopt_passes = [ "indvar"; "memmerge" ]

(* the hottest natural-loop body, the same measurement suite_loopopt
   pins: indvar's preheader clones make whole-kernel static counts
   grow, so the win only shows inside the loop *)
let hot_loop_ops (k : Safara_vir.Kernel.t) =
  let cfg = Safara_vir.Cfg.build k.Safara_vir.Kernel.code in
  List.fold_left
    (fun acc (l : Safara_vir.Cfg.loop) ->
      let ops = ref 0 in
      Array.iteri
        (fun b in_body ->
          if in_body then begin
            let blk = cfg.Safara_vir.Cfg.blocks.(b) in
            ops := !ops + blk.Safara_vir.Cfg.last - blk.Safara_vir.Cfg.first + 1
          end)
        l.Safara_vir.Cfg.body;
      max acc !ops)
    0
    (Safara_vir.Cfg.loops cfg)

let run_loopopt ~smoke ~eng ~archs () =
  let profile = Safara_core.Compiler.Base in
  let ws = List.map Registry.find loopopt_ids in
  let job_on arch w = Eval.job ~arch profile w in
  let job_off arch w = Eval.job ~arch ~disable:loopopt_passes profile w in
  Eval.warm eng
    (List.concat_map
       (fun w -> List.concat_map (fun a -> [ job_on a w; job_off a w ]) archs)
       ws);
  let rows =
    List.concat_map
      (fun (w : Workload.t) ->
        List.map
          (fun (arch : Safara_gpu.Arch.t) ->
            let con = Eval.compiled eng (job_on arch w)
            and coff = Eval.compiled eng (job_off arch w) in
            let kernels =
              List.map2
                (fun ((kon : Safara_vir.Kernel.t), _)
                     ((koff : Safara_vir.Kernel.t), _) ->
                  ( kon.Safara_vir.Kernel.kname,
                    hot_loop_ops kon,
                    hot_loop_ops koff ))
                con.Safara_core.Compiler.c_kernels
                coff.Safara_core.Compiler.c_kernels
            in
            let ms_on = Eval.total_ms eng (job_on arch w)
            and ms_off = Eval.total_ms eng (job_off arch w) in
            (w.Workload.id, arch, kernels, ms_on, ms_off))
          archs)
      ws
  in
  Printf.printf
    "Loop-aware passes (indvar+memmerge): Base profile before/after\n";
  Printf.printf
    "--------------------------------------------------------------\n";
  List.iter
    (fun (id, (arch : Safara_gpu.Arch.t), kernels, ms_on, ms_off) ->
      Printf.printf "%-14s %-8s %9.3f ms -> %9.3f ms (%5.2fx)\n" id
        arch.Safara_gpu.Arch.key ms_off ms_on (ms_off /. ms_on);
      List.iter
        (fun (kn, on_ops, off_ops) ->
          if off_ops <> on_ops then
            Printf.printf "    %-20s hot-loop ops %3d -> %3d\n" kn off_ops
              on_ops)
        kernels)
    rows;
  let json =
    let open Sjson in
    Obj
      [ ("schema", Str "loopopt-v1");
        ("passes", Arr (List.map str loopopt_passes));
        ("arch_addr_cost",
         Obj
           (List.map
              (fun (arch : Safara_gpu.Arch.t) ->
                let t = Safara_gpu.Addrcost.for_arch arch in
                ( arch.Safara_gpu.Arch.key,
                  Obj
                    [ ("mul_add", int t.Safara_gpu.Addrcost.mul_add);
                      ("scale_and_base",
                       int t.Safara_gpu.Addrcost.scale_and_base);
                      ("dope_load", int t.Safara_gpu.Addrcost.dope_load);
                      ("ro_issue", int t.Safara_gpu.Addrcost.ro_issue) ] ))
              archs));
        ("rows",
         Arr
           (List.map
              (fun (id, (arch : Safara_gpu.Arch.t), kernels, ms_on, ms_off) ->
                Obj
                  [ ("id", Str id);
                    ("arch", Str arch.Safara_gpu.Arch.key);
                    ("ms_with_passes", Num ms_on);
                    ("ms_without", Num ms_off);
                    ("speedup", Num (ms_off /. ms_on));
                    ("kernels",
                     Arr
                       (List.map
                          (fun (kn, on_ops, off_ops) ->
                            Obj
                              [ ("kernel", Str kn);
                                ("hot_loop_ops_with", int on_ops);
                                ("hot_loop_ops_without", int off_ops) ])
                          kernels)) ])
              rows)) ]
  in
  write_json "BENCH_loopopt.json" json;
  if smoke then begin
    List.iter
      (fun (want_id, want_kernel) ->
        List.iter
          (fun (id, (arch : Safara_gpu.Arch.t), kernels, _, _) ->
            if String.equal id want_id then
              List.iter
                (fun (kn, on_ops, off_ops) ->
                  if String.equal kn want_kernel && on_ops >= off_ops then begin
                    Printf.eprintf
                      "bench loopopt: %s/%s on %s: hot-loop ops did not \
                       shrink (%d with passes vs %d without)\n"
                      id kn arch.Safara_gpu.Arch.key on_ops off_ops;
                    exit 1
                  end)
                kernels)
          rows)
      [ ("303.ostencil", "stencil"); ("364.umesh", "edge_flux") ];
    let improved =
      List.length
        (List.filter (fun (_, _, _, ms_on, ms_off) -> ms_on < ms_off) rows)
    in
    if improved < 4 then begin
      Printf.eprintf
        "bench loopopt: timing improved on only %d workload×arch pairs \
         (need >= 4)\n"
        improved;
      exit 1
    end;
    Printf.printf "smoke gates: hot loops shrink, timing improves on %d/%d \
                   pairs\n"
      improved (List.length rows)
  end

(* --- entry point ----------------------------------------------------- *)

let usage () =
  Printf.eprintf
    "usage: main.exe \
     [fig7|fig9|fig10|fig11|fig12|table1|table2|offsets|ablations|crossarch|unroll|sim|tune|loopopt|json|all] \
     [-j N] [--smoke] [--min-runs N] [--engine reference|threaded] \
     [--arch NAME] [--store DIR]\n";
  exit 2

let () =
  let jobs = ref None in
  let smoke = ref false in
  let min_runs = ref None in
  let arch_override = ref None in
  let store_dir = ref None in
  let cmds = ref [] in
  let rec parse i =
    if i < Array.length Sys.argv then begin
      (match Sys.argv.(i) with
      | "-j" | "--jobs" ->
          if i + 1 >= Array.length Sys.argv then usage ();
          (match int_of_string_opt Sys.argv.(i + 1) with
          | Some n when n >= 1 -> jobs := Some n
          | _ -> usage ());
          parse (i + 2)
      | "--smoke" ->
          smoke := true;
          parse (i + 1)
      | "--min-runs" ->
          if i + 1 >= Array.length Sys.argv then usage ();
          (match int_of_string_opt Sys.argv.(i + 1) with
          | Some n when n >= 1 -> min_runs := Some n
          | _ -> usage ());
          parse (i + 2)
      | "--arch" ->
          if i + 1 >= Array.length Sys.argv then usage ();
          (* registry-checked like --engine: unknown names are
             rejected with the list of valid ones *)
          (match Safara_gpu.Arch.of_name Sys.argv.(i + 1) with
          | a -> arch_override := Some a
          | exception Failure msg ->
              Printf.eprintf "main.exe: %s\n" msg;
              exit 2);
          parse (i + 2)
      | "--store" ->
          if i + 1 >= Array.length Sys.argv then usage ();
          store_dir := Some Sys.argv.(i + 1);
          parse (i + 2)
      | "--engine" ->
          if i + 1 >= Array.length Sys.argv then usage ();
          (* registry-checked: an unknown engine name is rejected with
             the list of valid ones, like --disable-pass in saraccc *)
          (match Safara_sim.Decode.engine_of_string Sys.argv.(i + 1) with
          | e -> Safara_sim.Decode.engine := e
          | exception Failure msg ->
              Printf.eprintf "main.exe: %s\n" msg;
              exit 2);
          parse (i + 2)
      | arg when String.length arg > 0 && arg.[0] = '-' -> usage ()
      | arg ->
          cmds := arg :: !cmds;
          parse (i + 1))
    end
  in
  parse 1;
  let cmd = match !cmds with [] -> "all" | [ c ] -> c | _ -> usage () in
  let arch = Option.value !arch_override ~default:Safara_gpu.Arch.default in
  (* the command is resolved before an engine exists, so an unknown
     one costs nothing *)
  let section =
    match cmd with
    | "sim" | "tune" | "loopopt" | "json" | "all" -> None
    | other -> (
        match Experiments.section other with
        | Some _ as render -> render
        | None ->
            Printf.eprintf
              "unknown experiment %S; expected \
               fig7|fig9|fig10|fig11|fig12|table1|table2|offsets|ablations|crossarch|unroll|sim|tune|loopopt|json|all\n"
              other;
            exit 2)
  in
  (* --store memoizes compile+simulate results across bench runs via
     the persistent on-disk artifact store (same format as serve) *)
  let store = Option.map Safara_engine.Store.open_store !store_dir in
  let eng = Eval.create ?jobs:!jobs ?store () in
  Fun.protect ~finally:(fun () -> Eval.shutdown eng) @@ fun () ->
  (* determinism guard, on every -j > 1: parallel evaluation must
     reproduce the serial results exactly *)
  if Eval.jobs eng > 1 then Eval.self_check eng (Registry.find "303.ostencil");
  (match cmd with
  | "sim" ->
      run_sim ~smoke:!smoke ~min_runs:!min_runs ~pool:(Eval.pool eng) ~arch ()
  | "tune" ->
      let archs =
        match !arch_override with
        | Some a -> [ a ]
        | None ->
            if !smoke then [ Safara_gpu.Arch.kepler_k20xm; Safara_gpu.Arch.fermi_like ]
            else Safara_gpu.Arch.registry
      in
      run_tune ~smoke:!smoke ~eng ~archs ()
  | "loopopt" ->
      let archs =
        match !arch_override with
        | Some a -> [ a ]
        | None -> Safara_gpu.Arch.registry
      in
      run_loopopt ~smoke:!smoke ~eng ~archs ()
  | "json" -> (
      match Experiments.to_json (Experiments.evaluate ~eng ~arch) with
      | Sjson.Obj members ->
          let engine = Eval.stats_json (Eval.stats eng) in
          print_endline
            (Sjson.to_string (Sjson.Obj (members @ [ ("engine", engine) ])))
      | _ -> assert false)
  | "all" -> print_string (Experiments.to_text (Experiments.evaluate ~eng ~arch))
  | _ -> print_string (Option.get section (Experiments.evaluate ~eng ~arch)));
  if cmd <> "sim" then
    prerr_string (Eval.render_stats eng)
