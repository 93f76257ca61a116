(* The parallel evaluation engine: pool ordering and serial fallback,
   content-addressed cache semantics (compute-once, physical sharing,
   failure retry), and the end-to-end determinism guarantee — figure
   and table output must be byte-identical between -j 1 and -j 4. *)

module Pool = Safara_engine.Pool
module Cache = Safara_engine.Cache
module C = Safara_core.Compiler
open Safara_suites

let test_pool_map_order () =
  let pool = Pool.create ~size:4 () in
  let n = 100 in
  let input = List.init n (fun i -> i) in
  (* uneven task weights scramble completion order *)
  let f i =
    let spin = (i * 7919) mod 97 in
    let acc = ref 0 in
    for k = 0 to spin * 1000 do
      acc := !acc + k
    done;
    ignore !acc;
    i * i
  in
  let out = Pool.map pool f input in
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "results present and in submission order"
    (List.map (fun i -> i * i) input)
    out

let test_pool_serial_fallback () =
  let pool = Pool.create ~size:1 () in
  Alcotest.(check int) "size clamps to 1" 1 (Pool.size pool);
  let out = Pool.map pool (fun i -> i + 1) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "serial map" [ 2; 3; 4 ] out;
  (match Pool.job_counts pool with
  | caller :: _ -> Alcotest.(check int) "caller ran the jobs" 3 caller
  | [] -> Alcotest.fail "no job counts");
  Pool.shutdown pool

let test_pool_exception () =
  let pool = Pool.create ~size:4 () in
  (try
     ignore
       (Pool.map pool
          (fun i -> if i = 3 then failwith "boom" else i)
          [ 0; 1; 2; 3; 4 ]);
     Alcotest.fail "expected exception"
   with Failure msg -> Alcotest.(check string) "task failure surfaces" "boom" msg);
  (* pool survives a failed batch *)
  Alcotest.(check (list int)) "pool still works" [ 0; 2; 4 ]
    (Pool.map pool (fun i -> 2 * i) [ 0; 1; 2 ]);
  Pool.shutdown pool

let test_parallel_for_order () =
  let pool = Pool.create ~size:4 () in
  let n = 1000 in
  (* chunk results come back in ascending chunk order, covering [0, n)
     exactly once, whatever the claiming order was *)
  let chunks =
    Pool.parallel_for pool ~chunks:16 ~n (fun ~lo ~hi -> (lo, hi))
  in
  Alcotest.(check int) "16 chunks" 16 (List.length chunks);
  let rec contiguous prev = function
    | [] -> Alcotest.(check int) "covers to n" n prev
    | (lo, hi) :: rest ->
        Alcotest.(check int) "contiguous" prev lo;
        Alcotest.(check bool) "nonempty chunk" true (hi > lo);
        contiguous hi rest
  in
  contiguous 0 chunks;
  let sums =
    Pool.parallel_for pool ~n (fun ~lo ~hi ->
        let acc = ref 0 in
        for i = lo to hi - 1 do
          acc := !acc + i
        done;
        !acc)
  in
  Alcotest.(check int) "chunked sum = serial sum"
    (n * (n - 1) / 2)
    (List.fold_left ( + ) 0 sums);
  Pool.shutdown pool

let test_parallel_for_min_chunk () =
  let pool = Pool.create ~size:4 () in
  (* min_chunk caps the default fan-out: 100 indices at min_chunk:40
     leave room for at most 2 chunks, and every chunk carries at least
     min_chunk indices (except possibly the last remainder) *)
  let chunks =
    Pool.parallel_for pool ~min_chunk:40 ~n:100 (fun ~lo ~hi -> (lo, hi))
  in
  Alcotest.(check int) "two chunks" 2 (List.length chunks);
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool) "at least min_chunk indices" true (hi - lo >= 40))
    chunks;
  (* a min_chunk larger than the range collapses to one serial chunk *)
  Alcotest.(check (list (pair int int)))
    "min_chunk > n is one chunk"
    [ (0, 100) ]
    (Pool.parallel_for pool ~min_chunk:1000 ~n:100 (fun ~lo ~hi -> (lo, hi)));
  (* an explicit chunk count still wins over the default cap *)
  Alcotest.(check int) "explicit chunks respected" 5
    (List.length
       (Pool.parallel_for pool ~chunks:5 ~min_chunk:1 ~n:100
          (fun ~lo ~hi -> (lo, hi))));
  Pool.shutdown pool

let test_parallel_for_serial_fallback () =
  let pool = Pool.create ~size:1 () in
  let calls = ref [] in
  let out =
    Pool.parallel_for pool ~n:10 (fun ~lo ~hi ->
        calls := (lo, hi) :: !calls;
        hi - lo)
  in
  Alcotest.(check (list int)) "one serial chunk" [ 10 ] out;
  Alcotest.(check (list (pair int int))) "exactly f ~lo:0 ~hi:n" [ (0, 10) ]
    !calls;
  Alcotest.(check (list int)) "n = 0 is empty" []
    (Pool.parallel_for pool ~n:0 (fun ~lo:_ ~hi:_ -> 1));
  Pool.shutdown pool

let test_parallel_for_nested () =
  (* parallel_for from inside a pool job must not deadlock and must
     still produce deterministic chunk-ordered results *)
  let pool = Pool.create ~size:4 () in
  let outer =
    Pool.map pool
      (fun j ->
        let inner =
          Pool.parallel_for pool ~chunks:8 ~n:100 (fun ~lo ~hi ->
              let acc = ref 0 in
              for i = lo to hi - 1 do
                acc := !acc + (i * j)
              done;
              !acc)
        in
        List.fold_left ( + ) 0 inner)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Pool.shutdown pool;
  let expect j = j * (100 * 99 / 2) in
  Alcotest.(check (list int))
    "nested fan-outs complete with exact sums"
    (List.map expect [ 1; 2; 3; 4; 5; 6 ])
    outer

let test_parallel_for_exception () =
  let pool = Pool.create ~size:4 () in
  (try
     ignore
       (Pool.parallel_for pool ~chunks:8 ~n:64 (fun ~lo ~hi:_ ->
            if lo >= 32 then failwith "chunk-boom" else lo));
     Alcotest.fail "expected exception"
   with Failure msg ->
     Alcotest.(check string) "chunk failure surfaces" "chunk-boom" msg);
  Alcotest.(check int) "pool still works" 6
    (List.fold_left ( + ) 0
       (Pool.parallel_for pool ~n:4 (fun ~lo ~hi ->
            let acc = ref 0 in
            for i = lo to hi - 1 do
              acc := !acc + i
            done;
            !acc)));
  Pool.shutdown pool

let test_cache_computes_once () =
  let cache = Cache.create ~name:"t" () in
  let pool = Pool.create ~size:4 () in
  let computes = Atomic.make 0 in
  let out =
    Pool.map pool
      (fun _ ->
        Cache.find_or_compute cache ~key:"shared" (fun () ->
            Atomic.incr computes;
            (* widen the race window *)
            let acc = ref 0 in
            for k = 0 to 2_000_000 do
              acc := !acc + k
            done;
            !acc))
      (List.init 8 (fun i -> i))
  in
  Pool.shutdown pool;
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computes);
  (match out with
  | v :: rest ->
      List.iter (fun v' -> Alcotest.(check int) "all equal" v v') rest
  | [] -> Alcotest.fail "no results");
  Alcotest.(check int) "one miss" 1 (Cache.misses cache);
  Alcotest.(check int) "seven hits" 7 (Cache.hits cache);
  Alcotest.(check int) "one entry" 1 (Cache.length cache)

let test_cache_failure_retries () =
  let cache = Cache.create () in
  let attempts = ref 0 in
  (try
     ignore
       (Cache.find_or_compute cache ~key:"k" (fun () ->
            incr attempts;
            failwith "first try fails"))
   with Failure _ -> ());
  let v =
    Cache.find_or_compute cache ~key:"k" (fun () ->
        incr attempts;
        42)
  in
  Alcotest.(check int) "second attempt ran" 2 !attempts;
  Alcotest.(check int) "and succeeded" 42 v

(* the batch protocol find_or_compute is built from: a claimed key
   reads busy to a non-waiting claimant until it is settled *)
let test_cache_claim () =
  let cache = Cache.create () in
  let expect what want got =
    let show = function
      | Cache.Hit v -> "hit " ^ string_of_int v
      | Cache.Owned -> "owned"
      | Cache.Busy -> "busy"
    in
    Alcotest.(check string) what want (show got)
  in
  expect "first claim owns" "owned" (Cache.claim cache ~key:"k");
  expect "in flight reads busy" "busy" (Cache.claim ~wait:false cache ~key:"k");
  Cache.release cache ~key:"k";
  expect "a released key is claimable" "owned"
    (Cache.claim ~wait:false cache ~key:"k");
  Cache.fill cache ~key:"k" 7;
  expect "a filled key hits" "hit 7" (Cache.claim ~wait:false cache ~key:"k");
  Alcotest.(check (pair int int)) "hits, misses" (1, 2)
    (Cache.hits cache, Cache.misses cache)

let test_compile_cache_physical_equality () =
  let eng = Eval.create ~jobs:1 () in
  let w = Registry.find "303.ostencil" in
  let j = Eval.job Safara_core.Compiler.Full w in
  let c1 = Eval.compiled eng j in
  let c2 = Eval.compiled eng j in
  Alcotest.(check bool) "physically equal artifact" true (c1 == c2);
  let s = Eval.stats eng in
  Alcotest.(check int) "one compile miss" 1 s.Eval.st_compile_misses;
  Alcotest.(check int) "one compile hit" 1 s.Eval.st_compile_hits;
  (* distinct profile = distinct key *)
  let c3 = Eval.compiled eng (Eval.job Safara_core.Compiler.Base w) in
  Alcotest.(check bool) "different profile, different artifact" true
    (not (c3 == c1));
  Eval.shutdown eng

let test_sim_dedup () =
  let eng = Eval.create ~jobs:1 () in
  let w = Registry.find "303.ostencil" in
  let j = Eval.job Safara_core.Compiler.Base w in
  let t1 = Eval.time_job eng j in
  let t2 = Eval.time_job eng j in
  Alcotest.(check bool) "physically shared timing record" true (t1 == t2);
  let s = Eval.stats eng in
  Alcotest.(check int) "simulated once" 1 s.Eval.st_sim_misses;
  Eval.shutdown eng

(* --- simulation dedup soundness -------------------------------------- *)

(* How many simulations a set of jobs needs, counted without the
   engine's key function: (workload, artifact) pairs grouped by
   structural equality of the workload input and of what the timing
   simulator reads of the compile. *)
let distinct_simulations pairs =
  let view ((w : Workload.t), (c : C.compiled)) =
    ( (w.Workload.seed, w.Workload.scalars),
      (c.C.c_kernels, c.C.c_prog.Safara_ir.Program.arrays),
      (c.C.c_arch, c.C.c_latency) )
  in
  List.fold_left
    (fun seen p ->
      let v = view p in
      if List.exists (fun u -> compare u v = 0) seen then seen else v :: seen)
    [] pairs
  |> List.length

module Arch = Safara_gpu.Arch
module Launch = Safara_sim.Launch
module Tune = Safara_tune.Tune

let tune_points =
  List.concat_map
    (fun c ->
      List.map (fun u -> { Tune.pt_config = c; pt_unroll = u }) Tune.unroll_factors)
    Tune.config_labels

(* a timing record with every float as its bit pattern, so [=] is a
   bit-for-bit comparison *)
let time_bits (t : Launch.program_time) =
  let bits = Int64.bits_of_float in
  ( bits t.Launch.total_ms,
    List.map
      (fun (k : Launch.kernel_time) ->
        ( (k.Launch.kt_name, k.Launch.kt_grid, k.Launch.kt_block),
          (k.Launch.kt_regs, bits k.Launch.kt_occupancy, k.Launch.kt_blocks_per_sm),
          (k.Launch.kt_waves, bits k.Launch.kt_cycles_per_wave, bits k.Launch.kt_ms),
          (k.Launch.kt_instructions, k.Launch.kt_transactions) ))
      t.Launch.ptk )

(* every tune point timed on one engine, where coinciding artifacts
   share a simulation, must equal the point timed alone *)
let test_dedup_matches_fresh () =
  let shared = Eval.create ~jobs:1 () in
  let differ =
    List.concat_map
      (fun id ->
        let w = Registry.find id in
        List.concat_map
          (fun arch ->
            List.filter_map
              (fun (pt : Tune.point) ->
                let j = Tune.job ~arch w pt in
                let fresh = Eval.create ~jobs:1 () in
                let alone = time_bits (Eval.time_job fresh j) in
                Eval.shutdown fresh;
                if time_bits (Eval.time_job shared j) = alone then None
                else
                  Some
                    (Printf.sprintf "%s on %s: %s unroll %d" id arch.Arch.key
                       pt.Tune.pt_config pt.Tune.pt_unroll))
              tune_points)
          [ Arch.of_name "kepler"; Arch.of_name "fermi" ])
      [ "303.ostencil"; "304.olbm" ]
  in
  let s = Eval.stats shared in
  Eval.shutdown shared;
  Alcotest.(check (list string)) "points whose time differs when shared" []
    differ;
  Alcotest.(check bool) "the shared engine deduplicated" true
    (s.Eval.st_sim_misses < 4 * List.length tune_points)

(* --- region memo soundness -------------------------------------------- *)

(* a compile that shares nothing: front end, optional unroll, and
   [C.compile] with no memo passed, so every region misses *)
let memoless ?(arch = Arch.default) ?safara_config ?unroll ?(disable = []) p
    (w : Workload.t) =
  let prog = Safara_lang.Frontend.compile w.Workload.source in
  let prog =
    match unroll with
    | None -> prog
    | Some factor -> Safara_transform.Unroll.unroll_program ~factor prog
  in
  let options =
    { Safara_core.Pipeline.default_options with
      Safara_core.Pipeline.o_disable = disable }
  in
  C.compile ~arch ?safara_config ~options p prog

let same_compile (a : C.compiled) (b : C.compiled) =
  a.C.c_prog = b.C.c_prog && a.C.c_kernels = b.C.c_kernels
  && a.C.c_logs = b.C.c_logs

(* every tune point of two workloads on two archs, compiled on one
   engine whose region memo spans them all, equals the point compiled
   alone *)
let test_memo_grid_matches_memoless () =
  let shared = Eval.create ~jobs:1 () in
  let differ =
    List.concat_map
      (fun id ->
        let w = Registry.find id in
        List.concat_map
          (fun arch ->
            List.filter_map
              (fun (pt : Tune.point) ->
                let c = Eval.compiled shared (Tune.job ~arch w pt) in
                let alone =
                  memoless ~arch
                    ?safara_config:(Tune.config_of arch pt.Tune.pt_config)
                    ~unroll:pt.Tune.pt_unroll C.Full w
                in
                if same_compile c alone then None
                else
                  Some
                    (Printf.sprintf "%s on %s: %s unroll %d" id arch.Arch.key
                       pt.Tune.pt_config pt.Tune.pt_unroll))
              tune_points)
          [ Arch.of_name "kepler"; Arch.of_name "fermi" ])
      [ "303.ostencil"; "304.olbm" ]
  in
  let s = Eval.stats shared in
  Eval.shutdown shared;
  Alcotest.(check (list string)) "points that differ when shared" [] differ;
  Alcotest.(check bool) "tail outputs were reused" true (s.Eval.st_tail_hits > 0);
  Alcotest.(check bool) "candidate analyses were reused" true
    (s.Eval.st_candidates_hits > 0)

(* SAFARA's feedback compile is the tail under the feedback disable
   set, so its kernels are tail-memo entries: a compile under that
   disable set ships, as tail hits, the kernels SAFARA's first round
   measured *)
let test_feedback_is_tail_entry () =
  let root =
    if Sys.file_exists "golden" then Filename.parent_dir_name else "."
  in
  let prog =
    Safara_lang.Frontend.compile
      (In_channel.with_open_text
         (List.fold_left Filename.concat root
            [ "examples"; "programs"; "fig5.macc" ])
         In_channel.input_all)
  in
  let memo = C.memo () in
  let safara, _ = C.compile_with ~memo C.Safara_only prog in
  let tail = memo.C.m_tail in
  let hits = Cache.hits tail and misses = Cache.misses tail in
  let options =
    { Safara_core.Pipeline.default_options with
      Safara_core.Pipeline.o_disable =
        [ "copy-prop"; "strength-red"; "indvar"; "memmerge"; "dce" ] }
  in
  let base, _ = C.compile_with ~options ~memo C.Base prog in
  Alcotest.(check (pair int int)) "every region a tail hit, no miss"
    (List.length prog.Safara_ir.Program.regions, 0)
    (Cache.hits tail - hits, Cache.misses tail - misses);
  List.iter2
    (fun (region, rounds) (_, report) ->
      match rounds with
      | (first : Safara_transform.Safara.round) :: _ ->
          Alcotest.(check int)
            (region ^ ": shipped registers = round 1's feedback")
            first.Safara_transform.Safara.regs_before
            report.Safara_ptxas.Assemble.regs_used
      | [] -> Alcotest.failf "%s: no SAFARA round" region)
    safara.C.c_logs base.C.c_kernels

(* every registry workload under every profile, with and without
   indvar, on one engine *)
let test_memo_registry_matches_memoless () =
  let shared = Eval.create ~jobs:1 () in
  let arch = Arch.of_name "kepler" in
  let differ =
    List.concat_map
      (fun (w : Workload.t) ->
        List.concat_map
          (fun disable ->
            List.filter_map
              (fun p ->
                let c = Eval.compiled shared (Eval.job ~arch ~disable p w) in
                if same_compile c (memoless ~arch ~disable p w) then None
                else
                  Some
                    (Printf.sprintf "%s %s disable=[%s]" w.Workload.id
                       (C.profile_name p) (String.concat "," disable)))
              C.all_profiles)
          [ []; [ "indvar" ] ])
      Registry.all
  in
  Eval.shutdown shared;
  Alcotest.(check (list string)) "compiles that differ when shared" [] differ

(* the disable set is part of the region key: one engine compiling
   with and without indvar keeps the two apart *)
let test_memo_disable_isolation () =
  let kernels eng disable (w : Workload.t) =
    (Eval.compiled eng (Eval.job ~disable C.Full w)).C.c_kernels
  in
  let ws = List.map Registry.find [ "303.ostencil"; "304.olbm"; "352.ep" ] in
  let shared = Eval.create ~jobs:1 () in
  let both =
    List.map
      (fun w -> (kernels shared [ "indvar" ] w, kernels shared [] w))
      ws
  in
  Eval.shutdown shared;
  let apart disable =
    let eng = Eval.create ~jobs:1 () in
    let ks = List.map (kernels eng disable) ws in
    Eval.shutdown eng;
    ks
  in
  let off = apart [ "indvar" ] and on = apart [] in
  Alcotest.(check bool) "indvar changes some kernel" true (off <> on);
  Alcotest.(check bool) "without indvar: as on a fresh engine" true
    (List.map fst both = off);
  Alcotest.(check bool) "with indvar: as on a fresh engine" true
    (List.map snd both = on)

(* the array table and the parameters are part of the region key: two
   programs whose regions are equal but whose declarations differ must
   not share kernels *)
let test_memo_declarations_in_key () =
  let src ~param ~elem =
    Printf.sprintf
      {|
param %s n;
%s a[n];
in %s b[n];

#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(128)
  for (i = 1; i <= n - 2; i++) {
    a[i] = b[i - 1] + b[i + 1];
  }
}
|}
      param elem elem
  in
  let srcs =
    [ src ~param:"int" ~elem:"double"; src ~param:"int" ~elem:"float";
      src ~param:"long" ~elem:"double" ]
  in
  let shared = Eval.create ~jobs:1 () in
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          let c = Eval.compile_src shared p s in
          let alone = C.compile p (Safara_lang.Frontend.compile s) in
          Alcotest.(check bool)
            (C.profile_name p ^ ": shared = alone")
            true (same_compile c alone))
        srcs)
    C.all_profiles;
  Eval.shutdown shared

(* the memoized input image serves a whole search and is never
   written: afterwards it still equals a freshly prepared one *)
let test_image_untouched () =
  let eng = Eval.create ~jobs:2 () in
  let w = Registry.find "304.olbm" in
  let c = Eval.compiled eng (Tune.job ~arch:Arch.default w Tune.default_point) in
  let img = Eval.image eng c w in
  ignore (Tune.search eng ~arch:Arch.default w);
  Alcotest.(check bool) "the search kept the memoized image" true
    (Eval.image eng c w == img);
  Eval.shutdown eng;
  let module M = Safara_sim.Memory in
  let mem (env : Safara_sim.Interp.env) = env.Safara_sim.Interp.mem in
  (* timing produced only the pages its resident sets touched; the
     checks below force the rest *)
  Alcotest.(check bool) "the image is still mostly unfilled" true
    (2 * M.cells_filled (mem img) < M.cells (mem img));
  let fresh = Workload.prepare c w in
  List.iter
    (fun (a : Safara_ir.Array_info.t) ->
      let name = a.Safara_ir.Array_info.name in
      Alcotest.(check int64) (name ^ " checksum")
        (Int64.bits_of_float (M.checksum (mem fresh) name))
        (Int64.bits_of_float (M.checksum (mem img) name));
      let same =
        if Safara_ir.Types.is_float a.Safara_ir.Array_info.elem then
          Array.for_all2
            (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
            (M.float_data (mem fresh) name) (M.float_data (mem img) name)
        else M.int_data (mem fresh) name = M.int_data (mem img) name
      in
      Alcotest.(check bool) (name ^ " contents") true same)
    c.C.c_prog.Safara_ir.Program.arrays

(* an engine holds one image per domain, so searching a second
   workload drops the first image; the stats still count its cells *)
let test_image_cells_counted () =
  let eng = Eval.create ~jobs:1 () in
  let ws = List.map Registry.find [ "352.ep"; "314.omriq" ] in
  List.iter (fun w -> ignore (Tune.search eng ~arch:Arch.default w)) ws;
  let s = Eval.stats eng in
  let cells w =
    let c = Eval.compiled eng (Tune.job ~arch:Arch.default w Tune.default_point) in
    Safara_sim.Memory.cells (Workload.prepare c w).Safara_sim.Interp.mem
  in
  Alcotest.(check int) "two images" 2 s.Eval.st_images;
  Alcotest.(check int) "the dropped image's cells count too"
    (List.fold_left (fun acc w -> acc + cells w) 0 ws)
    s.Eval.st_image_cells;
  Alcotest.(check bool) "timing filled part of them" true
    (s.Eval.st_image_cells_filled > 0
    && s.Eval.st_image_cells_filled < s.Eval.st_image_cells);
  Eval.shutdown eng

(* the front end reads only the source: a grid search over every
   unroll factor runs it once, and applies each factor per compile *)
let test_front_end_once_per_search () =
  let eng = Eval.create ~jobs:1 () in
  let r = Tune.search eng ~arch:Arch.default (Registry.find "303.ostencil") in
  let s = Eval.stats eng in
  Eval.shutdown eng;
  Alcotest.(check int) "points searched" Tune.space_size r.Tune.tr_evaluated;
  Alcotest.(check int) "front-end misses" 1 s.Eval.st_front_end_misses;
  Alcotest.(check int) "front-end hits" (s.Eval.st_compile_misses - 1)
    s.Eval.st_front_end_hits

(* Timing writes each domain's image in place and restores it, so
   images are per domain: a search must pick the same winner, with the
   same simulated time to the bit, at any -j. Every domain that ran a
   job prepared its own image, and none prepared more than once. At
   -j 1 every simulation ran on the caller's image, which must come
   back equal to a fresh one. *)
let test_tune_j1_equals_j4 () =
  let bits (name, ms) = (name, Int64.bits_of_float ms) in
  let module M = Safara_sim.Memory in
  let contents (c : C.compiled) (env : Safara_sim.Interp.env) =
    List.map
      (fun (a : Safara_ir.Array_info.t) ->
        let name = a.Safara_ir.Array_info.name in
        if Safara_ir.Types.is_float a.Safara_ir.Array_info.elem then
          Array.map Int64.bits_of_float (M.float_data env.Safara_sim.Interp.mem name)
        else Array.map Int64.of_int (M.int_data env.Safara_sim.Interp.mem name))
      c.C.c_prog.Safara_ir.Program.arrays
  in
  List.iter
    (fun id ->
      let w = Registry.find id in
      let run jobs =
        let eng = Eval.create ~jobs () in
        let r = Tune.search eng ~arch:Arch.default w in
        let s = Eval.stats eng in
        (if jobs = 1 then
           let c =
             Eval.compiled eng (Tune.job ~arch:Arch.default w Tune.default_point)
           in
           Alcotest.(check (list (array int64))) (id ^ ": image restored")
             (contents c (Workload.prepare c w))
             (contents c (Eval.image eng c w)));
        Eval.shutdown eng;
        (r, s)
      in
      let r1, s1 = run 1 and r4, s4 = run 4 in
      Alcotest.(check bool) (id ^ ": same winner") true
        (r1.Tune.tr_best = r4.Tune.tr_best);
      Alcotest.(check int64) (id ^ ": best_ms bits")
        (Int64.bits_of_float r1.Tune.tr_best_ms)
        (Int64.bits_of_float r4.Tune.tr_best_ms);
      Alcotest.(check (list (pair string int64))) (id ^ ": per-kernel ms bits")
        (List.map bits r1.Tune.tr_kernels)
        (List.map bits r4.Tune.tr_kernels);
      Alcotest.(check int) (id ^ ": -j 1 prepares one image") 1
        s1.Eval.st_images;
      Alcotest.(check bool) (id ^ ": timing filled part of the image") true
        (s1.Eval.st_image_cells_filled > 0
        && s1.Eval.st_image_cells_filled < s1.Eval.st_image_cells);
      let domains =
        List.length (List.filter (fun n -> n > 0) s4.Eval.st_job_counts)
      in
      Alcotest.(check bool) (id ^ ": -j 4 at most one image per domain") true
        (s4.Eval.st_images >= 1 && s4.Eval.st_images <= max 1 domains))
    [ "303.ostencil"; "359.miniGhost" ]

let check_parallel_matches_serial ?(inspect = fun _ -> ()) generate =
  let arch = Safara_gpu.Arch.default in
  let serial = Eval.create ~jobs:1 () in
  let rows1 = generate ~eng:serial ~arch in
  Eval.shutdown serial;
  let parallel = Eval.create ~jobs:4 () in
  let rows4 = generate ~eng:parallel ~arch in
  let s = Eval.stats parallel in
  inspect parallel;
  Eval.shutdown parallel;
  Alcotest.(check bool) "identical rows at -j 1 and -j 4" true (rows1 = rows4);
  s

let test_table1_j1_equals_j4 () =
  let s = check_parallel_matches_serial Experiments.table1 in
  (* base, small and small+dim under the paper configuration, plus the
     default-pipeline small+dim column *)
  Alcotest.(check int) "each (profile, pipeline) compiled at most once" 4
    s.Eval.st_compile_misses

let fig9_profiles = [ C.Base; C.Small_only; C.Clauses_only; C.Full ]

let test_fig9_j1_equals_j4 () =
  let disable = Safara_core.Pipeline.paper_options.Safara_core.Pipeline.o_disable in
  let jobs =
    List.concat_map
      (fun w -> List.map (fun p -> (w, Eval.job ~disable p w)) fig9_profiles)
      Registry.spec
  in
  let expected = ref 0 in
  let s =
    check_parallel_matches_serial
      ~inspect:(fun eng ->
        expected :=
          distinct_simulations
            (List.map (fun (w, j) -> (w, Eval.compiled eng j)) jobs))
      Experiments.fig9
  in
  (* 10 SPEC workloads x 4 profiles: every (workload, profile) pair
     compiles exactly once per run, and every distinct artifact
     simulates exactly once *)
  Alcotest.(check int) "40 distinct compiles" 40 s.Eval.st_compile_misses;
  Alcotest.(check bool) "some profiles coincide" true (!expected < 40);
  Alcotest.(check int) "one simulation per distinct artifact" !expected
    s.Eval.st_sim_misses;
  Alcotest.(check bool) "rows assembled from cache hits" true
    (s.Eval.st_sim_hits >= 40)

(* Each code array is analysed once: a compile makes one facts value
   per array it analyses (a pass that rewrites nothing hands its input
   facts on), and builds at most one CFG and walks at most one
   register-id bound per facts value — for the verifier, the passes,
   the stage stats and the allocator together. Counted in this domain
   over one cold compile of fig8 under the full profile, SAFARA's
   feedback compiles included. *)
let test_one_analysis_per_array () =
  let root =
    if Sys.file_exists "golden" then Filename.parent_dir_name else "."
  in
  let prog =
    Safara_lang.Frontend.compile
      (In_channel.with_open_text
         (List.fold_left Filename.concat root
            [ "examples"; "programs"; "fig8.macc" ])
         In_channel.input_all)
  in
  let module F = Safara_vir.Facts in
  let before = F.counts () in
  let c = C.compile C.Full prog in
  let after = F.counts () in
  let arrays = after.F.arrays - before.F.arrays in
  let cfgs = after.F.cfgs - before.F.cfgs in
  let bounds = after.F.bounds - before.F.bounds in
  Alcotest.(check bool) "the compile shipped kernels" true (c.C.c_kernels <> []);
  Alcotest.(check bool) "the compile analysed code" true (cfgs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d CFGs for %d code arrays" cfgs arrays)
    true (cfgs <= arrays);
  Alcotest.(check bool)
    (Printf.sprintf "%d bound walks for %d code arrays" bounds arrays)
    true (bounds <= arrays)

(* The engine memoizes [Eval.compile_key] on exactly the inputs it
   digests. A memoized key is the fresh digest, whether the memo was
   filled or read; the same text in another string hits; a change to
   any one input misses. *)
let test_compile_key_memo () =
  let module Arch = Safara_gpu.Arch in
  let e = Eval.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Eval.shutdown e)
    (fun () ->
      let keys =
        List.concat_map
          (fun (w : Workload.t) ->
            List.concat_map
              (fun arch ->
                List.map
                  (fun profile ->
                    let j = Eval.job ~arch profile w in
                    let filled = Eval.job_key e j in
                    let d0 = Cache.digests () in
                    let read = Eval.job_key e j in
                    Alcotest.(check int) "a memo hit digests nothing" 0
                      (Cache.digests () - d0);
                    let fresh =
                      Eval.compile_key ~src:w.Workload.source ~profile ~arch
                        ~config:None ~unroll:None ~disable:[]
                    in
                    Alcotest.(check string) "filled = fresh" fresh filled;
                    Alcotest.(check string) "read = fresh" fresh read;
                    fresh)
                  C.all_profiles)
              [ Arch.default; Arch.fermi_like ])
          Registry.all
      in
      Alcotest.(check int) "one key per input" (List.length keys)
        (List.length (List.sort_uniq compare keys));
      let w = Registry.find "303.ostencil" in
      let src = w.Workload.source in
      let compile ?(arch = Arch.default) ?config ?(disable = [])
          ?(profile = C.Full) src =
        ignore (Eval.compile_src e ~arch ?safara_config:config ~disable profile src)
      in
      let misses () = (Eval.stats e).Eval.st_compile_misses in
      compile src;
      let m = misses () and d0 = Cache.digests () in
      compile (Bytes.to_string (Bytes.of_string src));
      ignore (Eval.compiled e (Eval.job C.Full w));
      Alcotest.(check int) "a copy of the source and its job hit" m (misses ());
      Alcotest.(check int) "... and digest nothing" 0 (Cache.digests () - d0);
      let edited =
        let b = Bytes.of_string src in
        Bytes.set b (String.index src ' ') '\t';
        Bytes.to_string b
      in
      let misses_once what f =
        let m = misses () in
        f ();
        Alcotest.(check int) (what ^ " misses") (m + 1) (misses ())
      in
      misses_once "a one-byte edit" (fun () -> compile edited);
      misses_once "another profile" (fun () -> compile ~profile:C.Base src);
      misses_once "another arch" (fun () -> compile ~arch:Arch.fermi_like src);
      misses_once "a disable set" (fun () -> compile ~disable:[ "peephole" ] src);
      misses_once "a SAFARA config" (fun () ->
          compile ?config:(Tune.config_of Arch.default "cap48") src);
      misses_once "an unroll factor" (fun () ->
          ignore (Eval.compiled e (Eval.job ~unroll:2 C.Full w))))

(* The engine memoizes the simulation key as it does the compile key:
   a warm timing simulation makes no digest, and another seed or
   scalar value (0. and -0. apart) misses once. *)
let test_sim_key_memo () =
  let e = Eval.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Eval.shutdown e)
    (fun () ->
      let w = Registry.find "303.ostencil" in
      let time (w : Workload.t) = ignore (Eval.time_job e (Eval.job C.Base w)) in
      let misses () = (Eval.stats e).Eval.st_sim_misses in
      time w;
      let m = misses () and d0 = Cache.digests () in
      time w;
      Alcotest.(check int) "a warm time_job hits" m (misses ());
      Alcotest.(check int) "... and digests nothing" 0 (Cache.digests () - d0);
      let with_c1 x =
        { w with
          Workload.scalars =
            List.map
              (fun (n, v) -> if n = "c1" then (n, Safara_sim.Value.F x) else (n, v))
              w.Workload.scalars }
      in
      let misses_once what w' =
        let m = misses () in
        time w';
        Alcotest.(check int) (what ^ " misses once") (m + 1) (misses ());
        time w';
        Alcotest.(check int) (what ^ " then hits") (m + 1) (misses ())
      in
      misses_once "another seed" { w with Workload.seed = w.Workload.seed + 1 };
      misses_once "another scalar value" (with_c1 0.03);
      misses_once "a zero scalar" (with_c1 0.);
      misses_once "a negative-zero scalar" (with_c1 (-0.)))

let suite =
  [
    Alcotest.test_case "pool: map preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "pool: -j 1 serial fallback" `Quick
      test_pool_serial_fallback;
    Alcotest.test_case "pool: task exception surfaces" `Quick
      test_pool_exception;
    Alcotest.test_case "pool: parallel_for chunk order" `Quick
      test_parallel_for_order;
    Alcotest.test_case "pool: parallel_for min_chunk granularity" `Quick
      test_parallel_for_min_chunk;
    Alcotest.test_case "pool: parallel_for -j 1 serial fallback" `Quick
      test_parallel_for_serial_fallback;
    Alcotest.test_case "pool: parallel_for nested in pool job" `Quick
      test_parallel_for_nested;
    Alcotest.test_case "pool: parallel_for chunk exception surfaces" `Quick
      test_parallel_for_exception;
    Alcotest.test_case "cache: concurrent requests compute once" `Quick
      test_cache_computes_once;
    Alcotest.test_case "cache: failed compute retries" `Quick
      test_cache_failure_retries;
    Alcotest.test_case "cache: claim, release, fill" `Quick test_cache_claim;
    Alcotest.test_case "cache: compiled artifacts physically shared" `Quick
      test_compile_cache_physical_equality;
    Alcotest.test_case "cache: simulation deduplicated" `Quick test_sim_dedup;
    Alcotest.test_case "dedup: shared engine = fresh engine per point" `Slow
      test_dedup_matches_fresh;
    Alcotest.test_case "memo: shared engine = memo-less compile per point"
      `Slow test_memo_grid_matches_memoless;
    Alcotest.test_case "memo: registry x profiles x indvar = memo-less" `Slow
      test_memo_registry_matches_memoless;
    Alcotest.test_case "memo: disable sets kept apart" `Quick
      test_memo_disable_isolation;
    Alcotest.test_case "memo: declarations in the region key" `Quick
      test_memo_declarations_in_key;
    Alcotest.test_case "dedup: input image never written" `Quick
      test_image_untouched;
    Alcotest.test_case "images: dropped images' cells counted" `Quick
      test_image_cells_counted;
    Alcotest.test_case "front end: once per source in a search" `Quick
      test_front_end_once_per_search;
    Alcotest.test_case "determinism: tune -j1 = -j4" `Slow
      test_tune_j1_equals_j4;
    Alcotest.test_case "determinism: table1 -j1 = -j4" `Quick
      test_table1_j1_equals_j4;
    Alcotest.test_case "determinism: fig9 -j1 = -j4" `Slow
      test_fig9_j1_equals_j4;
    Alcotest.test_case "SAFARA feedback is a tail-memo entry" `Quick
      test_feedback_is_tail_entry;
    Alcotest.test_case "fig8 -p full analyses each code array once" `Quick
      test_one_analysis_per_array;
    Alcotest.test_case "compile keys: the memo never aliases" `Quick
      test_compile_key_memo;
    Alcotest.test_case "simulation keys: a warm time_job digests nothing" `Quick
      test_sim_key_memo;
  ]
