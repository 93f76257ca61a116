(* perfbench — seeded benchmark of the SAFARA compiler, its simulators
   and its compile daemon.

     perfbench.exe --workload compile|tune|serve --seed N --seconds S
                   --trace 0|1 --saraccc PATH

   Each workload repeats one kind of user-visible operation in a closed
   loop (one caller; the next operation starts when the previous one has
   returned), in rounds that each hold the same work, until S seconds
   have passed and the round in progress is complete:

   - compile  `saraccc compile -q` in process, on a fresh evaluation
              engine per compile, so every compile misses the caches; a
              round compiles every workload under every profile for
              every architecture;
   - tune     `saraccc tune`: a grid search (15 points, each a compile
              plus a timing simulation) on a fresh engine; a round
              searches every workload of [tune_ids] on every
              architecture;
   - serve    one compile request to a `saraccc serve` daemon running as
              its own process, answered from the daemon's warm memory
              cache (no compile); a round requests every workload under
              every profile, each on an architecture the seed picks.

   Latency is per operation; throughput is operations per second of
   busy time (the closed loop's inverse mean latency). The seed draws
   the inputs: the order of each round, the input data the compile and
   tune outputs are checked on, and the architectures of the serve
   requests. Compile and tune outputs are checked against the reference
   interpreter running the base-profile compile (clauses ignored, no
   scalar replacement) of the same program on the same data; serve
   answers must be byte-identical to the in-process compile's report.

   The last line of stdout is one JSON object with the keys correct,
   attempted, failed and metrics. --trace 0 reports the end-to-end
   metrics; --trace 1 the per-layer ones, read from the counters the
   evaluation engine keeps (compile and simulation wall time, per-pass
   time, cache traffic) over the measured operations only, and for
   serve the daemon's own service time per request. *)

module C = Safara_core.Compiler
module Eval = Safara_suites.Eval
module Registry = Safara_suites.Registry
module W = Safara_suites.Workload
module Arch = Safara_gpu.Arch
module Value = Safara_sim.Value
module P = Safara_serve.Protocol
module Client = Safara_serve.Client
module Commands = Safara_serve.Commands
module Sjson = Safara_serve.Sjson
module Tune = Safara_tune.Tune

(* monotonic clock, in seconds *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let log fmt = Printf.eprintf ("perfbench: " ^^ fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* linear interpolation between the closest ranks *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let h = q *. float_of_int (n - 1) in
  let i = int_of_float h in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

(* One generator per purpose, so a longer window (more operations drawn)
   never changes what set-up drew. *)
let rng seed purpose = Random.State.make [| seed; purpose |]

let pick r l = List.nth l (Random.State.int r (List.length l))

let shuffle r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* An endless stream visiting every element of [l] once per round, in a
   fresh seeded order each round. The second function tells whether the
   stream sits between rounds: a window that only ends there measures
   whole rounds, so every run sees the same mix of work and the seed
   changes only its order. *)
let rounds r l =
  let pending = ref [] in
  let next () =
    if !pending = [] then pending := shuffle r l;
    match !pending with
    | x :: rest ->
        pending := rest;
        x
    | [] -> invalid_arg "rounds: empty list"
  in
  (next, fun () -> !pending = [])

let profiles = [ "base"; "safara"; "small"; "clauses"; "full"; "pgi" ]

(* The problem sizes the test suite proves every profile agrees on bit
   for bit (test/suite_workloads.ml): interpreter runs stay short, and
   compile work does not depend on sizes. *)
let shrink (w : W.t) =
  let has_nxp = List.mem_assoc "nxp" w.W.scalars in
  let size name = function
    | Value.I n ->
        Value.I
          (match name with
          | "nxp" -> 11
          | "nx" when has_nxp -> 10
          | "nx" | "ny" | "nz" -> max 6 (min n 10)
          | _ -> max 4 (min n 96))
    | v -> v
  in
  { w with W.scalars = List.map (fun (n, v) -> (n, size n v)) w.W.scalars }

let with_data r (w : W.t) = { w with W.seed = Random.State.bits r }

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* bit patterns of every array's checksum after a functional run *)
let checksums (c : C.compiled) (w : W.t) =
  let env = W.prepare c w in
  C.run_functional c env;
  List.map
    (fun (a : Safara_ir.Array_info.t) ->
      let name = a.Safara_ir.Array_info.name in
      ( name,
        Int64.bits_of_float
          (Safara_sim.Memory.checksum env.Safara_sim.Interp.mem name) ))
    c.C.c_prog.Safara_ir.Program.arrays

(* the oracle: the reference interpreter on the base-profile compile *)
let reference (w : W.t) =
  Safara_sim.Decode.with_engine Safara_sim.Decode.Reference (fun () ->
      checksums (C.compile_src C.Base w.W.source) w)

let agrees ~expected got =
  List.for_all (fun (name, bits) -> List.assoc_opt name got = Some bits) expected

(* ------------------------------------------------------------------ *)
(* Engine counters                                                     *)
(* ------------------------------------------------------------------ *)

(* The work an evaluation engine timed: compile and simulation wall
   time, per-pass time, cache traffic. *)
type engine = {
  mutable compile_s : float;
  mutable sim_s : float;
  mutable compiles : int;  (** compile-cache misses *)
  mutable sims : int;  (** simulations run *)
  mutable hits : int;  (** compile- and sim-cache hits *)
  mutable lookups : int;
  passes : (string, float) Hashtbl.t;  (** pass name -> seconds *)
}

let engine () =
  { compile_s = 0.; sim_s = 0.; compiles = 0; sims = 0; hits = 0;
    lookups = 0; passes = Hashtbl.create 16 }

let pass_s e name = Option.value ~default:0. (Hashtbl.find_opt e.passes name)
let add_pass e name s = Hashtbl.replace e.passes name (pass_s e name +. s)

let add_counts e ~compile_s ~sim_s ~compile_hits ~compile_misses ~sim_hits
    ~sim_misses =
  e.compile_s <- e.compile_s +. compile_s;
  e.sim_s <- e.sim_s +. sim_s;
  e.compiles <- e.compiles + compile_misses;
  e.sims <- e.sims + sim_misses;
  e.hits <- e.hits + compile_hits + sim_hits;
  e.lookups <- e.lookups + compile_hits + compile_misses + sim_hits + sim_misses

let add_stats e (s : Eval.stats) =
  add_counts e ~compile_s:s.Eval.st_compile_s ~sim_s:s.Eval.st_sim_s
    ~compile_hits:s.Eval.st_compile_hits
    ~compile_misses:s.Eval.st_compile_misses ~sim_hits:s.Eval.st_sim_hits
    ~sim_misses:s.Eval.st_sim_misses;
  List.iter (fun (name, _, secs) -> add_pass e name secs) s.Eval.st_pass_s

(* the difference between two of a daemon's [stats] responses *)
let engine_of_json ~before after =
  let e = engine () in
  let add sign j =
    let m = Sjson.member in
    let count cache field = sign * Sjson.to_int (m field (m cache j)) in
    let secs v = float_of_int sign *. Sjson.to_float v in
    add_counts e ~compile_s:(secs (m "compile_s" j)) ~sim_s:(secs (m "sim_s" j))
      ~compile_hits:(count "compile_cache" "hits")
      ~compile_misses:(count "compile_cache" "misses")
      ~sim_hits:(count "sim_cache" "hits")
      ~sim_misses:(count "sim_cache" "misses");
    match m "passes" j with
    | Sjson.Obj l ->
        List.iter (fun (name, v) -> add_pass e name (secs (m "seconds" v))) l
    | _ -> ()
  in
  add 1 after;
  add (-1) before;
  e

let vir_passes =
  [ "peephole"; "copy-prop"; "strength-red"; "indvar"; "memmerge"; "dce" ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type run = {
  setup_s : float;  (** median over [setup_reps] set-ups *)
  latencies : float list;  (** seconds, one per operation that returned *)
  ops : int;
  failed : int;  (** operations that raised or returned a wrong output *)
  checks : int;  (** interpreter checks of the window's outputs *)
  bad_checks : int;
  window : engine;  (** engine work inside the measured operations *)
  served_s : float;  (** daemon-side service time of the operations *)
}

let setup_reps = 3

(* Set-up runs [setup_reps] times from scratch; the median time is
   reported and the last instance is measured. *)
let repeated_setup ?(dispose = ignore) setup =
  let rec go i times =
    let t0 = now () in
    let s = setup () in
    let times = (now () -. t0) :: times in
    if i = setup_reps then (median times, s)
    else begin
      dispose s;
      go (i + 1) times
    end
  in
  go 1 []

(* Runs [op] back to back for [seconds] and on to the end of the round
   the input stream is in ([boundary] tells). [op] returns its own
   latency — bookkeeping around the timed call stays out of it — and
   whether its output was right. *)
let closed_loop ~boundary ~seconds op =
  let lat = ref [] and failed = ref 0 and n = ref 0 in
  let t0 = now () in
  while !n = 0 || now () -. t0 < seconds || not (boundary ()) do
    (match op !n with
    | dt, ok ->
        lat := dt :: !lat;
        if not ok then incr failed
    | exception e ->
        log "operation %d raised %s" !n (Printexc.to_string e);
        incr failed);
    incr n
  done;
  (!lat, !n, !failed)

(* ------------------------------------------------------------------ *)
(* compile: cold in-process compiles                                   *)
(* ------------------------------------------------------------------ *)

let compile_req ~profile ~arch (w : W.t) : P.compile_req =
  {
    P.cr_name = w.W.id;
    cr_src = w.W.source;
    cr_arch = arch;
    cr_profile = profile;
    cr_quiet = true;
    cr_maxrreg = None;
    cr_pressure = false;
    cr_time_passes = false;
    cr_json = false;
    cr_dumps = [];
    cr_annotate_live = false;
    cr_disable = [];
  }

let compile_workload ~seed ~seconds ~trace =
  let setup_s, inputs =
    repeated_setup (fun () ->
        let r = rng seed 1 in
        List.map
          (fun w ->
            let w = with_data r (shrink w) in
            (w, reference w))
          Registry.all)
  in
  let next, boundary =
    rounds (rng seed 2)
      (List.concat_map
         (fun (w, expected) ->
           List.concat_map
             (fun p -> List.map (fun a -> (w, expected, p, a)) Arch.names)
             profiles)
         inputs)
  in
  let window = engine () in
  let outputs = Hashtbl.create 512 and checked = Hashtbl.create 128 in
  let bad = ref 0 in
  let op _ =
    let (w : W.t), expected, profile, arch = next () in
    let req = compile_req ~profile ~arch w in
    let t0 = now () in
    let eng = Eval.create ~jobs:1 () in
    let o = Commands.compile eng req in
    let dt = now () -. t0 in
    if trace then add_stats window (Eval.stats eng);
    (* The first artifact of each (program, profile) runs on the
       interpreter against the oracle, out of the timed call and out of
       the counters. *)
    if not (Hashtbl.mem checked (w.W.id, profile)) then begin
      Hashtbl.add checked (w.W.id, profile) ();
      let c =
        Eval.compile_src eng ~arch:(Arch.of_name arch)
          (Commands.profile_of profile) w.W.source
      in
      if not (agrees ~expected (checksums c w)) then begin
        log "compile: %s under %s computes a wrong result" w.W.id profile;
        incr bad
      end
    end;
    Eval.shutdown eng;
    (* the same (program, profile, arch) must print the same report *)
    let key = (w.W.id, profile, arch) and digest = Digest.string o.P.out in
    let same =
      match Hashtbl.find_opt outputs key with
      | Some prev -> Digest.equal prev digest
      | None ->
          Hashtbl.add outputs key digest;
          true
    in
    (dt, o.P.code = 0 && same)
  in
  let latencies, ops, failed = closed_loop ~boundary ~seconds op in
  { setup_s; latencies; ops; failed; checks = Hashtbl.length checked;
    bad_checks = !bad; window; served_s = 0. }

(* ------------------------------------------------------------------ *)
(* tune: grid searches                                                 *)
(* ------------------------------------------------------------------ *)

(* Every workload whose search takes under half a second, so a run holds
   whole rounds over all of them on every architecture; the six left out
   take 0.6-5 s a search. *)
let tune_ids =
  List.filter
    (fun id ->
      not
        (List.mem id
           [ "355.seismic"; "356.sp"; "357.csp"; "MG"; "LU"; "BT" ]))
    (List.map (fun (w : W.t) -> w.W.id) Registry.all)

let tune_workload ~seed ~seconds ~trace =
  let setup_s, inputs =
    repeated_setup (fun () ->
        let r = rng seed 1 in
        List.map
          (fun id ->
            let w = with_data r (Registry.find id) in
            let small = shrink w in
            (w, small, reference small))
          tune_ids)
  in
  let next, boundary =
    rounds (rng seed 2)
      (List.concat_map
         (fun input -> List.map (fun a -> (input, a)) Arch.all)
         inputs)
  in
  let window = engine () in
  let winners = Hashtbl.create 64 and bad = ref 0 in
  let op _ =
    let ((w : W.t), small, expected), arch = next () in
    let t0 = now () in
    let eng = Eval.create ~jobs:1 () in
    let res = Tune.search eng ~arch w in
    let dt = now () -. t0 in
    if trace then add_stats window (Eval.stats eng);
    Eval.shutdown eng;
    let best = res.Tune.tr_best and best_ms = res.Tune.tr_best_ms in
    (* a search repeated on the same inputs must pick the same winner *)
    let key = (w.W.id, arch.Arch.key) in
    match Hashtbl.find_opt winners key with
    | Some (prev, ms) -> (dt, prev = best && same_bits ms best_ms)
    | None ->
        Hashtbl.add winners key (best, best_ms);
        (* Out of the timed call, the winner is compiled and timed again
           on a fresh engine: it must take the same simulated time, and
           its kernels must compute what the oracle computes. *)
        let fresh = Eval.create ~jobs:1 () in
        let job = Tune.job ~arch w best in
        let ms = Eval.total_ms fresh job in
        let c = Eval.compiled fresh job in
        Eval.shutdown fresh;
        if not (same_bits ms best_ms && agrees ~expected (checksums c small))
        then begin
          log "tune: %s on %s, winner %s unroll %d does not reproduce"
            w.W.id arch.Arch.key best.Tune.pt_config best.Tune.pt_unroll;
          incr bad
        end;
        (dt, true)
  in
  let latencies, ops, failed = closed_loop ~boundary ~seconds op in
  { setup_s; latencies; ops; failed; checks = Hashtbl.length winners;
    bad_checks = !bad; window; served_s = 0. }

(* ------------------------------------------------------------------ *)
(* serve: warm compile requests to a daemon process                    *)
(* ------------------------------------------------------------------ *)

(* Daemon state lives under the checkout; the socket path is relative so
   it stays within the length limit of a Unix socket address. *)
let run_dir = ".bench_run"
let socket = Filename.concat run_dir "serve.sock"

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* the daemon process still running, for the exit hook *)
let live_daemon = ref None

(* The daemon drains and exits after a shutdown request; a kill is the
   fallback. *)
let reap pid =
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () -. t0 < 30. ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait ();
  live_daemon := None

type daemon = { pid : int; conn : Client.conn }

let start_daemon ~saraccc =
  remove_tree run_dir;
  Unix.mkdir run_dir 0o755;
  let pid =
    Unix.create_process saraccc
      [| saraccc; "serve"; "--socket"; socket; "--store";
         Filename.concat run_dir "store"; "-j"; "1" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live_daemon := Some pid;
  let t0 = now () in
  let rec connect () =
    match Client.try_connect socket with
    | Some conn -> { pid; conn }
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live_daemon := None;
            failwith "saraccc serve exited during start-up");
        if now () -. t0 > 60. then failwith "saraccc serve did not come up";
        Unix.sleepf 0.002;
        connect ()
  in
  connect ()

let stop_daemon d =
  (try ignore (Client.request d.conn P.Shutdown) with _ -> ());
  Client.close d.conn;
  reap d.pid

(* a compile request's report and the daemon's own service time, in
   seconds *)
let request d req =
  match Client.request d.conn (P.Compile req) with
  | P.Result (o, served_ms) when o.P.code = 0 -> Some (o.P.out, served_ms *. 1e-3)
  | P.Result (o, _) ->
      log "request failed: %s" o.P.err;
      None
  | P.Error e ->
      log "request failed: %s" e;
      None
  | P.Data _ -> None

let stats d =
  match Client.request d.conn P.Stats with
  | P.Data j -> j
  | _ -> failwith "stats request failed"

let serve_workload ~seed ~seconds ~trace ~saraccc =
  let r = rng seed 1 in
  (* every program under every profile, each on a seeded architecture,
     with the report the in-process compile prints *)
  let requests =
    List.concat_map
      (fun w ->
        List.map
          (fun profile ->
            let req = compile_req ~profile ~arch:(pick r Arch.names) w in
            let eng = Eval.create ~jobs:1 () in
            let o = Commands.compile eng req in
            Eval.shutdown eng;
            (req, o.P.out))
          profiles)
      Registry.all
  in
  (* set-up: a daemon over an empty store, warmed with every request *)
  let setup () =
    let d = start_daemon ~saraccc in
    List.iter
      (fun (req, expected) ->
        match request d req with
        | Some (out, _) when out = expected -> ()
        | _ -> failwith ("serve: wrong warm-up answer for " ^ req.P.cr_name))
      requests;
    d
  in
  let setup_s, d = repeated_setup ~dispose:stop_daemon setup in
  let next, boundary = rounds (rng seed 2) requests in
  let served = ref 0. in
  let op _ =
    let req, expected = next () in
    let t0 = now () in
    let got = request d req in
    let dt = now () -. t0 in
    match got with
    | Some (out, s) ->
        served := !served +. s;
        (dt, out = expected)
    | None -> (dt, false)
  in
  let before = if trace then Some (stats d) else None in
  let latencies, ops, failed = closed_loop ~boundary ~seconds op in
  let window =
    match before with
    | Some before -> engine_of_json ~before (stats d)
    | None -> engine ()
  in
  stop_daemon d;
  remove_tree run_dir;
  { setup_s; latencies; ops; failed; checks = 0; bad_checks = 0; window;
    served_s = !served }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let end_to_end r =
  let lat = r.latencies in
  let ms q = 1e3 *. quantile q lat in
  [ ("latency_p50_ms", ms 0.5, "ms");
    ("latency_p90_ms", ms 0.9, "ms");
    ( "throughput_ops_s",
      float_of_int (List.length lat) /. List.fold_left ( +. ) 0. lat,
      "1/s" );
    ("setup_s", r.setup_s, "s") ]

let per_layer r =
  let per n x = if n = 0 then 0. else 1e3 *. x /. float_of_int n in
  let e = r.window in
  let passes names = List.fold_left (fun acc n -> acc +. pass_s e n) 0. names in
  let all_passes = Hashtbl.fold (fun _ s acc -> acc +. s) e.passes 0. in
  let busy_s = List.fold_left ( +. ) 0. r.latencies in
  [ ("compile_ms", per e.compiles e.compile_s, "ms");
    ("safara_ms", per e.compiles (passes [ "safara" ]), "ms");
    ("codegen_ms", per e.compiles (passes [ "codegen" ]), "ms");
    ("vir_opt_ms", per e.compiles (passes vir_passes), "ms");
    ("assemble_ms", per e.compiles (passes [ "assemble" ]), "ms");
    ("compile_other_ms", per e.compiles (e.compile_s -. all_passes), "ms");
    ("sim_ms", per e.sims e.sim_s, "ms");
    ("served_ms", per r.ops r.served_s, "ms");
    ("op_other_ms", per r.ops (busy_s -. e.compile_s -. e.sim_s), "ms");
    ( "cache_hit_ratio",
      (if e.lookups = 0 then 0.
       else float_of_int e.hits /. float_of_int e.lookups),
      "ratio" );
    ("compiles_per_op", float_of_int e.compiles /. float_of_int r.ops, "count")
  ]

let print_result ~trace r =
  let metrics = if trace then per_layer r else end_to_end r in
  let field (name, v, unit) =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0 && r.bad_checks = 0)
    (r.ops + r.checks) (r.failed + r.bad_checks)
    (String.concat ", " (List.map field metrics))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0 in
  let trace = ref (-1) and saraccc = ref "" in
  let usage =
    "perfbench --workload compile|tune|serve --seed N --seconds S --trace \
     0|1 --saraccc PATH"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "compile, tune or serve");
      ("--seed", Arg.Set_int seed, "seed the inputs are drawn from");
      ("--seconds", Arg.Set_int seconds, "length of the measurement window");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--saraccc", Arg.Set_string saraccc, "the saraccc binary (serve)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  let trace =
    match !trace with 0 -> false | 1 -> true | _ -> fail "--trace is 0 or 1"
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () ->
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !live_daemon);
  let seed = !seed and seconds = float_of_int !seconds in
  let r =
    match !workload with
    | "compile" -> compile_workload ~seed ~seconds ~trace
    | "tune" -> tune_workload ~seed ~seconds ~trace
    | "serve" ->
        if !saraccc = "" then fail "the serve workload needs --saraccc";
        serve_workload ~seed ~seconds ~trace ~saraccc:!saraccc
    | w -> fail ("unknown workload " ^ w)
  in
  if r.latencies = [] then fail "no operation completed";
  print_result ~trace r
