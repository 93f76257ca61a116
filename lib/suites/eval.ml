module C = Safara_core.Compiler
module Pool = Safara_engine.Pool
module Cache = Safara_engine.Cache
module Store = Safara_engine.Store

let assertions_enabled = Safara_core.Pass.assertions_enabled

(* a disk-store hit proves its kernels VIR-well-formed before it is
   served, so a stale or corrupt entry is recomputed; a compile-cache
   miss needs no second pass, [Pipeline.run] verified the kernels
   after [assemble] *)
let verified (c : C.compiled) =
  List.iter (fun (k, _) -> Safara_vir.Verify.verify_exn k) c.C.c_kernels;
  c

type sim_result = {
  sr_checksums : (string * float) list;
  sr_counters : int * int * int * int * int;
  sr_modes : (string * string) list;
}

type t = {
  epool : Pool.t;
  estore : Store.t option;  (** persistent layer under the caches *)
  cc : C.compiled Cache.t;  (** compile cache *)
  tc : Safara_sim.Launch.program_time Cache.t;  (** timing-sim cache *)
  fc : sim_result Cache.t;  (** functional-sim cache *)
  lock : Mutex.t;
  mutable compile_s : float;
  mutable sim_s : float;
  passes : (string, float * int) Hashtbl.t;
      (** per-pass cumulative wall time and run count, across every
          compile-cache miss *)
  created_at : float;
}

let create ?jobs ?store () =
  {
    epool = Pool.create ?size:jobs ();
    estore = store;
    cc = Cache.create ~name:"compile" ();
    tc = Cache.create ~name:"simulate" ();
    fc = Cache.create ~name:"functional" ();
    lock = Mutex.create ();
    compile_s = 0.;
    sim_s = 0.;
    passes = Hashtbl.create 16;
    created_at = Unix.gettimeofday ();
  }

let jobs t = Pool.size t.epool
let pool t = t.epool
let store t = t.estore

(* Bump when the marshalled shape of any persisted value changes
   (compiled artifacts, timing records, sim results): the generation
   is folded into every on-disk key, so old entries simply stop
   matching instead of unmarshalling into garbage. The OCaml version
   is folded in too — Marshal is not stable across compiler
   releases. *)
let store_generation = 2

let store_schema =
  Printf.sprintf "g%d/ocaml-%s/store-%d" store_generation Sys.ocaml_version
    Store.format_version

(* Memory miss → disk probe → compute-and-persist. Runs inside
   [Cache.find_or_compute], so the compute-once/dedup semantics of the
   in-memory layer extend over the disk layer: concurrent requesters
   of one cold key do a single disk probe and at most one compute, and
   a disk hit is published to every waiter. [check] revalidates
   payloads that unmarshalled into the wrong generation of value
   (schema drift the checksum cannot see) by raising — treated as a
   miss. *)
let through t cache ~kind ~key ?(check = fun v -> v) f =
  match t.estore with
  | None -> Cache.find_or_compute cache ~key f
  | Some s ->
      let skey = Printf.sprintf "%s/%s/%s" store_schema kind key in
      Cache.find_or_compute cache ~key (fun () ->
          let computed () =
            let v = f () in
            (* marshalling failures (a closure smuggled into a cached
               type) are programming errors; surface them *)
            Store.add s ~key:skey (Marshal.to_string v []);
            v
          in
          match Store.find s ~key:skey with
          | None -> computed ()
          | Some payload -> (
              match check (Marshal.from_string payload 0) with
              | v -> v
              | exception _ ->
                  Printf.eprintf
                    "saraccc store: entry for %s key %s failed revalidation, \
                     recomputing\n\
                     %!"
                    kind key;
                  computed ()))

(* the simulation engine + parallelism mode this engine would use:
   folded into every sim cache key so a key can never alias values
   produced under a different execution strategy (they are
   bit-identical by construction — the differential suite proves it —
   but the cache must not be the thing relying on that) *)
let sim_mode t =
  let e = !Safara_sim.Decode.engine in
  let par =
    if Pool.size t.epool > 1 && e <> Safara_sim.Decode.Reference then
      ":blockpar"
    else ":seq"
  in
  "sim:" ^ Safara_sim.Decode.engine_name e ^ par
let shutdown t = Pool.shutdown t.epool

let timed t phase f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.lock t.lock;
  (match phase with
  | `Compile -> t.compile_s <- t.compile_s +. dt
  | `Sim -> t.sim_s <- t.sim_s +. dt);
  Mutex.unlock t.lock;
  v

let record_trace t (trace : Safara_core.Pipeline.trace) =
  Mutex.lock t.lock;
  List.iter
    (fun (r : Safara_core.Pipeline.report) ->
      let name = r.Safara_core.Pipeline.pr_pass in
      let s, n = try Hashtbl.find t.passes name with Not_found -> (0., 0) in
      Hashtbl.replace t.passes name
        (s +. r.Safara_core.Pipeline.pr_s, n + 1))
    trace.Safara_core.Pipeline.tr_reports;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Jobs and content-addressed keys                                     *)
(* ------------------------------------------------------------------ *)

type job = {
  jw : Workload.t;
  jp : C.profile;
  jarch : Safara_gpu.Arch.t;
  jconfig : Safara_transform.Safara.config option;
  junroll : int option;
  jdisable : string list;
}

let job ?(arch = Safara_gpu.Arch.default) ?safara_config ?unroll
    ?(disable = []) profile w =
  { jw = w; jp = profile; jarch = arch; jconfig = safara_config;
    junroll = unroll; jdisable = disable }

(* All key components are plain immutable data (strings, records,
   variants), so marshalling them is a faithful content address. *)
let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* the key covers the resolved pipeline description (pass list +
   per-pass config + disabled set), not just the profile tag, so
   toggling or reordering passes can never return a stale hit *)
let compile_key ~src ~profile ~arch ~config ~unroll ~disable =
  let psig = C.pipeline_signature ?safara_config:config ~disable profile in
  digest_of (src, profile, arch, config, unroll, disable, psig)

let ckey j =
  compile_key ~src:j.jw.Workload.source ~profile:j.jp ~arch:j.jarch
    ~config:j.jconfig ~unroll:j.junroll ~disable:j.jdisable

let tkey t j =
  digest_of
    ( ckey j, j.jw.Workload.id, j.jw.Workload.seed, j.jw.Workload.scalars,
      sim_mode t )

let fkey t j = digest_of ("functional", tkey t j)

(* ------------------------------------------------------------------ *)
(* Memoized compile and simulate                                       *)
(* ------------------------------------------------------------------ *)

let compile_and_record t ~arch ?safara_config ~disable profile prog =
  let options =
    { Safara_core.Pipeline.default_options with
      Safara_core.Pipeline.o_disable = disable }
  in
  let c, trace = C.compile_with ~arch ?safara_config ~options profile prog in
  record_trace t trace;
  c

let compiled t j =
  through t t.cc ~kind:"compile" ~key:(ckey j) ~check:verified (fun () ->
      timed t `Compile (fun () ->
          let prog = Safara_lang.Frontend.compile j.jw.Workload.source in
          let prog =
            match j.junroll with
            | None -> prog
            | Some factor -> Safara_transform.Unroll.unroll_program ~factor prog
          in
          compile_and_record t ~arch:j.jarch ?safara_config:j.jconfig
            ~disable:j.jdisable j.jp prog))

let compile_src t ?(arch = Safara_gpu.Arch.default) ?safara_config
    ?(disable = []) profile src =
  let key =
    compile_key ~src ~profile ~arch ~config:safara_config ~unroll:None
      ~disable
  in
  through t t.cc ~kind:"compile" ~key ~check:verified (fun () ->
      timed t `Compile (fun () ->
          compile_and_record t ~arch ?safara_config ~disable profile
            (Safara_lang.Frontend.compile src)))

let time_job t j =
  through t t.tc ~kind:"timing" ~key:(tkey t j) (fun () ->
      let c = compiled t j in
      timed t `Sim (fun () ->
          (* private simulation instance: fresh memory per miss *)
          let env = Workload.prepare c j.jw in
          C.time c env))

let total_ms t j = (time_job t j).Safara_sim.Launch.total_ms

let mode_label = function
  | Safara_sim.Interp.Parallel _ -> "parallel"
  | Safara_sim.Interp.Sequential None -> "sequential"
  | Safara_sim.Interp.Sequential (Some r) ->
      "serial fallback: " ^ Safara_sim.Blockpar.reason_message r

let simulate t j =
  through t t.fc ~kind:"functional" ~key:(fkey t j) (fun () ->
      let c = compiled t j in
      timed t `Sim (fun () ->
          let env = Workload.prepare c j.jw in
          let cnt = Safara_sim.Interp.fresh_counters () in
          let pool = if Pool.size t.epool > 1 then Some t.epool else None in
          let modes = C.run_functional_m ~counters:cnt ?pool c env in
          {
            sr_checksums =
              List.map
                (fun a ->
                  (a, Safara_sim.Memory.checksum env.Safara_sim.Interp.mem a))
                j.jw.Workload.check_arrays;
            sr_counters =
              ( cnt.Safara_sim.Interp.c_instructions,
                cnt.Safara_sim.Interp.c_loads,
                cnt.Safara_sim.Interp.c_stores,
                cnt.Safara_sim.Interp.c_atomics,
                cnt.Safara_sim.Interp.c_spill_ops );
            sr_modes = List.map (fun (k, m) -> (k, mode_label m)) modes;
          }))

let warm t js = Pool.iter t.epool (fun j -> ignore (time_job t j)) js
let warm_compiled t js = Pool.iter t.epool (fun j -> ignore (compiled t j)) js
let map t f xs = Pool.map t.epool f xs

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_jobs : int;
  st_job_counts : int list;
  st_compile_hits : int;
  st_compile_misses : int;
  st_sim_hits : int;
  st_sim_misses : int;
  st_compile_s : float;
  st_sim_s : float;
  st_pass_s : (string * int * float) list;
  st_wall_s : float;
  st_store : Store.stats option;
}

let stats t =
  Mutex.lock t.lock;
  let compile_s = t.compile_s and sim_s = t.sim_s in
  let pass_s =
    List.sort compare
      (Hashtbl.fold (fun name (s, n) acc -> (name, n, s) :: acc) t.passes [])
  in
  Mutex.unlock t.lock;
  {
    st_jobs = jobs t;
    st_job_counts = Pool.job_counts t.epool;
    st_compile_hits = Cache.hits t.cc;
    st_compile_misses = Cache.misses t.cc;
    st_sim_hits = Cache.hits t.tc;
    st_sim_misses = Cache.misses t.tc;
    st_compile_s = compile_s;
    st_sim_s = sim_s;
    st_pass_s = pass_s;
    st_wall_s = Unix.gettimeofday () -. t.created_at;
    st_store = Option.map Store.stats t.estore;
  }

let render_stats t =
  let s = stats t in
  let b = Buffer.create 256 in
  Buffer.add_string b "engine stats\n";
  Buffer.add_string b
    (Printf.sprintf "  pool: %d worker%s (-j %d)\n" s.st_jobs
       (if s.st_jobs = 1 then "" else "s")
       s.st_jobs);
  (match s.st_job_counts with
  | caller :: workers ->
      Buffer.add_string b
        (Printf.sprintf "  jobs per domain: caller=%d%s\n" caller
           (String.concat ""
              (List.mapi (fun i n -> Printf.sprintf " w%d=%d" (i + 1) n) workers)))
  | [] -> ());
  Buffer.add_string b
    (Printf.sprintf "  compile cache: %d hits / %d misses\n" s.st_compile_hits
       s.st_compile_misses);
  Buffer.add_string b
    (Printf.sprintf "  sim cache:     %d hits / %d misses\n" s.st_sim_hits
       s.st_sim_misses);
  (match s.st_store with
  | None -> ()
  | Some st ->
      Buffer.add_string b
        (Printf.sprintf
           "  disk store:    %d hits / %d misses, %d KiB read / %d KiB \
            written\n"
           st.Store.st_disk_hits st.Store.st_disk_misses
           (st.Store.st_bytes_read / 1024)
           (st.Store.st_bytes_written / 1024));
      Buffer.add_string b
        (Printf.sprintf
           "                 %d entries, %d KiB on disk, %d evicted, %d \
            corrupt dropped\n"
           st.Store.st_entries
           (st.Store.st_total_bytes / 1024)
           st.Store.st_evictions st.Store.st_corrupt));
  Buffer.add_string b
    (Printf.sprintf
       "  phase wall-clock: compile %.2fs, simulate %.2fs, total %.2fs\n"
       s.st_compile_s s.st_sim_s s.st_wall_s);
  if s.st_pass_s <> [] then begin
    Buffer.add_string b "  compile passes (cumulative over cache misses):\n";
    List.iter
      (fun (name, runs, secs) ->
        Buffer.add_string b
          (Printf.sprintf "    %-18s %6d runs %10.4fs\n" name runs secs))
      s.st_pass_s
  end;
  Buffer.contents b

let self_check t w =
  if jobs t > 1 && assertions_enabled then begin
    let js = List.map (fun p -> job p w) C.all_profiles in
    warm t js;
    let parallel = List.map (time_job t) js in
    let serial_eng = create ~jobs:1 () in
    let serial = List.map (time_job serial_eng) js in
    assert (parallel = serial)
  end
