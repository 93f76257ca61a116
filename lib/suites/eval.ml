module C = Safara_core.Compiler
module Pool = Safara_engine.Pool
module Cache = Safara_engine.Cache
module Store = Safara_engine.Store
module Clock = Safara_engine.Clock
module Interp = Safara_sim.Interp

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

(* A prepared input image and what it was prepared from:
   [Workload.prepare] reads the array table, the scalars and the
   seed, nothing else. *)
type image = {
  im_arrays : Safara_ir.Array_info.t list;
  im_scalars : (string * Safara_sim.Value.t) list;
  im_seed : int;
  im_env : Interp.env;
}

(* what a simulation key digests: the kind, the artifact key, the
   extra inputs, the workload's seed and scalars, and the simulator
   mode. Scalars compare floats by their bits, so 0. and -0. never
   share a key. *)
module Sim_inputs = Hashtbl.Make (struct
  type t =
    string * string * string list * int * (string * Safara_sim.Value.t) list * string

  let same_value (a : Safara_sim.Value.t) (b : Safara_sim.Value.t) =
    match (a, b) with
    | I x, I y -> Int.equal x y
    | F x, F y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | B x, B y -> Bool.equal x y
    | _ -> false

  let equal (kind, ak, extra, seed, scalars, mode)
      (kind', ak', extra', seed', scalars', mode') =
    String.equal ak ak' && String.equal kind kind'
    && List.equal String.equal extra extra'
    && Int.equal seed seed'
    && List.equal
         (fun (n, v) (n', v') -> String.equal n n' && same_value v v')
         scalars scalars'
    && String.equal mode mode'

  let hash (_, ak, _, seed, _, _) = Hashtbl.hash (ak, seed)
end)

type t = {
  epool : Pool.t;
  estore : Store.t option;  (** persistent layer under the caches *)
  cc : C.compiled Cache.t;  (** compile cache *)
  tc : Safara_sim.Launch.program_time Cache.t;  (** timing-sim cache *)
  fc : sim_result Cache.t;  (** functional-sim cache *)
  ak : string Cache.t;  (** compile key → artifact key *)
  memo : C.memo;
      (** per-region tail output (SAFARA feedback included) and SAFARA
          candidates *)
  fe : Safara_ir.Program.t Cache.t;  (** source → front-end IR *)
  keys :
    ( string
      * C.profile
      * Safara_gpu.Arch.t
      * Safara_transform.Safara.config option
      * int option
      * string list,
      string )
    Hashtbl.t;
      (** {!compile_key}'s inputs → its digest, under [lock] *)
  sim_keys : string Sim_inputs.t;
      (** a simulation key's inputs → its digest, under [lock] *)
  lock : Mutex.t;
  images : (int, image) Hashtbl.t;
      (** each domain's most recent input image, by domain id, under
          [lock]; out of the table while its domain runs on it *)
  mutable images_prepared : int;
  mutable image_cells : int;  (** cells of the images dropped so far *)
  mutable image_cells_filled : int;  (** ... and those their pages produced *)
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
    ak = Cache.create ~name:"artifact" ();
    memo = C.memo ();
    fe = Cache.create ~name:"front end" ();
    keys = Hashtbl.create 64;
    sim_keys = Sim_inputs.create 64;
    lock = Mutex.create ();
    images = Hashtbl.create 4;
    images_prepared = 0;
    image_cells = 0;
    image_cells_filled = 0;
    compile_s = 0.;
    sim_s = 0.;
    passes = Hashtbl.create 16;
    created_at = Clock.now ();
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
   miss whose entry is removed, so the recomputed value replaces it
   on disk. *)
let through t cache ~kind ~key ?(check = fun v -> v) f =
  match t.estore with
  | None -> Cache.find_or_compute cache ~key f
  | Some s ->
      Cache.find_or_compute cache ~key (fun () ->
          let skey = Printf.sprintf "%s/%s/%s" store_schema kind key in
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
                  Store.remove s ~key:skey;
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
  let t0 = Clock.now () in
  let v = f () in
  let dt = Clock.now () -. t0 in
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

(* the key covers the resolved pipeline description (pass list +
   per-pass config + disabled set), not just the profile tag, so
   toggling or reordering passes can never return a stale hit *)
let compile_key ~src ~profile ~arch ~config ~unroll ~disable =
  let psig = C.pipeline_signature ?safara_config:config ~disable profile in
  Cache.key (src, profile, arch, config, unroll, disable, psig)

(* [compile_key] memoized on the very inputs it digests: the table
   hashes the source in full ([Hashtbl.hash]) and compares it byte for
   byte, so a repeated compile costs one pass over its source and no
   digest. Equal inputs marshal alike, bar floats that compare equal
   with other bits (0. and -0.); the one float among them, an arch's
   cycles per memory transaction, is a positive constant. *)
let memo_key t ~src ~profile ~arch ~config ~unroll ~disable =
  let k = (src, profile, arch, config, unroll, disable) in
  Mutex.lock t.lock;
  let hit = Hashtbl.find_opt t.keys k in
  Mutex.unlock t.lock;
  match hit with
  | Some key -> key
  | None ->
      let key = compile_key ~src ~profile ~arch ~config ~unroll ~disable in
      Mutex.lock t.lock;
      Hashtbl.replace t.keys k key;
      Mutex.unlock t.lock;
      key

let job_key t j =
  memo_key t ~src:j.jw.Workload.source ~profile:j.jp ~arch:j.jarch
    ~config:j.jconfig ~unroll:j.junroll ~disable:j.jdisable

(* Artifact keys: a digest of exactly what a simulator reads of a
   compiled artifact, so jobs whose compiles coincide simulate once.
   Timing reads the arch, the latency table, the kernels with their
   ptxas reports, and the array table ([Decode.resolve_param],
   [Memory.alloc_program]); the region bodies are not read, and
   leaving them out keeps the digest cheap. A functional run reads no
   timing model, but [Blockpar.analyze] reads the region bodies to
   label each kernel's execution mode, so its key covers the whole
   program. Memoized per compile key (and persisted with the store),
   so a simulation-cache hit neither marshals kernels again nor looks
   up the compile cache. *)
let artifact_key t ~kind ck fetch view =
  through t t.ak ~kind:"artifact" ~key:(kind ^ "/" ^ ck) (fun () ->
      Cache.key (view (fetch ())))

let timing_view (c : C.compiled) =
  (c.C.c_arch, c.C.c_latency, c.C.c_prog.Safara_ir.Program.arrays, c.C.c_kernels)

let functional_view (c : C.compiled) = (c.C.c_prog, c.C.c_kernels)

(* ------------------------------------------------------------------ *)
(* Memoized compile and simulate                                       *)
(* ------------------------------------------------------------------ *)

let compile_and_record t ~arch ?safara_config ~disable profile prog =
  let options =
    { Safara_core.Pipeline.default_options with
      Safara_core.Pipeline.o_disable = disable }
  in
  let c, trace =
    C.compile_with ~arch ?safara_config ~options ~memo:t.memo profile prog
  in
  record_trace t trace;
  c

(* The front end reads the source, nothing else: it runs once per
   source, and the unroll factor, a cheap pure pass, applies per
   compile. *)
let front_end t src unroll =
  let prog =
    Cache.find_or_compute t.fe ~key:(Cache.key src) (fun () ->
        Safara_lang.Frontend.compile src)
  in
  match unroll with
  | None -> prog
  | Some factor -> Safara_transform.Unroll.unroll_program ~factor prog

let compiled_at t j ck =
  through t t.cc ~kind:"compile" ~key:ck ~check:verified (fun () ->
      timed t `Compile (fun () ->
          compile_and_record t ~arch:j.jarch ?safara_config:j.jconfig
            ~disable:j.jdisable j.jp
            (front_end t j.jw.Workload.source j.junroll)))

let compiled t j = compiled_at t j (job_key t j)

let compile_src t ?(arch = Safara_gpu.Arch.default) ?safara_config
    ?(disable = []) profile src =
  let key =
    memo_key t ~src ~profile ~arch ~config:safara_config ~unroll:None ~disable
  in
  through t t.cc ~kind:"compile" ~key ~check:verified (fun () ->
      timed t `Compile (fun () ->
          compile_and_record t ~arch ?safara_config ~disable profile
            (front_end t src None)))

(* [f] on the calling domain's pristine input image of [c] on [w].
   Timing runs on the image in place and restores it
   ([Launch.time_kernel]), so the image is pristine between uses but
   not during one. Each domain therefore keeps its own most recent
   image, and a use takes it out of the table until [f] returns: no
   other domain, nor another thread of this one (the daemon's
   connection threads at -j 1), can meet the transient writes; such a
   thread prepares an image of its own instead. A search over one
   workload prepares its image once per domain. One entry per domain,
   because the registry's images total far more than a long-lived
   daemon should hold. If [f] raises, the image is dropped. A dropped
   image's cells are counted, under the lock, when it leaves. *)
let drop_image t im =
  let mem = im.im_env.Interp.mem in
  t.image_cells <- t.image_cells + Safara_sim.Memory.cells mem;
  t.image_cells_filled <-
    t.image_cells_filled + Safara_sim.Memory.cells_filled mem

let with_image t (c : C.compiled) (w : Workload.t) f =
  let arrays = c.C.c_prog.Safara_ir.Program.arrays in
  let fits im =
    im.im_seed = w.Workload.seed
    && (im.im_arrays == arrays || im.im_arrays = arrays)
    && (im.im_scalars == w.Workload.scalars || im.im_scalars = w.Workload.scalars)
  in
  let d = (Domain.self () :> int) in
  Mutex.lock t.lock;
  let hit =
    match Hashtbl.find_opt t.images d with
    | Some im when fits im ->
        Hashtbl.remove t.images d;
        Some im
    | _ ->
        t.images_prepared <- t.images_prepared + 1;
        None
  in
  Mutex.unlock t.lock;
  let im =
    match hit with
    | Some im -> im
    | None ->
        { im_arrays = arrays; im_scalars = w.Workload.scalars;
          im_seed = w.Workload.seed; im_env = Workload.prepare c w }
  in
  match f im.im_env with
  | v ->
      Mutex.lock t.lock;
      Option.iter (drop_image t) (Hashtbl.find_opt t.images d);
      Hashtbl.replace t.images d im;
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.lock t.lock;
      drop_image t im;
      Mutex.unlock t.lock;
      raise e

let image t c w = with_image t c w Fun.id

(* the simulation key, memoized like [memo_key]: a repeated
   simulation makes no digest *)
let sim_key t ~kind ~ak ~extra (w : Workload.t) =
  let inputs =
    (kind, ak, extra, w.Workload.seed, w.Workload.scalars, sim_mode t)
  in
  Mutex.lock t.lock;
  let hit = Sim_inputs.find_opt t.sim_keys inputs in
  Mutex.unlock t.lock;
  match hit with
  | Some key -> key
  | None ->
      let key = Cache.key inputs in
      Mutex.lock t.lock;
      Sim_inputs.replace t.sim_keys inputs key;
      Mutex.unlock t.lock;
      key

(* One simulation-cache lookup under an artifact key. The artifact
   is fetched at most once per call: the key computation and the
   simulation miss share it. *)
let simulated t cache ~kind ~view ~extra j f =
  let ck = job_key t j in
  let fetched = ref None in
  let fetch () =
    match !fetched with
    | Some c -> c
    | None ->
        let c = compiled_at t j ck in
        fetched := Some c;
        c
  in
  let ak = artifact_key t ~kind ck fetch view in
  let key = sim_key t ~kind ~ak ~extra j.jw in
  through t cache ~kind ~key (fun () ->
      let c = fetch () in
      timed t `Sim (fun () -> f c))

let time_job t j =
  simulated t t.tc ~kind:"timing" ~view:timing_view ~extra:[] j (fun c ->
      with_image t c j.jw (C.time c))

let total_ms t j = (time_job t j).Safara_sim.Launch.total_ms

let mode_label = function
  | Interp.Parallel _ -> "parallel"
  | Interp.Sequential None -> "sequential"
  | Interp.Sequential (Some r) ->
      "serial fallback: " ^ Safara_sim.Blockpar.reason_message r

let simulate t j =
  let check = j.jw.Workload.check_arrays in
  simulated t t.fc ~kind:"functional" ~view:functional_view ~extra:check j
    (fun c ->
      (* the run's results stay in memory: a private copy of the image *)
      let env =
        with_image t c j.jw (fun im ->
            { im with Interp.mem = Safara_sim.Memory.copy im.Interp.mem })
      in
      let cnt = Interp.fresh_counters () in
      let pool = if Pool.size t.epool > 1 then Some t.epool else None in
      let modes = C.run_functional_m ~counters:cnt ?pool c env in
      {
        sr_checksums =
          List.map
            (fun a -> (a, Safara_sim.Memory.checksum env.Interp.mem a))
            check;
        sr_counters =
          ( cnt.Interp.c_instructions,
            cnt.Interp.c_loads,
            cnt.Interp.c_stores,
            cnt.Interp.c_atomics,
            cnt.Interp.c_spill_ops );
        sr_modes = List.map (fun (k, m) -> (k, mode_label m)) modes;
      })

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
  st_tail_hits : int;
  st_tail_misses : int;
  st_candidates_hits : int;
  st_candidates_misses : int;
  st_front_end_hits : int;
  st_front_end_misses : int;
  st_images : int;
  st_image_cells : int;
  st_image_cells_filled : int;
  st_compile_s : float;
  st_sim_s : float;
  st_pass_s : (string * int * float) list;
  st_wall_s : float;
  st_store : Store.stats option;
}

let stats t =
  Mutex.lock t.lock;
  let compile_s = t.compile_s and sim_s = t.sim_s in
  let images = t.images_prepared in
  let live f = Hashtbl.fold (fun _ im acc -> acc + f im.im_env.Interp.mem) t.images in
  let image_cells = live Safara_sim.Memory.cells t.image_cells
  and image_cells_filled =
    live Safara_sim.Memory.cells_filled t.image_cells_filled
  in
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
    st_tail_hits = Cache.hits t.memo.C.m_tail;
    st_tail_misses = Cache.misses t.memo.C.m_tail;
    st_candidates_hits = Cache.hits t.memo.C.m_candidates;
    st_candidates_misses = Cache.misses t.memo.C.m_candidates;
    st_front_end_hits = Cache.hits t.fe;
    st_front_end_misses = Cache.misses t.fe;
    st_images = images;
    st_image_cells = image_cells;
    st_image_cells_filled = image_cells_filled;
    st_compile_s = compile_s;
    st_sim_s = sim_s;
    st_pass_s = pass_s;
    st_wall_s = Clock.now () -. t.created_at;
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
  Buffer.add_string b
    (Printf.sprintf
       "  region cache:  tail %d hits / %d misses, candidates %d / %d, \
        front end %d / %d\n"
       s.st_tail_hits s.st_tail_misses s.st_candidates_hits
       s.st_candidates_misses s.st_front_end_hits s.st_front_end_misses);
  Buffer.add_string b
    (Printf.sprintf "  input images:  %d prepared, %d of %d cells filled\n"
       s.st_images s.st_image_cells_filled s.st_image_cells);
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

let stats_json s =
  let open Safara_json.Sjson in
  let hits_misses (name, hits, misses) =
    (name, Obj [ ("hits", int hits); ("misses", int misses) ])
  in
  let store_fields =
    match s.st_store with
    | None -> []
    | Some st ->
        [ ("store",
           Obj
             [ ("disk_hits", int st.Store.st_disk_hits);
               ("disk_misses", int st.Store.st_disk_misses);
               ("bytes_read", int st.Store.st_bytes_read);
               ("bytes_written", int st.Store.st_bytes_written);
               ("evictions", int st.Store.st_evictions);
               ("corrupt", int st.Store.st_corrupt);
               ("entries", int st.Store.st_entries);
               ("total_bytes", int st.Store.st_total_bytes) ]) ]
  in
  Obj
    ([ ("pool_jobs", int s.st_jobs);
       ("job_counts", Arr (List.map int s.st_job_counts));
       hits_misses ("compile_cache", s.st_compile_hits, s.st_compile_misses);
       hits_misses ("sim_cache", s.st_sim_hits, s.st_sim_misses);
       ("region_cache",
        Obj
          (List.map hits_misses
             [ ("tail", s.st_tail_hits, s.st_tail_misses);
               ("candidates", s.st_candidates_hits, s.st_candidates_misses);
               ("front_end", s.st_front_end_hits, s.st_front_end_misses) ]));
       ("images", int s.st_images);
       ("image_cells", int s.st_image_cells);
       ("image_cells_filled", int s.st_image_cells_filled);
       ("compile_s", num s.st_compile_s);
       ("sim_s", num s.st_sim_s);
       ("passes",
        Obj
          (List.map
             (fun (name, runs, secs) ->
               (name, Obj [ ("runs", int runs); ("seconds", num secs) ]))
             s.st_pass_s));
       ("wall_s", num s.st_wall_s) ]
    @ store_fields)

let self_check t w =
  if jobs t > 1 && Safara_core.Pass.assertions_enabled then begin
    let js = List.map (fun p -> job p w) C.all_profiles in
    warm t js;
    let parallel = List.map (time_job t) js in
    let serial_eng = create ~jobs:1 () in
    let serial = List.map (time_job serial_eng) js in
    assert (parallel = serial)
  end
