(* The compile service and its persistent artifact store: store
   round-trips and key sensitivity, corrupt-entry recovery, the GC
   size bound, daemon-vs-in-process byte identity for every workload,
   concurrent-client request deduplication, and (through the installed
   binary) clean SIGTERM shutdown. The in-process daemon tests run the
   exact server loop `saraccc serve` runs, on a test thread. *)

module Store = Safara_engine.Store
module Cache = Safara_engine.Cache
module Eval = Safara_suites.Eval
module Serve = Safara_serve
open Safara_suites

(* --- scratch dirs ---------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let with_tmpdir f =
  let dir = Filename.temp_file "safara-serve-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- cache mutex regression ------------------------------------------ *)

let test_cache_locked_raise () =
  let c : int Cache.t = Cache.create ~name:"t" () in
  (try ignore (Cache.find_or_compute c ~key:"k" (fun () -> failwith "boom"))
   with Failure _ -> ());
  (* before the Fun.protect fix, the raise above left the cache mutex
     locked and every later operation deadlocked *)
  Alcotest.(check int)
    "retry computes" 7
    (Cache.find_or_compute c ~key:"k" (fun () -> 7));
  Alcotest.(check int) "stats accessible" 2 (Cache.misses c)

(* --- store basics ----------------------------------------------------- *)

let test_store_roundtrip () =
  with_tmpdir (fun dir ->
      let s = Store.open_store dir in
      Alcotest.(check (option string)) "miss on empty" None
        (Store.find s ~key:"a");
      Store.add s ~key:"a" "payload-bytes";
      Alcotest.(check (option string))
        "hit after add" (Some "payload-bytes") (Store.find s ~key:"a");
      (* a second handle over the same directory sees the entry *)
      let s2 = Store.open_store dir in
      Alcotest.(check (option string))
        "persistent across handles" (Some "payload-bytes")
        (Store.find s2 ~key:"a");
      let st = Store.stats s2 in
      Alcotest.(check int) "one entry" 1 st.Store.st_entries;
      Alcotest.(check int) "one disk hit" 1 st.Store.st_disk_hits)

let seismic = Registry.find "355.seismic"

let test_store_key_sensitivity () =
  with_tmpdir (fun dir ->
      let src = seismic.Workload.source in
      let e1 = Eval.create ~jobs:1 ~store:(Store.open_store dir) () in
      ignore (Eval.compile_src e1 Safara_core.Compiler.Full src);
      let st1 = Option.get (Eval.stats e1).Eval.st_store in
      Alcotest.(check int) "cold compile misses disk" 1
        st1.Store.st_disk_misses;
      Alcotest.(check bool) "cold compile persisted" true
        (st1.Store.st_bytes_written > 0);
      Eval.shutdown e1;
      (* fresh engine, same store: same key hits, changed compile
         configuration (profile, disabled pass) must miss *)
      let e2 = Eval.create ~jobs:1 ~store:(Store.open_store dir) () in
      ignore (Eval.compile_src e2 Safara_core.Compiler.Full src);
      let st2 = Option.get (Eval.stats e2).Eval.st_store in
      Alcotest.(check int) "same key answered from disk" 1
        st2.Store.st_disk_hits;
      ignore
        (Eval.compile_src e2 ~disable:[ "peephole" ]
           Safara_core.Compiler.Full src);
      ignore (Eval.compile_src e2 Safara_core.Compiler.Base src);
      let st3 = Option.get (Eval.stats e2).Eval.st_store in
      Alcotest.(check int) "disable/profile changes are new keys" 2
        st3.Store.st_disk_misses;
      Eval.shutdown e2)

(* a second engine over the same store answers every tune point from
   disk — artifact keys and timings alike — with identical values, and
   neither compiles nor simulates *)
let test_store_timing_hits () =
  with_tmpdir (fun dir ->
      let w = Registry.find "303.ostencil" in
      let arch = Safara_gpu.Arch.default in
      let times eng =
        List.map
          (fun pt ->
            Suite_engine.time_bits
              (Eval.time_job eng (Safara_tune.Tune.job ~arch w pt)))
          Suite_engine.tune_points
      in
      let e1 = Eval.create ~jobs:1 ~store:(Store.open_store dir) () in
      let t1 = times e1 in
      let s1 = Eval.stats e1 in
      Eval.shutdown e1;
      let e2 = Eval.create ~jobs:1 ~store:(Store.open_store dir) () in
      let t2 = times e2 in
      let s2 = Eval.stats e2 in
      Eval.shutdown e2;
      Alcotest.(check bool) "identical timings" true (t1 = t2);
      Alcotest.(check int) "second engine compiled nothing" 0
        s2.Eval.st_compile_misses;
      Alcotest.(check (float 0.)) "second engine simulated nothing" 0.
        s2.Eval.st_sim_s;
      let disk_hits s = (Option.get s.Eval.st_store).Store.st_disk_hits in
      (* one artifact key per point, one timing per distinct artifact *)
      Alcotest.(check int) "answered from disk"
        (List.length Suite_engine.tune_points + s1.Eval.st_sim_misses)
        (disk_hits s2))

(* --- corrupt entries -------------------------------------------------- *)

let flip_last_byte path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_store_corrupt_entry () =
  with_tmpdir (fun dir ->
      let s = Store.open_store dir in
      Store.add s ~key:"k" "precious bits";
      flip_last_byte (Store.entry_path s ~key:"k");
      let s2 = Store.open_store dir in
      Alcotest.(check (option string))
        "bit flip reads as a miss" None (Store.find s2 ~key:"k");
      let st = Store.stats s2 in
      Alcotest.(check int) "corruption counted" 1 st.Store.st_corrupt;
      Alcotest.(check int) "dropped from the store" 0 st.Store.st_entries;
      (* the slot is reusable *)
      Store.add s2 ~key:"k" "precious bits";
      Alcotest.(check (option string))
        "re-added after drop" (Some "precious bits") (Store.find s2 ~key:"k"))

let rec find_sav dir =
  Array.fold_left
    (fun acc e ->
      match acc with
      | Some _ -> acc
      | None ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then find_sav p
          else if Filename.check_suffix p ".sav" then Some p
          else None)
    None (Sys.readdir dir)

let test_eval_recovers_from_corrupt_store () =
  with_tmpdir (fun dir ->
      let src = seismic.Workload.source in
      let e1 = Eval.create ~jobs:1 ~store:(Store.open_store dir) () in
      let c1 = Eval.compile_src e1 Safara_core.Compiler.Full src in
      Eval.shutdown e1;
      (match find_sav dir with
      | Some p -> flip_last_byte p
      | None -> Alcotest.fail "no store entry written");
      let e2 = Eval.create ~jobs:1 ~store:(Store.open_store dir) () in
      let c2 = Eval.compile_src e2 Safara_core.Compiler.Full src in
      (* the corrupt entry is silently dropped and recompiled; the
         result must match the original compile *)
      Alcotest.(check string)
        "recompiled result matches"
        (Format.asprintf "%a" Safara_vir.Kernel.pp
           (fst (List.hd c1.Safara_core.Compiler.c_kernels)))
        (Format.asprintf "%a" Safara_vir.Kernel.pp
           (fst (List.hd c2.Safara_core.Compiler.c_kernels)));
      let st = Option.get (Eval.stats e2).Eval.st_store in
      Alcotest.(check int) "corruption counted" 1 st.Store.st_corrupt;
      Eval.shutdown e2)

(* --- GC size bound ----------------------------------------------------- *)

let test_store_gc_bound () =
  with_tmpdir (fun dir ->
      let max_bytes = 8 * 1024 in
      let s = Store.open_store ~max_bytes dir in
      let payload = String.make 1024 'x' in
      for i = 1 to 24 do
        Store.add s ~key:(Printf.sprintf "key-%d" i) payload
      done;
      let st = Store.stats s in
      Alcotest.(check bool)
        (Printf.sprintf "on-disk bytes %d within bound %d"
           st.Store.st_total_bytes max_bytes)
        true
        (st.Store.st_total_bytes <= max_bytes);
      Alcotest.(check bool) "evictions happened" true
        (st.Store.st_evictions > 0);
      Alcotest.(check (option string))
        "most recent entry survives GC" (Some payload)
        (Store.find s ~key:"key-24");
      (* a reopened handle rescans to the same picture *)
      let st2 = Store.stats (Store.open_store ~max_bytes dir) in
      Alcotest.(check int) "entries match after rescan"
        st.Store.st_entries st2.Store.st_entries)

(* --- in-process daemon helpers ---------------------------------------- *)

let start_daemon ~socket ~store ~jobs =
  let m = Mutex.create () in
  let c = Condition.create () in
  let up = ref false in
  let th =
    Thread.create
      (fun () ->
        Serve.Server.serve
          ~on_ready:(fun _ ->
            Mutex.lock m;
            up := true;
            Condition.signal c;
            Mutex.unlock m)
          {
            Serve.Server.s_socket = socket;
            s_store = store;
            s_max_store_bytes = Store.default_max_bytes;
            s_jobs = Some jobs;
            s_verbose = false;
          })
      ()
  in
  Mutex.lock m;
  while not !up do
    Condition.wait c m
  done;
  Mutex.unlock m;
  fun () ->
    (match Serve.Client.try_connect socket with
    | Some conn ->
        ignore (Serve.Client.request conn Serve.Protocol.Shutdown);
        Serve.Client.close conn
    | None -> ());
    Thread.join th

let with_daemon ?store ~jobs f =
  with_tmpdir (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      let stop = start_daemon ~socket ~store ~jobs in
      Fun.protect ~finally:stop (fun () -> f socket))

let daemon_exec socket req =
  match Serve.Client.try_connect socket with
  | None -> Alcotest.fail "daemon not reachable"
  | Some conn ->
      let r = Serve.Client.request conn req in
      Serve.Client.close conn;
      (match r with
      | Serve.Protocol.Result (o, _ms) -> o
      | Serve.Protocol.Error e -> Alcotest.failf "daemon error: %s" e
      | Serve.Protocol.Data _ -> Alcotest.fail "unexpected data response")

let compile_req ?(quiet = false) ?(pressure = false) ~profile (w : Workload.t) =
  Serve.Protocol.Compile
    {
      cr_name = w.Workload.id;
      cr_src = w.Workload.source;
      cr_arch = "kepler";
      cr_profile = profile;
      cr_quiet = quiet;
      cr_maxrreg = None;
      cr_pressure = pressure;
      cr_time_passes = false;
      cr_json = false;
      cr_dumps = [];
      cr_annotate_live = false;
      cr_disable = [];
    }

let run_req ?engine (w : Workload.t) =
  Serve.Protocol.Run
    {
      rn_src = w.Workload.source;
      rn_profile = "full";
      rn_arch = "kepler";
      rn_defines =
        List.map
          (fun (n, v) ->
            ( n,
              match v with
              | Safara_sim.Value.I i -> string_of_int i
              | Safara_sim.Value.F f -> Printf.sprintf "%.17g" f
              | Safara_sim.Value.B _ ->
                  Alcotest.fail "bool scalars have no -D syntax" ))
          w.Workload.scalars;
      rn_engine = engine;
    }

(* --- compile --pressure listing ------------------------------------------ *)

(* --pressure renders each shipped kernel through the liveness solver's
   annotated listing (the --annotate-live renderer), then its ptxas
   report line; 357.csp ships three kernels *)
let test_pressure_listing () =
  let eng = Eval.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Eval.shutdown eng)
    (fun () ->
      let w = Registry.find "357.csp" in
      let got =
        Serve.Commands.exec eng (compile_req ~pressure:true ~profile:"full" w)
      in
      let c =
        Safara_core.Compiler.compile Safara_core.Compiler.Full
          (Safara_lang.Frontend.compile w.Workload.source)
      in
      Alcotest.(check bool) "several kernels" true
        (List.length c.Safara_core.Compiler.c_kernels > 1);
      let expected =
        String.concat ""
          (List.map
             (fun (k, rep) ->
               Format.asprintf "%a"
                 (Safara_vir.Facts.pp_annotated k)
                 (Safara_vir.Facts.make k.Safara_vir.Kernel.code)
               ^ "\n"
               ^ Format.asprintf "%a" Safara_ptxas.Assemble.pp_report rep
               ^ "\n\n")
             c.Safara_core.Compiler.c_kernels)
      in
      Alcotest.(check string) "listing" expected got.Serve.Protocol.out;
      Alcotest.(check int) "exit code" 0 got.Serve.Protocol.code)

(* --- daemon vs in-process byte identity -------------------------------- *)

let test_daemon_byte_identity () =
  with_daemon ~jobs:2 (fun socket ->
      let local = Eval.create ~jobs:1 () in
      Fun.protect
        ~finally:(fun () -> Eval.shutdown local)
        (fun () ->
          List.iter
            (fun (w : Workload.t) ->
              List.iter
                (fun profile ->
                  let req = compile_req ~profile w in
                  let here = Serve.Commands.exec local req in
                  let there = daemon_exec socket req in
                  Alcotest.(check string)
                    (Printf.sprintf "compile %s/%s stdout" w.Workload.id
                       profile)
                    here.Serve.Protocol.out there.Serve.Protocol.out;
                  Alcotest.(check string)
                    (Printf.sprintf "compile %s/%s stderr" w.Workload.id
                       profile)
                    here.Serve.Protocol.err there.Serve.Protocol.err)
                [ "full"; "base" ];
              let req = run_req w in
              let here = Serve.Commands.exec local req in
              let there = daemon_exec socket req in
              (* stderr carries the -j-dependent execution-mode report;
                 stdout (the checksums) must match at any pool size *)
              Alcotest.(check string)
                (Printf.sprintf "run %s checksums" w.Workload.id)
                here.Serve.Protocol.out there.Serve.Protocol.out)
            Registry.all))

let test_daemon_bench_and_check_identity () =
  with_daemon ~jobs:2 (fun socket ->
      let local = Eval.create ~jobs:1 () in
      Fun.protect
        ~finally:(fun () -> Eval.shutdown local)
        (fun () ->
          let w = Registry.find "EP" in
          let breq =
            Serve.Protocol.Bench
              { bn_id = w.Workload.id; bn_arch = "kepler"; bn_engine = None;
                bn_stats = false }
          in
          Alcotest.(check string)
            "bench report identical"
            (Serve.Commands.exec local breq).Serve.Protocol.out
            (daemon_exec socket breq).Serve.Protocol.out;
          let creq =
            Serve.Protocol.Check
              {
                ck_name = w.Workload.id;
                ck_src = Some w.Workload.source;
                ck_workloads = false;
                ck_json = false;
                ck_werror = false;
                ck_codes = [];
                ck_pressure = true;
                ck_arch = "kepler";
                ck_profile = "full";
              }
          in
          Alcotest.(check string)
            "check report identical"
            (Serve.Commands.exec local creq).Serve.Protocol.out
            (daemon_exec socket creq).Serve.Protocol.out))

(* --- retired engine name ------------------------------------------------ *)

let test_daemon_rejects_retired_engine () =
  (* the removed "decoded" engine is an ordinary unknown name: the
     request fails with the valid names listed, and the daemon keeps
     answering on the same connection *)
  with_daemon ~jobs:1 (fun socket ->
      match Serve.Client.try_connect socket with
      | None -> Alcotest.fail "daemon not reachable"
      | Some conn ->
          Fun.protect
            ~finally:(fun () -> Serve.Client.close conn)
            (fun () ->
              let req = run_req ~engine:"decoded" (Registry.find "EP") in
              (match Serve.Client.request conn req with
              | Serve.Protocol.Error msg ->
                  Alcotest.(check bool)
                    ("error lists the engines: " ^ msg)
                    true
                    (Str_helpers.contains msg "reference|threaded")
              | _ -> Alcotest.fail "engine \"decoded\" was accepted");
              match Serve.Client.request conn Serve.Protocol.Ping with
              | Serve.Protocol.Data _ -> ()
              | _ -> Alcotest.fail "ping after the rejected request failed"))

(* --- concurrent request dedup ------------------------------------------ *)

let test_daemon_concurrent_dedup () =
  with_tmpdir (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      let store = Filename.concat dir "store" in
      let stop = start_daemon ~socket ~store:(Some store) ~jobs:2 in
      Fun.protect ~finally:stop (fun () ->
          let w = Registry.find "355.seismic" in
          let n = 8 in
          let errors = Atomic.make 0 in
          let clients =
            List.init n (fun _ ->
                Thread.create
                  (fun () ->
                    match Serve.Client.try_connect socket with
                    | None -> Atomic.incr errors
                    | Some conn ->
                        (match
                           Serve.Client.request conn
                             (compile_req ~quiet:true ~profile:"full" w)
                         with
                        | Serve.Protocol.Result (o, _)
                          when o.Serve.Protocol.code = 0 ->
                            ()
                        | _ -> Atomic.incr errors);
                        Serve.Client.close conn)
                  ())
          in
          List.iter Thread.join clients;
          Alcotest.(check int) "all clients served" 0 (Atomic.get errors);
          let ask req =
            match
              Serve.Client.with_connection socket (fun conn ->
                  Serve.Client.request conn req)
            with
            | Some r -> r
            | None -> Alcotest.fail "daemon not reachable"
          in
          let stats () =
            match ask Serve.Protocol.Stats with
            | Serve.Protocol.Data d -> d
            | _ -> Alcotest.fail "no stats"
          in
          let count stats field path =
            Serve.Sjson.(
              to_int
                (member field
                   (List.fold_left (fun v k -> member k v) stats path)))
          in
          let misses stats =
            ( count stats "misses" [ "compile_cache" ],
              count stats "misses" [ "region_cache"; "tail" ],
              count stats "misses" [ "region_cache"; "front_end" ] )
          in
          let stats_cold = stats () in
          let hits path = count stats_cold "hits" ("region_cache" :: path) in
          (* N identical concurrent requests, one cold compute:
             everyone else waited on the in-flight cache slot; below
             it, the one compile ran the front end once and the tail
             (SAFARA's feedback included) on every region it met,
             reusing nothing *)
          let compile, tail, front_end = misses stats_cold in
          Alcotest.(check int) "one compile miss for 8 clients" 1 compile;
          Alcotest.(check (pair int int)) "front end: 0 hits, 1 miss"
            (0, 1)
            (hits [ "front_end" ], front_end);
          Alcotest.(check bool) "tail: no hits, some misses" true
            (hits [ "tail" ] = 0 && tail > 0);
          (* a warm request compiles nothing: it is answered from the
             compile cache, and no miss is counted at any layer *)
          (match ask (compile_req ~quiet:true ~profile:"full" w) with
          | Serve.Protocol.Result (o, _) when o.Serve.Protocol.code = 0 -> ()
          | _ -> Alcotest.fail "warm request failed");
          Alcotest.(check (triple int int int))
            "warm request: compile, tail and front-end misses unchanged"
            (misses stats_cold) (misses (stats ()))))

(* --- Sjson: strict parsing and committed BENCH files ------------------- *)

module Sjson = Serve.Sjson

let rejects s =
  match Sjson.parse s with
  | _ -> false
  | exception Sjson.Parse_error _ -> true

let strict_rejects =
  [
    "+1"; "01"; "-01"; ".5"; "1."; "-"; "1e"; "1e+"; "1.e5"; "0x10";
    "1E400"; "-1e400"; "[1e999]"; "\"a\001b\""; "\"tab\there\"";
    "\"line\nbreak\""; "\"\\u12G4\""; "\"\\u1_23\""; "\"\\u+123\"";
  ]

let strict_accepts =
  [
    ("0", Sjson.Num 0.); ("-0", Sjson.Num (-0.)); ("1.5", Sjson.Num 1.5);
    ("-1.5e-3", Sjson.Num (-1.5e-3)); ("1E+2", Sjson.Num 100.);
    ("1e-400", Sjson.Num 0.); ("\"\\u0041\\t\"", Sjson.Str "A\t");
    ( "[0,10,{\"a\":null}]",
      Sjson.(Arr [ Num 0.; Num 10.; Obj [ ("a", Null) ] ]) );
  ]

let test_sjson_strict () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ String.escaped s) true (rejects s))
    strict_rejects;
  List.iter
    (fun (s, v) ->
      Alcotest.(check bool) ("accepts " ^ s) true (Sjson.parse s = v))
    strict_accepts

(* --- Sjson against the reference codec ------------------------------------ *)

(* what a parser makes of some bytes: a value (printed, so -0 and 0
   differ) or the exact Parse_error message *)
let outcome parse s =
  match parse s with
  | v -> Ok (Serve_reference.to_string v)
  | exception Sjson.Parse_error m -> Error m

let same_outcome s = outcome Sjson.parse s = outcome Serve_reference.parse s

let test_sjson_reference_corpus () =
  let bad_escapes =
    [ "\"\\"; "\"ab\\"; "\"\\u12\""; "\"\\u123"; "\"\\x\""; "\"abc";
      "\"a\\u00e9\\u20ac\\uD800b\""; "[1,"; "[1 2]"; "{\"a\" 1}"; "{1:2}";
      "{\"a\":1,}"; "tru"; "nul"; "falsey"; "[]x"; "  "; ""; "\000"; "-x";
      "{\"a\":[true,false,null],\"b\\n\":\"\\/\\b\\f\"}" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("as the reference: " ^ String.escaped s) true
        (same_outcome s))
    (strict_rejects @ List.map fst strict_accepts @ bad_escapes)

(* dune runtest runs in _build/.../test, whose parent mirrors the
   project root (the BENCH files, examples/, test/golden/); a manual run
   goes from the project root *)
let project_root () =
  if Sys.file_exists "golden" then Filename.parent_dir_name else "."

let read_bin path = In_channel.with_open_bin path In_channel.input_all

let test_bench_files_roundtrip () =
  let dir = project_root () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check bool) "BENCH_sim.json present" true
    (List.mem "BENCH_sim.json" files);
  List.iter
    (fun f ->
      match Sjson.parse (read_bin (Filename.concat dir f)) with
      | exception Sjson.Parse_error m -> Alcotest.failf "%s: %s" f m
      | v ->
          Alcotest.(check bool) (f ^ " round-trips") true
            (Sjson.parse (Sjson.to_string v) = v))
    files

module Q = QCheck

(* strings up to 4 KiB dense in the bytes a printer escapes, and
   numbers at the edges of the integer form *)
let gen_str =
  let open Q.Gen in
  let special =
    oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127' ]
  in
  let byte =
    frequency
      [ (6, printable); (2, special); (1, map Char.chr (0 -- 31));
        (1, map Char.chr (128 -- 255)) ]
  in
  oneof [ string_size ~gen:byte (0 -- 8); string_size ~gen:byte (0 -- 4096) ]

let gen_num =
  let open Q.Gen in
  oneof
    [
      oneofl
        [ -0.; 0.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 0.5; -2.25;
          1e-7; 123456.789; 1e300; Float.max_float; Float.min_float;
          1e16 +. 2. ];
      map (fun f -> if Float.is_finite f then f else 0.) float;
      map float_of_int int;
    ]

let gen_json : Sjson.t Q.Gen.t =
  let open Q.Gen in
  let leaf =
    oneof
      [
        return Sjson.Null;
        map (fun b -> Sjson.Bool b) bool;
        map (fun f -> Sjson.Num f) gen_num;
        map (fun s -> Sjson.Str s) gen_str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Sjson.Arr l) (list_size (0 -- 4) (self (n / 3)))
               );
               ( 1,
                 map
                   (fun kvs -> Sjson.Obj kvs)
                   (list_size (0 -- 4) (pair gen_str (self (n / 3)))) );
             ])

let prop_sjson_roundtrip =
  Q.Test.make ~name:"sjson: parse inverts to_string" ~count:300
    (Q.make ~print:Sjson.to_string gen_json) (fun v ->
      Sjson.parse (Sjson.to_string v) = v)

let prop_sjson_print_as_reference =
  Q.Test.make ~name:"sjson: to_string prints the reference's bytes"
    ~count:300 (Q.make ~print:Serve_reference.to_string gen_json) (fun v ->
      Sjson.to_string v = Serve_reference.to_string v)

let prop_sjson_parse_as_reference =
  Q.Test.make ~name:"sjson: parse reads valid text as the reference"
    ~count:300 (Q.make ~print:Serve_reference.to_string gen_json) (fun v ->
      let text = Serve_reference.to_string v in
      outcome Sjson.parse text = Ok text && same_outcome text)

(* random bytes, and printed values with a few bits flipped: the
   parser may accept or reject, but only ever by raising Parse_error,
   with the reference's message *)
(* [flips] is a list of (byte index mod length, bit) pairs; the empty
   string stays empty *)
let flip_bits s flips =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  if n > 0 then
    List.iter
      (fun (i, bit) ->
        let i = i mod n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit))))
      flips;
  Bytes.to_string b

let gen_flips = Q.Gen.(list_size (1 -- 4) (pair nat (0 -- 7)))

let prop_sjson_only_parse_error =
  let flipped =
    Q.Gen.(
      map
        (fun (v, flips) -> flip_bits (Sjson.to_string v) flips)
        (pair gen_json gen_flips))
  in
  Q.Test.make ~name:"sjson: malformed bytes raise only Parse_error" ~count:1000
    (Q.make ~print:String.escaped
       Q.Gen.(oneof [ string_size (0 -- 24); flipped ]))
    (fun s ->
      (try ignore (Sjson.parse s) with Sjson.Parse_error _ -> ());
      same_outcome s)

(* --- frame decoder ------------------------------------------------------ *)

let write_bin path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* [read_frame] over a channel holding exactly [bytes] *)
let read_frame_of bytes =
  let path = Filename.temp_file "safara-frame" "" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_bin path bytes;
      In_channel.with_open_bin path Serve.Protocol.read_frame)

let test_frame_header_strict () =
  Alcotest.(check string)
    "canonical header" "0123456789"
    (read_frame_of "0000000a\n0123456789");
  List.iter
    (fun (bytes, msg) ->
      match read_frame_of bytes with
      | _ -> Alcotest.failf "accepted %S" bytes
      | exception Failure m -> Alcotest.(check string) bytes msg m)
    [
      ("0000_001\nx", "protocol: bad frame length");
      ("0000000A\n0123456789", "protocol: bad frame length");
      ("0000000a0123456789", "protocol: bad frame header");
      ("04000001\n", "protocol: oversized frame");
      ("ffffffff\n", "protocol: oversized frame");
    ];
  match read_frame_of "0000000" with
  | _ -> Alcotest.fail "accepted a short header"
  | exception End_of_file -> ()

(* random bytes, and frames [write_frame] wrote with a few bits
   flipped: the decoder returns exactly the payload the bytes hold
   behind a canonical header, or raises only Failure/End_of_file *)
let prop_frame_decoder =
  let framed payload =
    let path = Filename.temp_file "safara-frame" "" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc ->
            Serve.Protocol.write_frame oc payload);
        read_bin path)
  in
  let gen =
    Q.Gen.(
      oneof
        [
          string_size (0 -- 24);
          map
            (fun (p, flips) -> flip_bits (framed p) flips)
            (pair (string_size (0 -- 24)) gen_flips);
        ])
  in
  Q.Test.make ~name:"frame: decoder returns the payload or fails cleanly"
    ~count:500 (Q.make ~print:String.escaped gen) (fun bytes ->
      match read_frame_of bytes with
      | p ->
          let len = String.length p in
          String.sub bytes 0 9 = Printf.sprintf "%08x\n" len
          && String.sub bytes 9 len = p
      | exception (Failure _ | End_of_file) -> true)

(* --- counted work of a warm request --------------------------------------- *)

(* words [f] allocates: minor-heap words plus words allocated directly
   in the major heap; both are fixed by the code run, whenever the
   collector happens to run ([Gc.minor_words], not the minor count of
   [Gc.counters], which varies from run to run) *)
let words_allocated f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0 -. (promoted1 -. promoted0))

(* A warm compile request's round trip in process — client encode,
   server parse, compile from the cache and render, response encode,
   client parse — over every registry workload under every profile
   must allocate at most half the words it allocates through the
   reference codec and the formatter render. *)
let test_warm_request_words () =
  let eng = Eval.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Eval.shutdown eng)
    (fun () ->
      let module P = Serve.Protocol in
      let requests =
        List.concat_map
          (fun w ->
            List.map
              (fun profile -> compile_req ~quiet:true ~profile w)
              [ "base"; "safara"; "small"; "clauses"; "full"; "pgi" ])
          Registry.all
      in
      let round_trip ~to_string ~parse ~compile req =
        match P.request_of_json (parse (to_string (P.request_to_json req))) with
        | Ok (P.Compile c) ->
            let r = P.Result (compile eng c, 0.0123) in
            P.response_of_json (parse (to_string (P.response_to_json r)))
        | _ -> Alcotest.fail "not a compile request"
      in
      let current =
        round_trip ~to_string:Sjson.to_string ~parse:Sjson.parse
          ~compile:Serve.Commands.compile
      in
      let reference =
        round_trip ~to_string:Serve_reference.to_string
          ~parse:Serve_reference.parse ~compile:Serve_reference.compile
      in
      (* the first pass fills the engine's compile cache *)
      List.iter
        (fun req ->
          Alcotest.(check bool) "same response" true
            (current req = reference req))
        requests;
      let words round_trip =
        words_allocated (fun () ->
            List.iter
              (fun req -> ignore (Sys.opaque_identity (round_trip req)))
              requests)
      in
      let now = words current and before = words reference in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f words, %.0f through the reference" now before)
        true
        (2. *. now <= before))

(* --- store entries ------------------------------------------------------- *)

(* random bytes, and a valid entry with a few bits flipped, at an
   entry's path: [find] reads a miss without raising and counts the
   entry as corrupt *)
let prop_store_entries =
  let gen =
    Q.Gen.(
      pair (string_size (0 -- 32))
        (oneof
           [
             map (fun r -> `Random r) (string_size (0 -- 64));
             map (fun f -> `Flip f) gen_flips;
           ]))
  in
  let print (payload, bad) =
    Printf.sprintf "payload %S, %s" payload
      (match bad with
      | `Random r -> Printf.sprintf "random %S" r
      | `Flip f ->
          "flips "
          ^ String.concat " "
              (List.map (fun (i, b) -> Printf.sprintf "%d:%d" i b) f))
  in
  Q.Test.make ~name:"store: corrupt entries read as counted misses"
    ~count:200 (Q.make ~print gen) (fun (payload, bad) ->
      with_tmpdir (fun dir ->
          let s = Store.open_store dir in
          Store.add s ~key:"k" payload;
          let path = Store.entry_path s ~key:"k" in
          let valid = read_bin path in
          let bytes =
            match bad with `Random r -> r | `Flip f -> flip_bits valid f
          in
          Q.assume (bytes <> valid);
          write_bin path bytes;
          Store.find s ~key:"k" = None
          && (Store.stats s).Store.st_corrupt = 1))

(* --- engine stats JSON ---------------------------------------------------- *)

(* every counter of [Eval.stats] gets a distinct value; each must
   appear in the JSON exactly once, so a counter added to the record
   (which breaks this literal) cannot be left out of the encoder *)
let test_stats_json_complete () =
  let st =
    {
      Store.st_disk_hits = 101; st_disk_misses = 102; st_bytes_read = 103;
      st_bytes_written = 104; st_evictions = 105; st_corrupt = 106;
      st_entries = 107; st_total_bytes = 108;
    }
  in
  let s =
    {
      Eval.st_jobs = 1; st_job_counts = [ 2; 3 ]; st_compile_hits = 4;
      st_compile_misses = 5; st_sim_hits = 6; st_sim_misses = 7;
      st_tail_hits = 8; st_tail_misses = 9; st_candidates_hits = 10;
      st_candidates_misses = 11; st_front_end_hits = 12;
      st_front_end_misses = 13; st_images = 14; st_image_cells = 15;
      st_image_cells_filled = 16; st_compile_s = 17.5; st_sim_s = 18.5;
      st_pass_s = [ ("dce", 19, 20.5) ]; st_wall_s = 21.5; st_store = Some st;
    }
  in
  let rec nums = function
    | Sjson.Num f -> [ f ]
    | Sjson.Arr l -> List.concat_map nums l
    | Sjson.Obj kvs -> List.concat_map (fun (_, v) -> nums v) kvs
    | _ -> []
  in
  let j = Eval.stats_json s in
  Alcotest.(check (list (float 0.)))
    "every counter exactly once"
    (List.init 16 (fun i -> float_of_int (i + 1))
    @ [ 17.5; 18.5; 19.; 20.5; 21.5 ]
    @ List.init 8 (fun i -> float_of_int (101 + i)))
    (List.sort compare (nums j));
  Alcotest.(check int) "images" 14 (Sjson.to_int (Sjson.member "images" j));
  Alcotest.(check int) "image_cells" 15
    (Sjson.to_int (Sjson.member "image_cells" j));
  Alcotest.(check int) "image_cells_filled" 16
    (Sjson.to_int (Sjson.member "image_cells_filled" j))

(* --- the CLI's JSON through the real binary ------------------------------ *)

let saraccc_json bin args =
  let ic = Unix.open_process_args_in bin (Array.of_list (bin :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "saraccc %s failed" (String.concat " " args));
  match Sjson.parse out with
  | v -> v
  | exception Sjson.Parse_error m ->
      Alcotest.failf "saraccc %s: %s" (String.concat " " args) m

let has_keys what keys v =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (what ^ " has " ^ k) true
        (Sjson.member k v <> Sjson.Null))
    keys

let test_cli_json () =
  match Sys.getenv_opt "SARACCC_BIN" with
  | None | Some "" -> ()
  | Some bin ->
      let root = project_root () in
      let fig8 =
        List.fold_left Filename.concat root
          [ "examples"; "programs"; "fig8.macc" ]
      in
      (match saraccc_json bin [ "check"; "--pressure"; "--json"; fig8 ] with
      | Sjson.Arr (d :: _) ->
          has_keys "diagnostic"
            [ "code"; "severity"; "file"; "line"; "col"; "where"; "message" ] d
      | _ -> Alcotest.fail "check --json: expected a non-empty array");
      let trace =
        saraccc_json bin
          [ "compile"; fig8; "-p"; "full"; "--time-passes"; "--json" ]
      in
      has_keys "trace" [ "pipeline"; "passes" ] trace;
      (* the full profile's line: "pipeline OpenUH(SAFARA+clauses) a -> b" *)
      let golden =
        In_channel.with_open_text
          (List.fold_left Filename.concat root
             [ "test"; "golden"; "pipeline.golden" ])
          In_channel.input_all
        |> String.split_on_char '\n'
        |> List.find
             (String.starts_with ~prefix:"pipeline OpenUH(SAFARA+clauses) ")
      in
      let want =
        String.trim
          (String.concat " "
             (List.tl (List.tl (String.split_on_char ' ' golden))))
      in
      Alcotest.(check string) "passes in pipeline.golden order" want
        (String.concat " -> "
           (List.map
              (fun p -> Sjson.to_str (Sjson.member "name" p))
              (Sjson.to_list (Sjson.member "passes" trace))));
      let tune =
        saraccc_json bin
          [ "tune"; "303.ostencil"; "--arch"; "kepler"; "--json" ]
      in
      has_keys "tune"
        [ "id"; "arch"; "strategy"; "best"; "best_ms"; "default_ms";
          "improvement"; "evaluated"; "space"; "kernels"; "sim_hits";
          "sim_misses" ]
        tune;
      has_keys "tune best" [ "config"; "unroll" ] (Sjson.member "best" tune)

(* --- SIGTERM shutdown of the real binary -------------------------------- *)

let test_sigterm_shutdown () =
  match Sys.getenv_opt "SARACCC_BIN" with
  | None | Some "" ->
      (* only meaningful under `dune runtest`, which exports the
         binary's path *)
      ()
  | Some bin ->
      with_tmpdir (fun dir ->
          let socket = Filename.concat dir "d.sock" in
          let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
          let pid =
            Unix.create_process bin
              [| bin; "serve"; "--socket"; socket; "--no-store"; "-j"; "1" |]
              devnull devnull devnull
          in
          Unix.close devnull;
          let deadline = Unix.gettimeofday () +. 30. in
          let rec wait_sock () =
            if Sys.file_exists socket then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "daemon socket never appeared"
            else begin
              ignore (Unix.select [] [] [] 0.05);
              wait_sock ()
            end
          in
          wait_sock ();
          (match Serve.Client.try_connect socket with
          | Some conn ->
              (match Serve.Client.request conn Serve.Protocol.Ping with
              | Serve.Protocol.Data _ -> ()
              | _ -> Alcotest.fail "ping failed");
              Serve.Client.close conn
          | None -> Alcotest.fail "could not connect to daemon");
          Unix.kill pid Sys.sigterm;
          (match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "daemon exited with %d" n
          | _, Unix.WSIGNALED s ->
              Alcotest.failf "daemon killed by signal %d" s
          | _, Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped");
          Alcotest.(check bool)
            "socket unlinked on shutdown" false (Sys.file_exists socket))

(* --- a stored kernel that fails the verifier -------------------------- *)

(* An entry that passes the store's checksum but holds an ill-formed
   kernel, under the real key of a compile: a fresh engine over the
   store must say so on stderr, recompute, and serve the kernels the
   compile makes. *)
let test_store_revalidation () =
  with_tmpdir (fun dir ->
      let src = seismic.Workload.source and profile = Safara_core.Compiler.Full in
      let e1 = Eval.create ~jobs:1 ~store:(Store.open_store dir) () in
      let good = Eval.compile_src e1 profile src in
      Eval.shutdown e1;
      let key =
        Printf.sprintf "%s/compile/%s" Eval.store_schema
          (Eval.compile_key ~src ~profile ~arch:Safara_gpu.Arch.default
             ~config:None ~unroll:None ~disable:[])
      in
      let s = Store.open_store dir in
      Alcotest.(check bool) "the compile is stored under its key" true
        (Store.find s ~key <> None);
      (* drop the first label of the first kernel: its branches now
         target an undefined label *)
      let broken =
        match good.Safara_core.Compiler.c_kernels with
        | (k, report) :: rest ->
            let code = k.Safara_vir.Kernel.code in
            let i =
              Option.get
                (Array.find_index
                   (function Safara_vir.Instr.Label _ -> true | _ -> false)
                   code)
            in
            let code =
              Array.append (Array.sub code 0 i)
                (Array.sub code (i + 1) (Array.length code - i - 1))
            in
            ({ k with Safara_vir.Kernel.code }, report) :: rest
        | [] -> Alcotest.fail "no kernels"
      in
      Alcotest.(check bool) "the stored kernel is ill-formed" true
        (Safara_vir.Verify.verify (fst (List.hd broken)) <> []);
      (* [Store.add] keeps an entry already present *)
      Sys.remove (Store.entry_path s ~key);
      Store.add s ~key
        (Marshal.to_string
           { good with Safara_core.Compiler.c_kernels = broken }
           []);
      let log = Filename.temp_file "safara-revalidation" ".log" in
      let e2 = Eval.create ~jobs:1 ~store:(Store.open_store dir) () in
      let served =
        let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
        let saved = Unix.dup Unix.stderr in
        Unix.dup2 fd Unix.stderr;
        Unix.close fd;
        Fun.protect
          ~finally:(fun () ->
            flush stderr;
            Unix.dup2 saved Unix.stderr;
            Unix.close saved)
          (fun () -> Eval.compile_src e2 profile src)
      in
      let st = Option.get (Eval.stats e2).Eval.st_store in
      Eval.shutdown e2;
      let said = In_channel.with_open_bin log In_channel.input_all in
      Sys.remove log;
      Alcotest.(check bool) "stderr names the failed revalidation" true
        (Str_helpers.contains said "failed revalidation");
      Alcotest.(check int) "the entry was read" 1 st.Store.st_disk_hits;
      Alcotest.(check bool) "the compile's own kernels are served" true
        (served.Safara_core.Compiler.c_kernels = good.Safara_core.Compiler.c_kernels))

let suite =
  [
    Alcotest.test_case "cache: mutex released when compute raises" `Quick
      test_cache_locked_raise;
    Alcotest.test_case "store: round trip and persistence" `Quick
      test_store_roundtrip;
    Alcotest.test_case "store: profile/disable changes miss" `Quick
      test_store_key_sensitivity;
    Alcotest.test_case "store: second engine gets timing hits" `Quick
      test_store_timing_hits;
    Alcotest.test_case "store: bit flip reads as miss" `Quick
      test_store_corrupt_entry;
    Alcotest.test_case "store: engine recompiles over corrupt entry" `Quick
      test_eval_recovers_from_corrupt_store;
    Alcotest.test_case "store: GC keeps disk within bound" `Quick
      test_store_gc_bound;
    Alcotest.test_case "compile --pressure listing" `Quick
      test_pressure_listing;
    Alcotest.test_case "daemon: byte-identical to in-process" `Slow
      test_daemon_byte_identity;
    Alcotest.test_case "daemon: bench and check identical" `Quick
      test_daemon_bench_and_check_identity;
    Alcotest.test_case "daemon: retired engine name is a clean error" `Quick
      test_daemon_rejects_retired_engine;
    Alcotest.test_case "daemon: concurrent clients dedup to one compile"
      `Quick test_daemon_concurrent_dedup;
    Alcotest.test_case "daemon: SIGTERM shuts down cleanly" `Quick
      test_sigterm_shutdown;
    Alcotest.test_case "sjson: strict numbers and strings" `Quick
      test_sjson_strict;
    Alcotest.test_case "sjson: committed BENCH files round-trip" `Quick
      test_bench_files_roundtrip;
    Alcotest.test_case "frame: header is 8 lowercase hex digits" `Quick
      test_frame_header_strict;
    Alcotest.test_case "sjson: corpus read as the reference reads it" `Quick
      test_sjson_reference_corpus;
    Alcotest.test_case "daemon: warm request allocates half the reference"
      `Quick test_warm_request_words;
    Alcotest.test_case "stats json: every counter" `Quick
      test_stats_json_complete;
    Alcotest.test_case "cli: JSON outputs parse with their keys" `Quick
      test_cli_json;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_sjson_roundtrip; prop_sjson_print_as_reference;
        prop_sjson_parse_as_reference; prop_sjson_only_parse_error;
        prop_frame_decoder;
        prop_store_entries;
      ]
  @ [
      Alcotest.test_case "store: ill-formed kernel fails revalidation" `Quick
        test_store_revalidation;
    ]
