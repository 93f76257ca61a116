(* saraccc — the SAFARA OpenACC compiler driver.

   Subcommands:
     check    parse + type-check + validate a MiniACC file
     ir       print the (schedule-resolved) IR
     analyze  print dependences, parallelism verdicts, coalescing
              classes and reuse candidates per region
     compile  compile to the PTX-like virtual ISA and print it with
              the ptxas register report
     safara   run the SAFARA feedback loop and show each round
     occupancy  occupancy table for a kernel's register counts
     run      functionally execute the program and print checksums
     time     cycle-level timing estimate per kernel *)

open Cmdliner
module Sjson = Safara_json.Sjson

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let arch_of = Safara_gpu.Arch.of_name

let profile_of = function
  | "base" -> Safara_core.Compiler.Base
  | "safara" -> Safara_core.Compiler.Safara_only
  | "small" -> Safara_core.Compiler.Small_only
  | "clauses" -> Safara_core.Compiler.Clauses_only
  | "full" -> Safara_core.Compiler.Full
  | "pgi" -> Safara_core.Compiler.Pgi_like
  | other ->
      failwith
        ("unknown profile " ^ other ^ " (base|safara|small|clauses|full|pgi)")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path = Safara_lang.Frontend.compile ~name:(Filename.basename path) (read_file path)

(* --- common arguments ------------------------------------------------ *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniACC source file")

let arch_arg =
  Arg.(
    value
    & opt string "kepler"
    & info [ "arch" ] ~docv:"ARCH"
        ~doc:
          ("GPU model from the architecture registry: "
          ^ String.concat ", " Safara_gpu.Arch.names
          ^ " (see $(b,saraccc archs))"))

let profile_arg =
  Arg.(
    value
    & opt string "full"
    & info [ "p"; "profile" ] ~docv:"PROFILE"
        ~doc:"compiler profile: base, safara, small, clauses, full, pgi")

let scalars_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string string) []
    & info [ "D"; "define" ] ~docv:"NAME=VALUE" ~doc:"bind a scalar program parameter")

let engine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "simulator execution engine: reference or threaded (default \
           threaded). Both are bit-identical; the slower reference walker \
           exists as the differential oracle and the speedup baseline.")

(* checked against Decode.all_engines the same way --disable-pass is
   checked against the pass registry: an unknown name fails with the
   valid names listed *)
let set_engine = function
  | None -> ()
  | Some name -> Safara_sim.Decode.engine := Safara_sim.Decode.engine_of_string name

let parse_scalars prog defs =
  List.map
    (fun (name, value) ->
      let v =
        match
          List.find_opt
            (fun (p : Safara_ir.Expr.var) -> p.Safara_ir.Expr.vname = name)
            prog.Safara_ir.Program.params
        with
        | Some p when Safara_ir.Types.is_float p.Safara_ir.Expr.vtype ->
            Safara_sim.Value.F (float_of_string value)
        | _ -> Safara_sim.Value.I (int_of_string value)
      in
      (name, v))
    defs

let wrap f =
  try `Ok (f ()) with
  | Safara_lang.Lexer.Error (pos, msg) ->
      `Error (false, Format.asprintf "lexical error at %a: %s" Safara_lang.Token.pp_pos pos msg)
  | Safara_lang.Parser.Error (pos, msg) ->
      `Error (false, Format.asprintf "syntax error at %a: %s" Safara_lang.Token.pp_pos pos msg)
  | Failure msg | Invalid_argument msg -> `Error (false, msg)

(* --- compile-service plumbing ---------------------------------------- *)

(* The proxyable subcommands (check, compile, run, bench) build a
   Protocol request and either send it to a daemon (--connect) or
   execute it in-process through the same Safara_serve.Commands code
   the daemon runs — so both paths print identical bytes. *)

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "proxy this command to a $(b,saraccc serve) daemon listening on \
           this Unix socket (warm caches, persistent artifact store); falls \
           back to in-process execution when no daemon is up")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "persistent on-disk artifact store for in-process compiles (a \
           daemon manages its own store; see $(b,saraccc serve))")

let with_eval ?jobs ?store_dir f =
  let store = Option.map Safara_engine.Store.open_store store_dir in
  let eng = Safara_suites.Eval.create ?jobs ?store () in
  Fun.protect
    ~finally:(fun () -> Safara_suites.Eval.shutdown eng)
    (fun () -> f eng)

let finish (o : Safara_serve.Protocol.outcome) =
  print_string o.Safara_serve.Protocol.out;
  prerr_string o.Safara_serve.Protocol.err;
  if o.Safara_serve.Protocol.code <> 0 then exit o.Safara_serve.Protocol.code

(* remote when a daemon answers, local otherwise *)
let dispatch ~connect ~local req =
  let remote sock =
    Safara_serve.Client.with_connection sock (fun conn ->
        Safara_serve.Client.request conn req)
  in
  match Option.map remote connect with
  | Some (Some (Safara_serve.Protocol.Result (o, _ms))) -> finish o
  | Some (Some (Safara_serve.Protocol.Error e)) -> failwith e
  | Some (Some (Safara_serve.Protocol.Data _)) ->
      failwith "unexpected daemon response"
  | Some None | None -> finish (local ())

(* --- check ----------------------------------------------------------- *)

let check_cmd =
  let run file workloads json werror wcodes pressure arch_name profile_name
      connect =
    wrap (fun () ->
        let req =
          Safara_serve.Protocol.Check
            {
              ck_name =
                (match file with Some f -> Filename.basename f | None -> "");
              ck_src = Option.map read_file file;
              ck_workloads = workloads;
              ck_json = json;
              ck_werror = werror;
              ck_codes = wcodes;
              ck_pressure = pressure;
              ck_arch = arch_name;
              ck_profile = profile_name;
            }
        in
        dispatch ~connect req ~local:(fun () ->
            match req with
            | Safara_serve.Protocol.Check r -> Safara_serve.Commands.check r
            | _ -> assert false))
  in
  let opt_file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"MiniACC source file")
  in
  let workloads_arg =
    Arg.(
      value & flag
      & info [ "workloads" ]
          ~doc:"also check the source of every registered benchmark workload")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"emit diagnostics as a JSON array (for CI)")
  in
  let werror_arg =
    Arg.(
      value & flag
      & info [ "werror" ] ~doc:"treat warnings as errors (notes are kept)")
  in
  let wcodes_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "W" ] ~docv:"CODE"
          ~doc:
            "only report warnings/notes with this SAF0xx code (repeatable; \
             errors always shown)")
  in
  let pressure_arg =
    Arg.(
      value & flag
      & info [ "pressure" ]
          ~doc:
            "add the SAF036 static register-pressure report: per kernel, \
             the liveness solver's peak demand next to the allocator's \
             assignment")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the whole-pipeline static checker: front end, IR validation, \
          dependence-based race detection, VIR verification and lints")
    Term.(
      ret
        (const run $ opt_file_arg $ workloads_arg $ json_arg $ werror_arg
        $ wcodes_arg $ pressure_arg $ arch_arg $ profile_arg $ connect_arg))

(* --- ir -------------------------------------------------------------- *)

let ir_cmd =
  let run file resolve =
    wrap (fun () ->
        let prog = load file in
        let prog =
          if resolve then Safara_analysis.Schedule.resolve_program prog else prog
        in
        Format.printf "%a@." Safara_ir.Program.pp prog)
  in
  let resolve_arg =
    Arg.(value & flag & info [ "resolve" ] ~doc:"resolve auto loop schedules first")
  in
  Cmd.v (Cmd.info "ir" ~doc:"Print the IR of a MiniACC program")
    Term.(ret (const run $ file_arg $ resolve_arg))

(* --- analyze --------------------------------------------------------- *)

let analyze_cmd =
  let run file arch_name =
    wrap (fun () ->
        let arch = arch_of arch_name in
        let latency = Safara_gpu.Latency.for_arch arch in
        let prog = Safara_analysis.Schedule.resolve_program (load file) in
        List.iter
          (fun (r : Safara_ir.Region.t) ->
            let legality = Safara_analysis.Legality.analyze r.Safara_ir.Region.body in
            Format.printf "=== region %s ===@." r.Safara_ir.Region.rname;
            Format.printf "--- parallelism:@.";
            List.iter
              (fun (idx, v) ->
                Format.printf "  loop %s: %a@." idx Safara_analysis.Legality.pp_verdict v)
              (Safara_analysis.Legality.verdicts legality);
            Format.printf "--- thread mapping: %a@." Safara_analysis.Mapping.pp
              (Safara_analysis.Mapping.of_region r);
            Format.printf "--- dependences:@.";
            List.iter
              (fun d -> Format.printf "  %a@." Safara_analysis.Dependence.pp_dep d)
              (Safara_analysis.Legality.deps legality);
            Format.printf "--- coalescing:@.";
            List.iter
              (fun ((a, subs), access) ->
                Format.printf "  %s%a: %a@." a
                  (fun ppf -> List.iter (Format.fprintf ppf "[%a]" Safara_ir.Expr.pp))
                  subs Safara_gpu.Memspace.pp_access access)
              (Safara_analysis.Coalescing.classify_in_region ~arch
                 ~elem:(Safara_ir.Program.elem_type prog) r);
            Format.printf "--- reuse candidates (by SAFARA cost):@.";
            List.iter
              (fun c -> Format.printf "  %a@." Safara_analysis.Reuse.pp_candidate c)
              (Safara_analysis.Reuse.candidates ~arch ~latency prog r))
          prog.Safara_ir.Program.regions)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Print dependences, parallelism, coalescing and reuse candidates")
    Term.(ret (const run $ file_arg $ arch_arg))

(* --- compile --------------------------------------------------------- *)

let compile_cmd =
  let run file arch_name profile_name quiet maxrreg pressure time_passes json
      dumps annotate_live disables connect store_dir =
    wrap (fun () ->
        let req =
          Safara_serve.Protocol.Compile
            {
              cr_name = Filename.basename file;
              cr_src = read_file file;
              cr_arch = arch_name;
              cr_profile = profile_name;
              cr_quiet = quiet;
              cr_maxrreg = maxrreg;
              cr_pressure = pressure;
              cr_time_passes = time_passes;
              cr_json = json;
              cr_dumps = dumps;
              cr_annotate_live = annotate_live;
              cr_disable = disables;
            }
        in
        dispatch ~connect req ~local:(fun () ->
            with_eval ~jobs:1 ?store_dir (fun eng ->
                Safara_serve.Commands.exec eng req)))
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"only print the ptxas reports")
  in
  let maxrreg_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "maxrregcount" ] ~docv:"N"
          ~doc:"re-assemble with this register cap (forces spilling, like nvcc)")
  in
  let pressure_arg =
    Arg.(
      value & flag
      & info [ "pressure" ]
          ~doc:
            "list each shipped kernel with the live virtual registers and \
             32-bit register units after every instruction, from the \
             liveness solver (the --annotate-live renderer), ending with \
             its peak demand")
  in
  let time_passes_arg =
    Arg.(
      value & flag
      & info [ "time-passes" ]
          ~doc:
            "report per-pass wall time and before/after size statistics \
             (statements, instructions, virtual registers, estimated \
             hardware registers) for the profile's pipeline")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "with $(b,--time-passes): emit the pass report as a single JSON \
             object and nothing else (for CI artifacts)")
  in
  let dump_ir_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "dump-ir" ] ~docv:"PASS"
          ~doc:
            "print a snapshot of the staged value after this pass \
             (repeatable; $(b,all) dumps after every pass)")
  in
  let annotate_live_arg =
    Arg.(
      value & flag
      & info [ "annotate-live" ]
          ~doc:
            "with $(b,--dump-ir): prefix every dumped VIR instruction with \
             the number of live virtual registers (and 32-bit units) after \
             it, from the liveness solver, and report each kernel's peak \
             demand")
  in
  let disable_pass_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "disable-pass" ] ~docv:"PASS"
          ~doc:
            "skip this pipeline pass (repeatable; only passes that do not \
             change IR stage, e.g. safara or peephole, can be disabled)")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile to the PTX-like virtual ISA with register reports")
    Term.(
      ret (const run $ file_arg $ arch_arg $ profile_arg $ quiet_arg $ maxrreg_arg
           $ pressure_arg $ time_passes_arg $ json_arg $ dump_ir_arg
           $ annotate_live_arg $ disable_pass_arg $ connect_arg $ store_arg))

(* --- emit ------------------------------------------------------------ *)

let emit_cmd =
  let run file profile_name =
    wrap (fun () ->
        let profile = profile_of profile_name in
        let c = Safara_core.Compiler.compile profile (load file) in
        print_string (Safara_lang.Emit.program c.Safara_core.Compiler.c_prog))
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         "Print the transformed program back as compilable MiniACC source \
          (shows what scalar replacement did)")
    Term.(ret (const run $ file_arg $ profile_arg))

(* --- safara ---------------------------------------------------------- *)

let safara_cmd =
  let run file arch_name cap verbose =
    wrap (fun () ->
        setup_logs verbose;
        let arch = arch_of arch_name in
        let safara_config =
          let d = Safara_transform.Safara.default_config ~arch in
          match cap with
          | None -> d
          | Some c -> { d with Safara_transform.Safara.reg_cap = c }
        in
        let c =
          Safara_core.Compiler.compile ~arch ~safara_config
            Safara_core.Compiler.Full (load file)
        in
        List.iter
          (fun (region, rounds) ->
            Format.printf "region %s:@." region;
            if rounds = [] then Format.printf "  (nothing to replace)@.";
            List.iter
              (fun r -> Format.printf "  %a@." Safara_transform.Safara.pp_round r)
              rounds)
          c.Safara_core.Compiler.c_logs)
  in
  let cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "reg-cap" ] ~docv:"N" ~doc:"register budget (default: hardware cap)")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"enable debug tracing")
  in
  Cmd.v (Cmd.info "safara" ~doc:"Show the SAFARA feedback rounds for each region")
    Term.(ret (const run $ file_arg $ arch_arg $ cap_arg $ verbose_arg))

(* --- occupancy ------------------------------------------------------- *)

let occupancy_cmd =
  let run arch_name threads =
    wrap (fun () ->
        let arch = arch_of arch_name in
        Printf.printf "%s, %d threads/block\n%6s %8s %8s %12s %s\n"
          arch.Safara_gpu.Arch.name threads "regs" "blocks" "warps" "occupancy" "limiter";
        let rec steps r =
          if r <= arch.Safara_gpu.Arch.max_registers_per_thread then begin
            let o =
              Safara_gpu.Occupancy.calculate arch
                {
                  Safara_gpu.Occupancy.threads_per_block = threads;
                  regs_per_thread = r;
                  shared_bytes_per_block = 0;
                }
            in
            Format.printf "%6d %8d %8d %11.0f%% %a@." r
              o.Safara_gpu.Occupancy.blocks_per_sm o.Safara_gpu.Occupancy.active_warps
              (100. *. o.Safara_gpu.Occupancy.occupancy)
              Safara_gpu.Occupancy.pp_limiter o.Safara_gpu.Occupancy.limiter;
            steps (r + 8)
          end
        in
        steps 16)
  in
  let threads_arg =
    Arg.(value & opt int 128 & info [ "threads" ] ~docv:"N" ~doc:"threads per block")
  in
  Cmd.v (Cmd.info "occupancy" ~doc:"Print the occupancy table of an architecture")
    Term.(ret (const run $ arch_arg $ threads_arg))

(* --- run ------------------------------------------------------------- *)

let run_cmd =
  let run file arch_name profile_name defs jobs engine connect store_dir =
    wrap (fun () ->
        let req =
          Safara_serve.Protocol.Run
            {
              rn_src = read_file file;
              rn_profile = profile_name;
              rn_arch = arch_name;
              rn_defines = defs;
              rn_engine = engine;
            }
        in
        dispatch ~connect req ~local:(fun () ->
            set_engine engine;
            let jobs = match jobs with Some n when n > 1 -> n | _ -> 1 in
            with_eval ~jobs ?store_dir (fun eng ->
                Safara_serve.Commands.exec eng req)))
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "simulator domain-pool size: thread-blocks of provably \
             block-disjoint kernels run concurrently (results are \
             bit-identical at any N; kernels that cannot be proven safe \
             fall back to the sequential walker, see diagnostic SAF034)")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute the program on the functional simulator and print checksums")
    Term.(
      ret
        (const run $ file_arg $ arch_arg $ profile_arg $ scalars_arg $ jobs_arg
        $ engine_arg $ connect_arg $ store_arg))

(* --- bench ------------------------------------------------------------ *)

let bench_cmd =
  let run id arch_name jobs show_stats engine connect store_dir =
    wrap (fun () ->
        let req =
          Safara_serve.Protocol.Bench
            { bn_id = id; bn_arch = arch_name; bn_engine = engine;
              bn_stats = show_stats }
        in
        (* the six profile runs are independent jobs: the engine fans
           them out over its domain pool, then prints serially from the
           cache so the report is identical at any -j *)
        dispatch ~connect req ~local:(fun () ->
            set_engine engine;
            with_eval ?jobs ?store_dir (fun eng ->
                Safara_serve.Commands.exec eng req)))
  in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"benchmark id, e.g. 355.seismic or SP")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "evaluation-engine domain-pool size (default: \\$(b,SAFARA_JOBS), \
             else cores - 1; 1 = serial)")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "engine-stats" ]
          ~doc:"print cache and pool statistics to stderr at the end")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run one of the paper's benchmarks under every compiler profile")
    Term.(
      ret
        (const run $ id_arg $ arch_arg $ jobs_arg $ stats_arg $ engine_arg
        $ connect_arg $ store_arg))

(* --- serve ------------------------------------------------------------ *)

let serve_cmd =
  let run socket store no_store max_store_bytes jobs verbose =
    wrap (fun () ->
        Safara_serve.Server.serve
          ~on_ready:(fun sock ->
            Printf.eprintf "saraccc serve: listening on %s\n%!" sock)
          {
            Safara_serve.Server.s_socket = socket;
            s_store = (if no_store then None else Some store);
            s_max_store_bytes = max_store_bytes;
            s_jobs = jobs;
            s_verbose = verbose;
          })
  in
  let socket_arg =
    Arg.(
      value
      & opt string (Safara_serve.Server.default_socket ())
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix domain socket to listen on (removed on exit)")
  in
  let store_dir_arg =
    Arg.(
      value
      & opt string (Safara_serve.Server.default_store ())
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "persistent artifact store directory (default: \
             \\$(b,SAFARA_STORE), else a per-user temp path); compiled \
             artifacts, timing and simulation results survive daemon \
             restarts")
  in
  let no_store_arg =
    Arg.(
      value & flag
      & info [ "no-store" ] ~doc:"in-memory caches only, nothing on disk")
  in
  let max_store_arg =
    Arg.(
      value
      & opt int Safara_engine.Store.default_max_bytes
      & info [ "max-store-bytes" ] ~docv:"N"
          ~doc:
            "evict least-recently-used store entries once the store \
             exceeds this many bytes")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "worker-pool size for request execution (default: \
             \\$(b,SAFARA_JOBS), else cores - 1)")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"log each request with its service time, and final engine \
                statistics, to stderr")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile service: a daemon that answers check/compile/run/\
          bench requests over a Unix socket, with warm in-memory caches and \
          a persistent on-disk artifact store shared across clients")
    Term.(
      ret
        (const run $ socket_arg $ store_dir_arg $ no_store_arg $ max_store_arg
        $ jobs_arg $ verbose_arg))

(* --- time ------------------------------------------------------------ *)

let time_cmd =
  let run file arch_name profile_name defs engine =
    wrap (fun () ->
        set_engine engine;
        let arch = arch_of arch_name in
        let profile = profile_of profile_name in
        let prog = load file in
        let c = Safara_core.Compiler.compile ~arch profile prog in
        let scalars = parse_scalars prog defs in
        let env = Safara_core.Compiler.make_env c ~scalars in
        let t = Safara_core.Compiler.time c env in
        List.iter
          (fun kt -> Format.printf "%a@." Safara_sim.Launch.pp_kernel_time kt)
          t.Safara_sim.Launch.ptk;
        Printf.printf "total: %.4f ms\n" t.Safara_sim.Launch.total_ms)
  in
  Cmd.v (Cmd.info "time" ~doc:"Cycle-level timing estimate per kernel")
    Term.(ret (const run $ file_arg $ arch_arg $ profile_arg $ scalars_arg $ engine_arg))

(* --- archs ------------------------------------------------------------ *)

let archs_cmd =
  let run () =
    wrap (fun () -> Format.printf "%a@." Safara_gpu.Arch.pp_registry ())
  in
  Cmd.v
    (Cmd.info "archs"
       ~doc:"List the GPU architecture registry (valid $(b,--arch) values)")
    Term.(ret (const run $ const ()))

(* --- tune ------------------------------------------------------------- *)

let tune_cmd =
  let run id arch_name strategy_name jobs json show_stats store_dir =
    wrap (fun () ->
        let arch = arch_of arch_name in
        let strategy = Safara_tune.Tune.strategy_of_name strategy_name in
        let w =
          try Safara_suites.Registry.find id
          with Not_found ->
            failwith
              ("unknown benchmark " ^ id ^ "; known: "
              ^ String.concat ", "
                  (List.map
                     (fun (w : Safara_suites.Workload.t) ->
                       w.Safara_suites.Workload.id)
                     Safara_suites.Registry.all))
        in
        with_eval ?jobs ?store_dir (fun eng ->
            let s0 = Safara_suites.Eval.stats eng in
            let r = Safara_tune.Tune.search ~strategy eng ~arch w in
            let s1 = Safara_suites.Eval.stats eng in
            let hits =
              s1.Safara_suites.Eval.st_sim_hits
              - s0.Safara_suites.Eval.st_sim_hits
            in
            let misses =
              s1.Safara_suites.Eval.st_sim_misses
              - s0.Safara_suites.Eval.st_sim_misses
            in
            if json then begin
              let fields =
                match Safara_tune.Tune.to_json r with
                | Sjson.Obj fields -> fields
                | _ -> []
              in
              print_endline
                (Sjson.to_string
                   (Sjson.Obj
                      (fields
                      @ [ ("sim_hits", Sjson.int hits);
                          ("sim_misses", Sjson.int misses) ])))
            end
            else begin
              print_string (Safara_tune.Tune.render r);
              Printf.printf "search sim-cache: %d hits / %d misses\n" hits
                misses
            end;
            if show_stats then
              prerr_string (Safara_suites.Eval.render_stats eng)))
  in
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"benchmark id, e.g. 355.seismic or SP")
  in
  let strategy_arg =
    Arg.(
      value
      & opt string "grid"
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "search strategy: $(b,grid) (exhaustive, through the engine \
             pool) or $(b,greedy) (coordinate descent from the default \
             point)")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"evaluation-engine domain-pool size (1 = serial)")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"emit the result as one JSON object")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "engine-stats" ]
          ~doc:"print cache and pool statistics to stderr at the end")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the (SAFARA config x unroll factor) space for the fastest \
          configuration of a benchmark on an architecture, using the timing \
          simulator as the objective; repeated points are engine cache hits")
    Term.(
      ret
        (const run $ id_arg $ arch_arg $ strategy_arg $ jobs_arg $ json_arg
        $ stats_arg $ store_arg))

let main =
  Cmd.group
    (Cmd.info "saraccc" ~version:"1.0.0"
       ~doc:
         "SAFARA OpenACC compiler: scalar replacement with static register \
          feedback, dim/small clauses, and a Kepler GPU simulator")
    [ check_cmd; ir_cmd; analyze_cmd; compile_cmd; emit_cmd; safara_cmd;
      occupancy_cmd; run_cmd; time_cmd; bench_cmd; tune_cmd; archs_cmd;
      serve_cmd ]

let () = exit (Cmd.eval main)
