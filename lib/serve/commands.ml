module Eval = Safara_suites.Eval
module C = Safara_core.Compiler

let arch_of = Safara_gpu.Arch.of_name

let profile_of = function
  | "base" -> C.Base
  | "safara" -> C.Safara_only
  | "small" -> C.Small_only
  | "clauses" -> C.Clauses_only
  | "full" -> C.Full
  | "pgi" -> C.Pgi_like
  | other ->
      failwith
        ("unknown profile " ^ other ^ " (base|safara|small|clauses|full|pgi)")

let with_engine_opt name f =
  match name with
  | None -> f ()
  | Some n ->
      Safara_sim.Decode.with_engine (Safara_sim.Decode.engine_of_string n) f

(* Rendering discipline, shared by every command: Printf-style output
   goes straight into the buffer, Format-style output through a
   formatter that is flushed after every use (a formatter over the
   buffer, or one Format.asprintf per use) — exactly the interleaving
   the CLI's stdout sees (Format.printf flushes at each "@."), so the
   bytes match the in-process subcommand's. *)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile eng (r : Protocol.compile_req) : Protocol.outcome =
  let arch = arch_of r.cr_arch in
  let profile = profile_of r.cr_profile in
  if r.cr_annotate_live && r.cr_dumps = [] then
    failwith "--annotate-live needs --dump-ir (it annotates the dumps)";
  let b = Buffer.create 256 in
  let instrumented = r.cr_time_passes || r.cr_dumps <> [] in
  let c, trace =
    if instrumented then
      (* traces are per-invocation instrumentation, not cacheable
         artifacts: compile directly *)
      let options =
        {
          Safara_core.Pipeline.default_options with
          Safara_core.Pipeline.o_disable = r.cr_disable;
          o_dump =
            (match r.cr_dumps with
            | [] -> `None
            | l when List.mem "all" l -> `All
            | l -> `Passes l);
          o_annotate_live = r.cr_annotate_live;
          o_precise_stats = r.cr_time_passes;
        }
      in
      let c, trace =
        C.compile_with ~arch ~options profile
          (Safara_lang.Frontend.compile r.cr_src)
      in
      (c, Some trace)
    else
      ( Eval.compile_src eng ~arch ~disable:r.cr_disable profile r.cr_src,
        None )
  in
  (match trace with
  | Some trace when r.cr_time_passes && r.cr_json ->
      Buffer.add_string b
        (Sjson.to_string (Safara_core.Pipeline.trace_to_json trace));
      Buffer.add_char b '\n'
  | _ ->
      (match trace with
      | Some trace ->
          List.iter
            (fun (pass, text) ->
              Printf.bprintf b "=== after %s ===\n%s\n" pass text)
            trace.Safara_core.Pipeline.tr_dumps
      | None -> ());
      List.iter
        (fun (k, report) ->
          let k, facts, report =
            match r.cr_maxrreg with
            | None -> (k, Safara_vir.Facts.make k.Safara_vir.Kernel.code, report)
            | Some cap -> Safara_ptxas.Assemble.assemble ~max_regs:cap ~arch k
          in
          if r.cr_pressure then
            Buffer.add_string b
              (Format.asprintf "%a@." (Safara_vir.Facts.pp_annotated k) facts)
          else if not r.cr_quiet then
            Buffer.add_string b (Format.asprintf "%a@." Safara_vir.Kernel.pp k);
          Buffer.add_string b (Safara_ptxas.Assemble.report_line report);
          Buffer.add_string b "\n\n")
        c.C.c_kernels;
      (match trace with
      | Some trace when r.cr_time_passes ->
          Buffer.add_string b
            (Format.asprintf "%a" Safara_core.Pipeline.pp_trace trace)
      | _ -> ()));
  { Protocol.out = Buffer.contents b; err = ""; code = 0 }

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check (r : Protocol.check_req) : Protocol.outcome =
  let arch = arch_of r.ck_arch in
  let profile = profile_of r.ck_profile in
  let inputs =
    (match r.ck_src with Some src -> [ (r.ck_name, src) ] | None -> [])
    @
    if r.ck_workloads then
      List.map
        (fun (w : Safara_suites.Workload.t) ->
          (w.Safara_suites.Workload.id, w.Safara_suites.Workload.source))
        Safara_suites.Registry.all
    else []
  in
  if inputs = [] then failwith "no input: give a FILE and/or --workloads";
  let b = Buffer.create 1024 in
  let all = ref [] in
  let any_errors = ref false in
  List.iter
    (fun (name, src) ->
      let diags =
        Safara_check.Check.finalize ~werror:r.ck_werror ~codes:r.ck_codes
          (Safara_check.Check.run ~file:name ~arch ~profile
             ~pressure:r.ck_pressure src)
      in
      if Safara_diag.Diagnostic.has_errors diags then any_errors := true;
      all := !all @ diags;
      if not r.ck_json then
        if diags = [] then Printf.bprintf b "%s: OK\n" name
        else
          Buffer.add_string b (Safara_diag.Diagnostic.render_all ~src diags))
    inputs;
  if r.ck_json then begin
    Buffer.add_string b
      (Sjson.to_string (Safara_diag.Diagnostic.list_to_json !all));
    Buffer.add_char b '\n'
  end;
  {
    Protocol.out = Buffer.contents b;
    err = "";
    code = (if !any_errors then 1 else 0);
  }

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let parse_scalars (prog : Safara_ir.Program.t) defs =
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

let run eng (r : Protocol.run_req) : Protocol.outcome =
  with_engine_opt r.rn_engine (fun () ->
      let profile = profile_of r.rn_profile in
      let arch = arch_of r.rn_arch in
      let c = Eval.compile_src eng ~arch profile r.rn_src in
      let scalars = parse_scalars c.C.c_prog r.rn_defines in
      let env = C.make_env c ~scalars in
      let pool =
        if Eval.jobs eng > 1 then Some (Eval.pool eng) else None
      in
      let modes = C.run_functional_m ?pool c env in
      let out = Buffer.create 256 in
      let err = Buffer.create 64 in
      (* execution-mode report on stderr: stdout (the checksums) is
         byte-identical at any pool size *)
      if pool <> None then
        List.iter
          (fun (kname, mode) ->
            match mode with
            | Safara_sim.Interp.Parallel { chunks } ->
                Printf.bprintf err "%s: block-parallel (%d chunks)\n" kname
                  chunks
            | Safara_sim.Interp.Sequential (Some reason) ->
                Printf.bprintf err "%s: sequential — %s\n" kname
                  (Safara_sim.Blockpar.reason_message reason)
            | Safara_sim.Interp.Sequential None ->
                Printf.bprintf err "%s: sequential\n" kname)
          modes;
      List.iter
        (fun (a : Safara_ir.Array_info.t) ->
          Printf.bprintf out "%-16s checksum % .10e\n"
            a.Safara_ir.Array_info.name
            (Safara_sim.Memory.checksum env.Safara_sim.Interp.mem
               a.Safara_ir.Array_info.name))
        c.C.c_prog.Safara_ir.Program.arrays;
      {
        Protocol.out = Buffer.contents out;
        err = Buffer.contents err;
        code = 0;
      })

(* ------------------------------------------------------------------ *)
(* bench                                                               *)
(* ------------------------------------------------------------------ *)

let bench eng (r : Protocol.bench_req) : Protocol.outcome =
  with_engine_opt r.bn_engine (fun () ->
      let w =
        try Safara_suites.Registry.find r.bn_id
        with Not_found ->
          failwith
            ("unknown benchmark " ^ r.bn_id ^ "; known: "
            ^ String.concat ", "
                (List.map
                   (fun (w : Safara_suites.Workload.t) ->
                     w.Safara_suites.Workload.id)
                   Safara_suites.Registry.all))
      in
      let arch = arch_of r.bn_arch in
      let b = Buffer.create 1024 in
      let fmt = Format.formatter_of_buffer b in
      Printf.bprintf b "%s — %s\n%s\n\n" w.Safara_suites.Workload.id
        w.Safara_suites.Workload.title w.Safara_suites.Workload.description;
      if Eval.jobs eng > 1 then Eval.self_check eng w;
      Eval.warm eng (List.map (fun p -> Eval.job ~arch p w) C.all_profiles);
      let base = ref 0.0 in
      List.iter
        (fun p ->
          let t = Eval.time_job eng (Eval.job ~arch p w) in
          let total = t.Safara_sim.Launch.total_ms in
          if p = C.Base then base := total;
          Printf.bprintf b "%-24s %9.4f ms  %5.2fx\n" (C.profile_name p)
            total (!base /. total);
          List.iter
            (fun kt ->
              Format.fprintf fmt "    %a@." Safara_sim.Launch.pp_kernel_time
                kt)
            t.Safara_sim.Launch.ptk)
        C.all_profiles;
      Format.pp_print_flush fmt ();
      {
        Protocol.out = Buffer.contents b;
        err = (if r.bn_stats then Eval.render_stats eng else "");
        code = 0;
      })

let exec eng = function
  | Protocol.Compile r -> compile eng r
  | Protocol.Check r -> check r
  | Protocol.Run r -> run eng r
  | Protocol.Bench r -> bench eng r
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown ->
      invalid_arg "Commands.exec: control request"
