module P = Safara_ir.Program
module Cache = Safara_engine.Cache

type profile = Base | Safara_only | Small_only | Clauses_only | Full | Pgi_like

type compiled = {
  c_profile : profile;
  c_arch : Safara_gpu.Arch.t;
  c_latency : Safara_gpu.Latency.table;
  c_prog : P.t;
  c_kernels : (Safara_vir.Kernel.t * Safara_ptxas.Assemble.report) list;
  c_logs : (string * Safara_transform.Safara.round list) list;
}

let profile_name = function
  | Base -> "OpenUH(base)"
  | Safara_only -> "OpenUH(SAFARA)"
  | Small_only -> "OpenUH(small)"
  | Clauses_only -> "OpenUH(small+dim)"
  | Full -> "OpenUH(SAFARA+clauses)"
  | Pgi_like -> "PGI-like"

let all_profiles = [ Base; Safara_only; Small_only; Clauses_only; Full; Pgi_like ]

(* each profile is a declarative pipeline description: which clauses
   survive, whether/how SAFARA runs, and the arch deltas the modelled
   vendor implies — the pipeline elaborates and runs it *)
let desc_of_profile : profile -> Pipeline.desc = function
  | Base ->
      { Pipeline.d_name = "base"; d_keep_small = false; d_keep_dim = false;
        d_safara = None; d_read_only_cache = true }
  | Safara_only ->
      { Pipeline.d_name = "safara"; d_keep_small = false; d_keep_dim = false;
        d_safara = Some Pipeline.Feedback; d_read_only_cache = true }
  | Small_only ->
      { Pipeline.d_name = "small"; d_keep_small = true; d_keep_dim = false;
        d_safara = None; d_read_only_cache = true }
  | Clauses_only ->
      { Pipeline.d_name = "clauses"; d_keep_small = true; d_keep_dim = true;
        d_safara = None; d_read_only_cache = true }
  | Full ->
      { Pipeline.d_name = "full"; d_keep_small = true; d_keep_dim = true;
        d_safara = Some Pipeline.Feedback; d_read_only_cache = true }
  | Pgi_like ->
      (* a different vendor: ignores the proposed clauses and does not
         route loads through the read-only data cache *)
      { Pipeline.d_name = "pgi"; d_keep_small = false; d_keep_dim = false;
        d_safara = Some Pipeline.Exhaustive; d_read_only_cache = false }

let pipeline_signature ?safara_config ?disable profile =
  Pipeline.signature ?safara_config ?disable (desc_of_profile profile)

(* ------------------------------------------------------------------ *)
(* Region memo                                                         *)
(* ------------------------------------------------------------------ *)

type memo = {
  m_tail : (Safara_vir.Kernel.t * Safara_ptxas.Assemble.report) Cache.t;
  m_candidates : Safara_analysis.Reuse.candidate list Cache.t;
}

let memo () =
  { m_tail = Cache.create ~name:"tail" ();
    m_candidates = Cache.create ~name:"candidates" () }

let tail_tag disable =
  Cache.key (Pipeline.tail_names, List.sort_uniq compare disable)

(* SAFARA's feedback is the tail under its own disable set *)
let feedback_tag = tail_tag Pipeline.feedback_options.Pipeline.o_disable

(* exactly what the tail and the candidate analysis read of one region
   besides their tag *)
let region_digest ~arch (prog : P.t) r =
  Cache.key (arch, prog.P.params, prog.P.arrays, r)

let compile_with ?(arch = Safara_gpu.Arch.default) ?latency ?safara_config
    ?(options = Pipeline.default_options) ?memo:m profile prog =
  let latency =
    match latency with
    | Some l -> l
    | None -> Safara_gpu.Latency.for_arch arch
  in
  let m = match m with Some m -> m | None -> memo () in
  let desc = desc_of_profile profile in
  let arch = Pipeline.effective_arch arch desc in
  (* the regions this compile has digested, by physical identity: a
     SAFARA round's candidate and feedback lookups share one digest,
     and the tail's key reuses the one of the region SAFARA left *)
  let digests = ref [] in
  let digest (p : P.t) r =
    match
      List.find_opt
        (fun (params, arrays, r', _) ->
          r' == r && params == p.P.params && arrays == p.P.arrays)
        !digests
    with
    | Some (_, _, _, d) -> d
    | None ->
        let d = region_digest ~arch p r in
        digests := (p.P.params, p.P.arrays, r, d) :: !digests;
        d
  in
  let base = Pass.make_ctx ~arch ~latency in
  let feedback p r =
    (snd
       (Cache.find_or_compute m.m_tail ~key:(feedback_tag ^ digest p r)
          (fun () -> Pipeline.feedback base p r)))
      .Safara_ptxas.Assemble.regs_used
  in
  (* the analysis reads the policy and the latency table besides the
     region; a compile uses one policy, so its tag is made once *)
  let tags = ref [] in
  let candidates policy p r =
    let tag =
      match List.assq_opt policy !tags with
      | Some t -> t
      | None ->
          let t = Cache.key (policy, latency) in
          tags := (policy, t) :: !tags;
          t
    in
    Cache.find_or_compute m.m_candidates ~key:(tag ^ digest p r) (fun () ->
        Safara_analysis.Reuse.candidates ~policy ~arch ~latency p r)
  in
  let ctx =
    { base with
      Pass.feedback = Some feedback;
      candidates = Some candidates }
  in
  let name = desc.Pipeline.d_name in
  let headed, trace =
    Pipeline.run ~options ~name ctx (Pipeline.head ?safara_config desc) prog
  in
  let tag = tail_tag options.Pipeline.o_disable in
  let kernels = Hashtbl.create 8 in
  let run_tail (trace : Pipeline.trace) missed =
    match
      Pipeline.run ~options ~name ctx Pipeline.tail
        { headed with P.regions = List.map snd missed }
    with
    | exception e ->
        List.iter (fun (key, _) -> Cache.release m.m_tail ~key) missed;
        raise e
    | final, t ->
        List.iter2
          (fun (key, _) (k, _, report) ->
            Cache.fill m.m_tail ~key (k, report);
            Hashtbl.replace kernels key (k, report))
          missed final.Pass.a_kernels;
        { trace with
          Pipeline.tr_reports = trace.Pipeline.tr_reports @ t.Pipeline.tr_reports;
          tr_dumps = trace.Pipeline.tr_dumps @ t.Pipeline.tr_dumps }
  in
  (* Claim every region without waiting, run the tail once over the
     ones the memo lacks and settle them, and only then wait for the
     regions another domain is compiling: a compile never waits while
     it owns unsettled keys. A wait that ends in ownership (the other
     compile failed) runs the tail again on those regions. *)
  let rec gather ~wait trace pending =
    let missed = ref [] and busy = ref [] in
    List.iter
      (fun (key, r) ->
        match Cache.claim ~wait m.m_tail ~key with
        | Cache.Hit k -> Hashtbl.replace kernels key k
        | Cache.Owned -> missed := (key, r) :: !missed
        | Cache.Busy -> busy := (key, r) :: !busy)
      pending;
    let missed = List.rev !missed and busy = List.rev !busy in
    let trace = if wait && missed = [] then trace else run_tail trace missed in
    if busy = [] then trace else gather ~wait:true trace busy
  in
  let keyed =
    List.map (fun r -> (tag ^ digest headed r, r)) headed.P.regions
  in
  let trace = gather ~wait:false trace keyed in
  ( {
      c_profile = profile;
      c_arch = arch;
      c_latency = latency;
      c_prog = headed;
      c_kernels = List.map (fun (key, _) -> Hashtbl.find kernels key) keyed;
      c_logs = ctx.Pass.logs;
    },
    trace )

let compile ?arch ?latency ?safara_config ?options profile prog =
  fst (compile_with ?arch ?latency ?safara_config ?options profile prog)

let compile_for_env ?arch ?latency profile ~scalars prog =
  let env =
    List.filter_map
      (fun (n, v) ->
        match v with Safara_sim.Value.I x -> Some (n, x) | _ -> None)
      scalars
  in
  (* per-region violation lists, concatenated once at the end *)
  let regions, violations =
    List.split
      (List.map
         (fun r -> Safara_transform.Clause_check.choose_version ~env prog r)
         prog.P.regions)
  in
  (compile ?arch ?latency profile { prog with P.regions }, List.concat violations)

let compile_src ?arch ?latency ?safara_config ?options profile src =
  compile ?arch ?latency ?safara_config ?options profile
    (Safara_lang.Frontend.compile src)

let report_of c name =
  match
    List.find_opt
      (fun (k, _) -> String.equal k.Safara_vir.Kernel.kname name)
      c.c_kernels
  with
  | Some (_, report) -> report
  | None -> invalid_arg ("no kernel named " ^ name)

let make_env ?fill c ~scalars =
  let int_env =
    List.filter_map
      (fun (name, v) ->
        match v with Safara_sim.Value.I n -> Some (name, n) | _ -> None)
      scalars
  in
  let mem = Safara_sim.Memory.create () in
  Safara_sim.Memory.alloc_program ?fill mem ~env:int_env c.c_prog;
  { Safara_sim.Interp.scalars; mem }

let run_functional ?counters ?pool c env =
  Safara_sim.Launch.run_functional ?counters ?pool ~prog:c.c_prog ~env
    (List.map fst c.c_kernels)

let run_functional_m ?counters ?pool c env =
  Safara_sim.Launch.run_functional_m ?counters ?pool ~prog:c.c_prog ~env
    (List.map fst c.c_kernels)

let time c env =
  Safara_sim.Launch.time_program ~arch:c.c_arch ~latency:c.c_latency
    ~prog:c.c_prog ~env c.c_kernels
