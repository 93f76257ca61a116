module C = Safara_core.Compiler

type speedup_row = { sr_id : string; sr_values : (string * float) list }
type norm_row = { nr_id : string; nr_values : (string * float) list }

type reg_row = {
  rr_kernel : string;
  rr_base : int;
  rr_small : int;
  rr_dim : int option;
  rr_saved : int;
}

(* Every experiment follows the same engine discipline: flatten the
   experiment into (workload × profile/config/arch) jobs, [Eval.warm]
   them through the domain pool (each distinct job compiles exactly
   once and each distinct artifact simulates exactly once, memoized by
   content-addressed key), then
   assemble and render the rows serially from cache hits — so parallel
   runs are byte-identical to serial ones. *)

let default_engine = lazy (Eval.create ())
let engine = function Some e -> e | None -> Lazy.force default_engine

let time ?eng ?arch profile (w : Workload.t) =
  Eval.total_ms (engine eng) (Eval.job ?arch profile w)

let warm_profiles ?arch eng profiles ws =
  Eval.warm eng
    (List.concat_map
       (fun w -> List.map (fun p -> Eval.job ?arch p w) profiles)
       ws)

(* ------------------------------------------------------------------ *)
(* Speedup figures                                                     *)
(* ------------------------------------------------------------------ *)

let speedups ?eng ?arch configs (w : Workload.t) =
  let base = time ?eng ?arch C.Base w in
  {
    sr_id = w.Workload.id;
    sr_values =
      List.map (fun (label, p) -> (label, base /. time ?eng ?arch p w)) configs;
  }

let speedup_figure ?eng ?arch configs ws =
  let eng = engine eng in
  warm_profiles ?arch eng (C.Base :: List.map snd configs) ws;
  List.map (speedups ~eng ?arch configs) ws

let fig7 ?eng ?arch () =
  speedup_figure ?eng ?arch [ ("SAFARA", C.Safara_only) ] Registry.spec

let cumulative_configs =
  [ ("small", C.Small_only); ("small+dim", C.Clauses_only);
    ("small+dim+SAFARA", C.Full) ]

let fig9 ?eng ?arch () =
  speedup_figure ?eng ?arch cumulative_configs Registry.spec

let fig10 ?eng ?arch () =
  speedup_figure ?eng ?arch cumulative_configs Registry.npb

(* ------------------------------------------------------------------ *)
(* Normalized-time figures (paper §V.C)                                *)
(* ------------------------------------------------------------------ *)

let norm_profiles = [ C.Base; C.Safara_only; C.Full; C.Pgi_like ]

let norm_row ?eng ?arch (w : Workload.t) =
  let openuh_base = time ?eng ?arch C.Base w in
  let openuh_safara = time ?eng ?arch C.Safara_only w in
  let openuh_full = time ?eng ?arch C.Full w in
  let pgi = time ?eng ?arch C.Pgi_like w in
  (* Norm(c) = ExeTime(c) / max(ExeTime(best OpenUH), ExeTime(PGI)) *)
  let denom = Float.max openuh_base pgi in
  {
    nr_id = w.Workload.id;
    nr_values =
      [
        ("OpenUH(base)", openuh_base /. denom);
        ("OpenUH(SAFARA)", openuh_safara /. denom);
        ("OpenUH(SAFARA+clauses)", openuh_full /. denom);
        ("PGI", pgi /. denom);
      ];
  }

let norm_figure ?eng ?arch ws =
  let eng = engine eng in
  warm_profiles ?arch eng norm_profiles ws;
  List.map (norm_row ~eng ?arch) ws

let fig11 ?eng ?arch () = norm_figure ?eng ?arch Registry.spec
let fig12 ?eng ?arch () = norm_figure ?eng ?arch Registry.npb

(* ------------------------------------------------------------------ *)
(* Register tables                                                     *)
(* ------------------------------------------------------------------ *)

let reg_table ?eng ?arch (w : Workload.t) kernels ~dim_na =
  let eng = engine eng in
  let profiles = [ C.Base; C.Small_only; C.Clauses_only ] in
  Eval.warm_compiled eng (List.map (fun p -> Eval.job ?arch p w) profiles);
  let compiled p = Eval.compiled eng (Eval.job ?arch p w) in
  let cb = compiled C.Base and cs = compiled C.Small_only and cd = compiled C.Clauses_only in
  let regs c k = (C.report_of c k).Safara_ptxas.Assemble.regs_used in
  List.mapi
    (fun i k ->
      let base = regs cb k and small = regs cs k in
      let dim = if List.mem k dim_na then None else Some (regs cd k) in
      {
        rr_kernel = Printf.sprintf "HOT%d" (i + 1);
        rr_base = base;
        rr_small = small;
        rr_dim = dim;
        rr_saved = base - Option.value dim ~default:small;
      })
    kernels

let table1 ?eng ?arch () =
  reg_table ?eng ?arch Spec_seismic.workload Spec_seismic.hot_kernels
    ~dim_na:[]

let table2 ?eng ?arch () =
  reg_table ?eng ?arch Spec_sp.workload Spec_sp.hot_kernels
    ~dim_na:Spec_sp.dim_na

(* ------------------------------------------------------------------ *)
(* §IV.A offset example                                                *)
(* ------------------------------------------------------------------ *)

type offsets_demo = {
  od_config : string;
  od_dope_loads : int;
  od_offset_instrs : int;
  od_regs : int;
}

let fig8_kernel ~small ~dim =
  Printf.sprintf
    {|
param int nx;
param int ny;
param int nz;
param double h;
double vz_1[1:nz][1:ny][1:nx];
double vz_2[1:nz][1:ny][1:nx];
double vz_3[1:nz][1:ny][1:nx];
out double value_dz[1:nz][1:ny][1:nx];
#pragma acc kernels name(k) %s %s
{
  #pragma acc loop gang vector(2)
  for (j = 2; j <= ny - 1; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx; i++) {
      #pragma acc loop seq
      for (k = 2; k <= nz - 1; k++) {
        value_dz[k][j][i] = (vz_1[k][j][i] - vz_1[k-1][j][i]) / h
                          + (vz_2[k][j][i] - vz_2[k-1][j][i]) / h
                          + (vz_3[k][j][i] - vz_3[k-1][j][i]) / h;
      }
    }
  }
}
|}
    (if dim then "dim((vz_1, vz_2, vz_3, value_dz))" else "")
    (if small then "small(vz_1, vz_2, vz_3, value_dz)" else "")

let offset_variants =
  [
    ("base (64-bit offsets, per-array dope)", false, false);
    ("+small (32-bit offsets)", true, false);
    ("+dim (shared dope/offsets)", false, true);
    ("+small +dim", true, true);
  ]

let offsets ?eng ?arch () =
  let eng = engine eng in
  Eval.map eng
    (fun (_, small, dim) ->
      ignore
        (Eval.compile_src eng ?arch C.Clauses_only (fig8_kernel ~small ~dim)))
    offset_variants
  |> ignore;
  List.map
    (fun (label, small, dim) ->
      let c =
        Eval.compile_src eng ?arch C.Clauses_only (fig8_kernel ~small ~dim)
      in
      let k, report = List.hd c.C.c_kernels in
      let dope_loads =
        Safara_vir.Kernel.count_instr k ~f:(function
          | Safara_vir.Instr.Ldp { param; _ } ->
              (* descriptor fields have ".len"/".lo" in the name *)
              let has sub =
                let n = String.length sub in
                let rec go i =
                  i + n <= String.length param
                  && (String.sub param i n = sub || go (i + 1))
                in
                go 0
              in
              has ".len" || has ".lo"
          | _ -> false)
      in
      {
        od_config = label;
        od_dope_loads = dope_loads;
        od_offset_instrs = report.Safara_ptxas.Assemble.instructions;
        od_regs = report.Safara_ptxas.Assemble.regs_used;
      })
    offset_variants

(* ------------------------------------------------------------------ *)
(* Cross-architecture extension                                        *)
(* ------------------------------------------------------------------ *)

type crossarch_row = { ca_id : string; ca_values : (string * float) list }

let crossarch_benchmarks =
  [ "303.ostencil"; "314.omriq"; "355.seismic"; "370.bt"; "SP"; "LU" ]

let crossarch ?eng ?(archs = Safara_gpu.Arch.registry) () =
  let eng = engine eng in
  let ws = List.map Registry.find crossarch_benchmarks in
  Eval.warm eng
    (List.concat_map
       (fun w ->
         List.concat_map
           (fun arch ->
             [ Eval.job ~arch C.Base w; Eval.job ~arch C.Full w ])
           archs)
       ws);
  let speedup_on arch (w : Workload.t) =
    let run profile = Eval.total_ms eng (Eval.job ~arch profile w) in
    run C.Base /. run C.Full
  in
  List.map
    (fun (w : Workload.t) ->
      {
        ca_id = w.Workload.id;
        ca_values =
          List.map
            (fun (arch : Safara_gpu.Arch.t) ->
              (arch.Safara_gpu.Arch.key, speedup_on arch w))
            archs;
      })
    ws

let render_crossarch rows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "Extension: Full-stack speedup across the architecture registry\n";
  Buffer.add_string b
    "(each column re-prices the cost model and register limits)\n";
  Buffer.add_string b
    "--------------------------------------------------------------\n";
  (match rows with
  | [] -> ()
  | first :: _ ->
      Buffer.add_string b
        (Printf.sprintf "%-16s %s\n" "benchmark"
           (String.concat " "
              (List.map (fun (k, _) -> Printf.sprintf "%10s" k)
                 first.ca_values)));
      List.iter
        (fun r ->
          Buffer.add_string b
            (Printf.sprintf "%-16s %s\n" r.ca_id
               (String.concat " "
                  (List.map
                     (fun (_, v) -> Printf.sprintf "%9.2fx" v)
                     r.ca_values))))
        rows);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Future-work extension: unrolling x SAFARA (paper VII)               *)
(* ------------------------------------------------------------------ *)

type unroll_row = {
  ur_id : string;
  ur_speedups : (int * float) list;
  ur_regs : (int * int) list;
}

let unroll_benchmarks = [ "303.ostencil"; "355.seismic"; "SP"; "370.bt" ]

let unroll_study ?eng ?arch () =
  let eng = engine eng in
  let factors = [ 1; 2; 4 ] in
  let ws = List.map Registry.find unroll_benchmarks in
  Eval.warm eng
    (List.concat_map
       (fun w -> List.map (fun f -> Eval.job ?arch ~unroll:f C.Full w) factors)
       ws);
  List.map
    (fun (w : Workload.t) ->
      let measure factor =
        let j = Eval.job ?arch ~unroll:factor C.Full w in
        let c = Eval.compiled eng j in
        let ms = Eval.total_ms eng j in
        let regs =
          List.fold_left
            (fun acc (_, r) -> max acc r.Safara_ptxas.Assemble.regs_used)
            0 c.C.c_kernels
        in
        (ms, regs)
      in
      let base_ms, base_regs = measure 1 in
      let rows =
        List.map
          (fun f ->
            if f = 1 then ((f, 1.0), (f, base_regs))
            else
              let ms, regs = measure f in
              ((f, base_ms /. ms), (f, regs)))
          factors
      in
      {
        ur_id = w.Workload.id;
        ur_speedups = List.map fst rows;
        ur_regs = List.map snd rows;
      })
    ws

let render_unroll rows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "Extension (paper section VII future work): inner-loop unrolling on top of Full
";
  Buffer.add_string b
    "(speedup vs unroll=1; max kernel registers in parentheses)
";
  Buffer.add_string b
    "------------------------------------------------------------------------
";
  Buffer.add_string b (Printf.sprintf "%-16s %14s %14s %14s
" "benchmark" "u=1" "u=2" "u=4");
  List.iter
    (fun r ->
      Buffer.add_string b (Printf.sprintf "%-16s" r.ur_id);
      List.iter
        (fun (f, s) ->
          let regs = List.assoc f r.ur_regs in
          Buffer.add_string b (Printf.sprintf "  %6.2fx (%3d)" s regs))
        r.ur_speedups;
      Buffer.add_char b '
')
    rows;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

type ablation_row = {
  ab_name : string;
  ab_description : string;
  ab_speedups : (string * float) list;
}

let ablation_benchmarks =
  [ "355.seismic"; "356.sp"; "314.omriq"; "SP"; "370.bt" ]

let time_with_config ?eng ?arch config (w : Workload.t) =
  Eval.total_ms (engine eng) (Eval.job ?arch ~safara_config:config C.Full w)

let ablation_configs arch =
  let default_config = Safara_transform.Safara.default_config ~arch in
  let tight_config =
    { default_config with Safara_transform.Safara.reg_cap = 48 }
  in
  let variants =
    [
      { default_config with Safara_transform.Safara.cost_model = `Count_only };
      { tight_config with Safara_transform.Safara.cost_model = `Count_only };
      { default_config with Safara_transform.Safara.use_feedback = false;
        assumed_free_regs = 16 };
      { default_config with
        Safara_transform.Safara.policy =
          { Safara_analysis.Reuse.default_policy with
            Safara_analysis.Reuse.skip_coalesced_read_only = true } };
      { default_config with
        Safara_transform.Safara.policy =
          { Safara_analysis.Reuse.default_policy with
            Safara_analysis.Reuse.allow_inter = false } };
      { default_config with
        Safara_transform.Safara.policy =
          { Safara_analysis.Reuse.default_policy with
            Safara_analysis.Reuse.allow_promote = false } };
    ]
  in
  (default_config, tight_config, variants)

let ablations ?eng ?(arch = Safara_gpu.Arch.default) () =
  let eng = engine eng in
  let default_config, tight_config, ablation_variant_configs =
    ablation_configs arch
  in
  Eval.warm eng
    (List.concat_map
       (fun config ->
         List.map
           (fun id ->
             Eval.job ~arch ~safara_config:config C.Full (Registry.find id))
           ablation_benchmarks)
       (default_config :: tight_config :: ablation_variant_configs));
  let bench_rows variant_config =
    List.map
      (fun id ->
        let w = Registry.find id in
        let def = time_with_config ~eng ~arch default_config w in
        let abl = time_with_config ~eng ~arch variant_config w in
        (id, abl /. def))
      ablation_benchmarks
  in
  [
    {
      ab_name = "cost model: count-only";
      ab_description =
        "rank candidates by reference count alone (the Carr-Kennedy \
         metric the paper criticizes in III.A.2) instead of C x L";
      ab_speedups =
        bench_rows { default_config with Safara_transform.Safara.cost_model = `Count_only };
    };
    {
      ab_name = "cost model: count-only under a 48-register budget";
      ab_description =
        "same, but with the per-thread budget capped at 48 registers, \
         the regime of the paper's III.B.4 running example where \
         candidate selection actually has to choose";
      ab_speedups =
        (List.map
           (fun id ->
             let w = Registry.find id in
             let def = time_with_config ~eng ~arch tight_config w in
             let abl =
               time_with_config ~eng ~arch
                 { tight_config with
                   Safara_transform.Safara.cost_model = `Count_only }
                 w
             in
             (id, abl /. def))
           ablation_benchmarks);
    };
    {
      ab_name = "no ptxas feedback";
      ab_description =
        "replace the measured register count with a fixed 16-register \
         estimate (single-shot, paper III.B.2 ablated)";
      ab_speedups =
        bench_rows
          { default_config with Safara_transform.Safara.use_feedback = false;
            assumed_free_regs = 16 };
    };
    {
      ab_name = "skip coalesced read-only candidates";
      ab_description =
        "drop candidates served coalesced by the read-only cache (the \
         VI refinement; helps the seismic-like overuse cases)";
      ab_speedups =
        bench_rows
          { default_config with
            Safara_transform.Safara.policy =
              { Safara_analysis.Reuse.default_policy with
                Safara_analysis.Reuse.skip_coalesced_read_only = true } };
    };
    {
      ab_name = "no rotating chains";
      ab_description =
        "disable inter-iteration replacement entirely (intra and \
         promotion only)";
      ab_speedups =
        bench_rows
          { default_config with
            Safara_transform.Safara.policy =
              { Safara_analysis.Reuse.default_policy with
                Safara_analysis.Reuse.allow_inter = false } };
    };
    {
      ab_name = "no register promotion";
      ab_description = "disable loop-invariant promotion (accumulators stay in memory)";
      ab_speedups =
        bench_rows
          { default_config with
            Safara_transform.Safara.policy =
              { Safara_analysis.Reuse.default_policy with
                Safara_analysis.Reuse.allow_promote = false } };
    };
  ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let geomean values =
  match values with
  | [] -> 1.
  | _ ->
      exp
        (List.fold_left (fun acc v -> acc +. log (Float.max v 1e-9)) 0. values
        /. float_of_int (List.length values))

let average rows =
  match rows with
  | [] -> { sr_id = "Average"; sr_values = [] }
  | first :: _ ->
      {
        sr_id = "Average";
        sr_values =
          List.map
            (fun (label, _) ->
              ( label,
                geomean
                  (List.map (fun r -> List.assoc label r.sr_values) rows) ))
            first.sr_values;
      }

let buf_table title header rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b (title ^ "\n");
  Buffer.add_string b (String.make (String.length title) '-' ^ "\n");
  Buffer.add_string b (header ^ "\n");
  List.iter (fun r -> Buffer.add_string b (r ^ "\n")) rows;
  Buffer.contents b

let render_speedups ~title rows =
  let rows = rows @ [ average rows ] in
  match rows with
  | [] -> title ^ ": (empty)\n"
  | first :: _ ->
      let labels = List.map fst first.sr_values in
      buf_table title
        (Printf.sprintf "%-16s %s" "benchmark"
           (String.concat " " (List.map (Printf.sprintf "%18s") labels)))
        (List.map
           (fun r ->
             Printf.sprintf "%-16s %s" r.sr_id
               (String.concat " "
                  (List.map
                     (fun l -> Printf.sprintf "%17.2fx" (List.assoc l r.sr_values))
                     labels)))
           rows)

let render_norms ~title rows =
  match rows with
  | [] -> title ^ ": (empty)\n"
  | first :: _ ->
      let labels = List.map fst first.nr_values in
      buf_table title
        (Printf.sprintf "%-16s %s" "benchmark"
           (String.concat " " (List.map (Printf.sprintf "%22s") labels)))
        (List.map
           (fun r ->
             Printf.sprintf "%-16s %s" r.nr_id
               (String.concat " "
                  (List.map
                     (fun l -> Printf.sprintf "%22.3f" (List.assoc l r.nr_values))
                     labels)))
           rows)

let render_regs ~title rows =
  buf_table title
    (Printf.sprintf "%-8s %8s %8s %8s %8s" "Kernel" "Base" "+small" "w dim" "Saved")
    (List.map
       (fun r ->
         Printf.sprintf "%-8s %8d %8d %8s %8d" r.rr_kernel r.rr_base r.rr_small
           (match r.rr_dim with Some d -> string_of_int d | None -> "NA")
           r.rr_saved)
       rows)

let render_offsets rows =
  buf_table "IV.A offset computation on the Fig-8 kernel"
    (Printf.sprintf "%-40s %12s %12s %8s" "configuration" "dope loads" "instructions" "regs")
    (List.map
       (fun r ->
         Printf.sprintf "%-40s %12d %12d %8d" r.od_config r.od_dope_loads
           r.od_offset_instrs r.od_regs)
       rows)

let render_ablations rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "Design-choice ablations (slowdown of the ablated variant vs full SAFARA)\n";
  Buffer.add_string b "--------------------------------------------------------------------------\n";
  List.iter
    (fun r ->
      Buffer.add_string b (Printf.sprintf "%s: %s\n" r.ab_name r.ab_description);
      List.iter
        (fun (id, s) -> Buffer.add_string b (Printf.sprintf "    %-16s %6.2fx\n" id s))
        r.ab_speedups)
    rows;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The evaluation report: every table, in [bench all] order            *)
(* ------------------------------------------------------------------ *)

(* every experiment title carries the architecture it was measured on
   when it is not the paper's default, so mixed-arch logs stay
   readable *)
let arch_suffix (arch : Safara_gpu.Arch.t) =
  if arch.Safara_gpu.Arch.key = Safara_gpu.Arch.default.Safara_gpu.Arch.key
  then ""
  else Printf.sprintf " [arch %s]" arch.Safara_gpu.Arch.key

let sections =
  let t title arch = title ^ arch_suffix arch in
  [
    ( "table1",
      fun ~eng ~arch ->
        render_regs
          ~title:(t "Table I: 355.seismic register usage via small and dim clauses" arch)
          (table1 ~eng ~arch ()) );
    ( "table2",
      fun ~eng ~arch ->
        render_regs
          ~title:(t "Table II: 356.sp register usage via small and dim clauses" arch)
          (table2 ~eng ~arch ()) );
    ("offsets", fun ~eng ~arch -> render_offsets (offsets ~eng ~arch ()));
    ( "fig7",
      fun ~eng ~arch ->
        render_speedups
          ~title:(t "Figure 7: SPEC ACCEL speedup with SAFARA alone (vs OpenUH base)" arch)
          (fig7 ~eng ~arch ()) );
    ( "fig9",
      fun ~eng ~arch ->
        render_speedups
          ~title:
            (t
               "Figure 9: SPEC ACCEL speedup, cumulative small / small+dim / small+dim+SAFARA"
               arch)
          (fig9 ~eng ~arch ()) );
    ( "fig10",
      fun ~eng ~arch ->
        render_speedups
          ~title:
            (t "Figure 10: NAS speedup, cumulative small / small+dim / small+dim+SAFARA"
               arch)
          (fig10 ~eng ~arch ()) );
    ( "fig11",
      fun ~eng ~arch ->
        render_norms
          ~title:
            (t
               "Figure 11: SPEC normalized execution time, OpenUH vs PGI-like (lower is better)"
               arch)
          (fig11 ~eng ~arch ()) );
    ( "fig12",
      fun ~eng ~arch ->
        render_norms
          ~title:
            (t
               "Figure 12: NAS normalized execution time, OpenUH vs PGI-like (lower is better)"
               arch)
          (fig12 ~eng ~arch ()) );
    ("ablations", fun ~eng ~arch -> render_ablations (ablations ~eng ~arch ()));
    ("crossarch", fun ~eng ~arch:_ -> render_crossarch (crossarch ~eng ()));
    ("unroll", fun ~eng ~arch -> render_unroll (unroll_study ~eng ~arch ()));
  ]

let section name = List.assoc_opt name sections

let report ~eng ~arch =
  Printf.sprintf
    "SAFARA reproduction evaluation — %s, latency table '%s'\n\
     profiles: base / SAFARA / small / small+dim / full(small+dim+SAFARA) / PGI-like\n\
     deterministic: fixed workload seeds, no simulator randomness\n\n"
    arch.Safara_gpu.Arch.name arch.Safara_gpu.Arch.key
  ^ String.concat "" (List.map (fun (_, f) -> f ~eng ~arch ^ "\n") sections)
