module C = Safara_core.Compiler
module Arch = Safara_gpu.Arch
module Sjson = Safara_json.Sjson

type speedup_row = { sr_id : string; sr_values : (string * float) list }
type norm_row = { nr_id : string; nr_values : (string * float) list }

type reg_row = {
  rr_kernel : string;
  rr_base : int;
  rr_small : int;
  rr_dim : int option;
  rr_saved : int;
  rr_dim_default : int option;
}

(* Every experiment follows the same engine discipline: flatten the
   experiment into (workload × profile/config/arch) jobs, [Eval.warm]
   them through the domain pool (each distinct job compiles exactly
   once and each distinct artifact simulates exactly once, memoized by
   content-addressed key), then
   assemble and render the rows serially from cache hits — so parallel
   runs are byte-identical to serial ones.

   Every job compiles under the paper's pass configuration ([paper]).
   Only the "default pipeline" extension columns and the loop-pass
   section pass [default_pipeline]: the disable set is part of each
   compile key, so the two configurations never share an artifact. *)

let paper = Safara_core.Pipeline.paper_options.Safara_core.Pipeline.o_disable
let default_pipeline = []

let time ~eng ~arch ?(disable = paper) profile w =
  Eval.total_ms eng (Eval.job ~arch ~disable profile w)

(* ------------------------------------------------------------------ *)
(* Speedup figures                                                     *)
(* ------------------------------------------------------------------ *)

(* A column is (label, profile, disable set); its speedup is against
   [Base] compiled under the same disable set. *)
let speedup_figure ~eng ~arch columns ws =
  let points =
    List.sort_uniq compare
      (List.concat_map (fun (_, p, d) -> [ (C.Base, d); (p, d) ]) columns)
  in
  Eval.warm eng
    (List.concat_map
       (fun w ->
         List.map (fun (p, disable) -> Eval.job ~arch ~disable p w) points)
       ws);
  List.map
    (fun (w : Workload.t) ->
      let time = time ~eng ~arch in
      {
        sr_id = w.Workload.id;
        sr_values =
          List.map
            (fun (label, p, disable) ->
              (label, time ~disable C.Base w /. time ~disable p w))
            columns;
      })
    ws

let fig7 ~eng ~arch =
  speedup_figure ~eng ~arch
    [ ("SAFARA", C.Safara_only, paper);
      ("SAFARA (default pipeline)", C.Safara_only, default_pipeline) ]
    Registry.spec

let cumulative_columns =
  [ ("small", C.Small_only, paper); ("small+dim", C.Clauses_only, paper);
    ("small+dim+SAFARA", C.Full, paper) ]

let fig9 ~eng ~arch = speedup_figure ~eng ~arch cumulative_columns Registry.spec
let fig10 ~eng ~arch = speedup_figure ~eng ~arch cumulative_columns Registry.npb

(* ------------------------------------------------------------------ *)
(* Normalized-time figures (paper §V.C)                                *)
(* ------------------------------------------------------------------ *)

let norm_columns =
  [ ("OpenUH(base)", C.Base); ("OpenUH(SAFARA)", C.Safara_only);
    ("OpenUH(SAFARA+clauses)", C.Full); ("PGI", C.Pgi_like) ]

let norm_figure ~eng ~arch ws =
  Eval.warm eng
    (List.concat_map
       (fun w ->
         List.map (fun (_, p) -> Eval.job ~arch ~disable:paper p w) norm_columns)
       ws);
  List.map
    (fun (w : Workload.t) ->
      let time p = time ~eng ~arch p w in
      (* Norm(c) = ExeTime(c) / max(ExeTime(best OpenUH), ExeTime(PGI)) *)
      let denom = Float.max (time C.Base) (time C.Pgi_like) in
      {
        nr_id = w.Workload.id;
        nr_values = List.map (fun (label, p) -> (label, time p /. denom)) norm_columns;
      })
    ws

let fig11 ~eng ~arch = norm_figure ~eng ~arch Registry.spec
let fig12 ~eng ~arch = norm_figure ~eng ~arch Registry.npb

(* ------------------------------------------------------------------ *)
(* Register tables                                                     *)
(* ------------------------------------------------------------------ *)

let reg_table ~eng ~arch (w : Workload.t) kernels ~dim_na =
  let job ?(disable = paper) p = Eval.job ~arch ~disable p w in
  let base = job C.Base and small = job C.Small_only
  and dim = job C.Clauses_only
  and dim_default = job ~disable:default_pipeline C.Clauses_only in
  Eval.warm_compiled eng [ base; small; dim; dim_default ];
  let regs j k =
    (C.report_of (Eval.compiled eng j) k).Safara_ptxas.Assemble.regs_used
  in
  let dim_regs j k = if List.mem k dim_na then None else Some (regs j k) in
  List.mapi
    (fun i k ->
      let d = dim_regs dim k in
      {
        rr_kernel = Printf.sprintf "HOT%d" (i + 1);
        rr_base = regs base k;
        rr_small = regs small k;
        rr_dim = d;
        rr_saved = regs base k - Option.value d ~default:(regs small k);
        rr_dim_default = dim_regs dim_default k;
      })
    kernels

let table1 ~eng ~arch =
  reg_table ~eng ~arch Spec_seismic.workload Spec_seismic.hot_kernels
    ~dim_na:[]

let table2 ~eng ~arch =
  reg_table ~eng ~arch Spec_sp.workload Spec_sp.hot_kernels
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

(* descriptor fields have ".len"/".lo" in the name *)
let is_dope_load = function
  | Safara_vir.Instr.Ldp { param; _ } ->
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length param
          && (String.sub param i n = sub || go (i + 1))
        in
        go 0
      in
      has ".len" || has ".lo"
  | _ -> false

let offsets ~eng ~arch =
  Eval.map eng
    (fun (label, small, dim) ->
      let c =
        Eval.compile_src eng ~arch ~disable:paper C.Clauses_only
          (fig8_kernel ~small ~dim)
      in
      let k, report = List.hd c.C.c_kernels in
      {
        od_config = label;
        od_dope_loads = Safara_vir.Kernel.count_instr k ~f:is_dope_load;
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

let crossarch ~eng ~archs =
  let ws = List.map Registry.find crossarch_benchmarks in
  Eval.warm eng
    (List.concat_map
       (fun w ->
         List.concat_map
           (fun arch ->
             [ Eval.job ~arch ~disable:paper C.Base w;
               Eval.job ~arch ~disable:paper C.Full w ])
           archs)
       ws);
  List.map
    (fun (w : Workload.t) ->
      {
        ca_id = w.Workload.id;
        ca_values =
          List.map
            (fun (arch : Arch.t) ->
              ( arch.Arch.key,
                time ~eng ~arch C.Base w /. time ~eng ~arch C.Full w ))
            archs;
      })
    ws

(* ------------------------------------------------------------------ *)
(* Future-work extension: unrolling x SAFARA (paper VII)               *)
(* ------------------------------------------------------------------ *)

type unroll_row = {
  ur_id : string;
  ur_speedups : (int * float) list;
  ur_regs : (int * int) list;
}

let unroll_benchmarks = [ "303.ostencil"; "355.seismic"; "SP"; "370.bt" ]
let unroll_factors = [ 1; 2; 4 ]

let unroll_study ~eng ~arch =
  let ws = List.map Registry.find unroll_benchmarks in
  let job w f = Eval.job ~arch ~unroll:f ~disable:paper C.Full w in
  Eval.warm eng
    (List.concat_map (fun w -> List.map (job w) unroll_factors) ws);
  List.map
    (fun (w : Workload.t) ->
      let measure f =
        let j = job w f in
        let regs =
          List.fold_left
            (fun acc (_, r) -> max acc r.Safara_ptxas.Assemble.regs_used)
            0 (Eval.compiled eng j).C.c_kernels
        in
        (Eval.total_ms eng j, regs)
      in
      let rows = List.map (fun f -> (f, measure f)) unroll_factors in
      let base_ms = fst (List.assoc 1 rows) in
      {
        ur_id = w.Workload.id;
        ur_speedups = List.map (fun (f, (ms, _)) -> (f, base_ms /. ms)) rows;
        ur_regs = List.map (fun (f, (_, regs)) -> (f, regs)) rows;
      })
    ws

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

(* each ablation: name, description, the reference config and the
   ablated variant, both timed under [Full] *)
let ablation_specs arch =
  let module S = Safara_transform.Safara in
  let module R = Safara_analysis.Reuse in
  let def = S.default_config ~arch in
  let tight = { def with S.reg_cap = 48 } in
  let policy p = { def with S.policy = p } in
  [
    ( "cost model: count-only",
      "rank candidates by reference count alone (the Carr-Kennedy \
       metric the paper criticizes in III.A.2) instead of C x L",
      def, { def with S.cost_model = `Count_only } );
    ( "cost model: count-only under a 48-register budget",
      "same, but with the per-thread budget capped at 48 registers, \
       the regime of the paper's III.B.4 running example where \
       candidate selection actually has to choose",
      tight, { tight with S.cost_model = `Count_only } );
    ( "no ptxas feedback",
      "replace the measured register count with a fixed 16-register \
       estimate (single-shot, paper III.B.2 ablated)",
      def, { def with S.use_feedback = false; assumed_free_regs = 16 } );
    ( "skip coalesced read-only candidates",
      "drop candidates served coalesced by the read-only cache (the \
       VI refinement; helps the seismic-like overuse cases)",
      def, policy { R.default_policy with R.skip_coalesced_read_only = true } );
    ( "no rotating chains",
      "disable inter-iteration replacement entirely (intra and \
       promotion only)",
      def, policy { R.default_policy with R.allow_inter = false } );
    ( "no register promotion",
      "disable loop-invariant promotion (accumulators stay in memory)",
      def, policy { R.default_policy with R.allow_promote = false } );
  ]

let ablations ~eng ~arch =
  let specs = ablation_specs arch in
  let job config id =
    Eval.job ~arch ~safara_config:config ~disable:paper C.Full
      (Registry.find id)
  in
  Eval.warm eng
    (List.concat_map
       (fun (_, _, reference, variant) ->
         List.concat_map
           (fun id -> [ job reference id; job variant id ])
           ablation_benchmarks)
       specs);
  List.map
    (fun (name, description, reference, variant) ->
      {
        ab_name = name;
        ab_description = description;
        ab_speedups =
          List.map
            (fun id ->
              ( id,
                Eval.total_ms eng (job variant id)
                /. Eval.total_ms eng (job reference id) ))
            ablation_benchmarks;
      })
    specs

(* ------------------------------------------------------------------ *)
(* Loop-aware passes: Base under the default pipeline vs the paper's   *)
(* ------------------------------------------------------------------ *)

type loopopt_kernel = {
  lk_kernel : string;
  lk_ops_with : int;
  lk_ops_without : int;
}

type loopopt_row = {
  lo_id : string;
  lo_arch : string;
  lo_ms_with : float;
  lo_ms_without : float;
  lo_kernels : loopopt_kernel list;
}

let loopopt_benchmarks = [ "303.ostencil"; "360.ilbdc"; "350.md"; "364.umesh" ]

let loopopt ~eng ~archs =
  let ws = List.map Registry.find loopopt_benchmarks in
  let job_with arch w = Eval.job ~arch ~disable:default_pipeline C.Base w in
  let job_without arch w = Eval.job ~arch ~disable:paper C.Base w in
  Eval.warm eng
    (List.concat_map
       (fun w -> List.concat_map (fun a -> [ job_with a w; job_without a w ]) archs)
       ws);
  let hot_loop_ops ((k : Safara_vir.Kernel.t), _) =
    Safara_vir.Facts.hot_loop_ops
      (Safara_vir.Facts.make k.Safara_vir.Kernel.code)
  in
  List.concat_map
    (fun (w : Workload.t) ->
      List.map
        (fun (arch : Arch.t) ->
          let on = Eval.compiled eng (job_with arch w)
          and off = Eval.compiled eng (job_without arch w) in
          {
            lo_id = w.Workload.id;
            lo_arch = arch.Arch.key;
            lo_ms_with = Eval.total_ms eng (job_with arch w);
            lo_ms_without = Eval.total_ms eng (job_without arch w);
            lo_kernels =
              List.map2
                (fun kon koff ->
                  {
                    lk_kernel = (fst kon).Safara_vir.Kernel.kname;
                    lk_ops_with = hot_loop_ops kon;
                    lk_ops_without = hot_loop_ops koff;
                  })
                on.C.c_kernels off.C.c_kernels;
          })
        archs)
    ws

(* ------------------------------------------------------------------ *)
(* The evaluation                                                      *)
(* ------------------------------------------------------------------ *)

type t = {
  arch : Arch.t;
  table1 : reg_row list;
  table2 : reg_row list;
  offsets : offsets_demo list;
  fig7 : speedup_row list;
  fig9 : speedup_row list;
  fig10 : speedup_row list;
  fig11 : norm_row list;
  fig12 : norm_row list;
  ablations : ablation_row list;
  crossarch : crossarch_row list;
  unroll : unroll_row list;
  loopopt : loopopt_row list;
}

(* sequenced, so the engine sees the jobs in [bench all] order *)
let evaluate ~eng ~arch =
  let table1 = table1 ~eng ~arch in
  let table2 = table2 ~eng ~arch in
  let offsets = offsets ~eng ~arch in
  let fig7 = fig7 ~eng ~arch in
  let fig9 = fig9 ~eng ~arch in
  let fig10 = fig10 ~eng ~arch in
  let fig11 = fig11 ~eng ~arch in
  let fig12 = fig12 ~eng ~arch in
  let ablations = ablations ~eng ~arch in
  let crossarch = crossarch ~eng ~archs:Arch.registry in
  let unroll = unroll_study ~eng ~arch in
  let loopopt = loopopt ~eng ~archs:Arch.registry in
  { arch; table1; table2; offsets; fig7; fig9; fig10; fig11; fig12;
    ablations; crossarch; unroll; loopopt }

(* ------------------------------------------------------------------ *)
(* Text                                                                *)
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

(* the title underlined, then the lines *)
let buf_table title lines =
  String.concat "\n" (title :: String.make (String.length title) '-' :: lines)
  ^ "\n"

(* labeled columns at least [min] wide, wider for a longer label *)
let columns ~min ~cell labels =
  let width l = max min (String.length l) in
  ( String.concat " " (List.map (fun l -> Printf.sprintf "%*s" (width l) l) labels),
    fun values ->
      String.concat " " (List.map (fun l -> cell (width l) (List.assoc l values)) labels) )

let render_speedups ~title rows =
  let rows = rows @ [ average rows ] in
  match rows with
  | [] -> title ^ ": (empty)\n"
  | first :: _ ->
      let header, cells =
        columns ~min:18
          ~cell:(fun w v -> Printf.sprintf "%*.2fx" (w - 1) v)
          (List.map fst first.sr_values)
      in
      buf_table title
        (Printf.sprintf "%-16s %s" "benchmark" header
        :: List.map (fun r -> Printf.sprintf "%-16s %s" r.sr_id (cells r.sr_values)) rows)

let render_norms ~title rows =
  match rows with
  | [] -> title ^ ": (empty)\n"
  | first :: _ ->
      let header, cells =
        columns ~min:22
          ~cell:(fun w v -> Printf.sprintf "%*.3f" w v)
          (List.map fst first.nr_values)
      in
      buf_table title
        (Printf.sprintf "%-16s %s" "benchmark" header
        :: List.map (fun r -> Printf.sprintf "%-16s %s" r.nr_id (cells r.nr_values)) rows)

let render_regs ~title rows =
  let cell = function Some d -> string_of_int d | None -> "NA" in
  buf_table title
    (Printf.sprintf "%-8s %8s %8s %8s %8s %24s" "Kernel" "Base" "+small" "w dim"
       "Saved" "w dim (default pipeline)"
    :: List.map
         (fun r ->
           Printf.sprintf "%-8s %8d %8d %8s %8d %24s" r.rr_kernel r.rr_base
             r.rr_small (cell r.rr_dim) r.rr_saved (cell r.rr_dim_default))
         rows)

let render_offsets rows =
  buf_table "IV.A offset computation on the Fig-8 kernel"
    (Printf.sprintf "%-40s %12s %12s %8s" "configuration" "dope loads" "instructions" "regs"
    :: List.map
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

let render_unroll rows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "Extension (paper section VII future work): inner-loop unrolling on top of Full\n";
  Buffer.add_string b
    "(speedup vs unroll=1; max kernel registers in parentheses)\n";
  Buffer.add_string b
    "------------------------------------------------------------------------\n";
  Buffer.add_string b
    (Printf.sprintf "%-16s %14s %14s %14s\n" "benchmark" "u=1" "u=2" "u=4");
  List.iter
    (fun r ->
      Buffer.add_string b (Printf.sprintf "%-16s" r.ur_id);
      List.iter
        (fun (f, s) ->
          let regs = List.assoc f r.ur_regs in
          Buffer.add_string b (Printf.sprintf "  %6.2fx (%3d)" s regs))
        r.ur_speedups;
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let render_loopopt rows =
  buf_table
    (Printf.sprintf "Loop-aware passes (%s): Base profile before/after"
       (String.concat "+" paper))
    (List.concat_map
       (fun r ->
         Printf.sprintf "%-14s %-8s %9.3f ms -> %9.3f ms (%5.2fx)" r.lo_id
           r.lo_arch r.lo_ms_without r.lo_ms_with
           (r.lo_ms_without /. r.lo_ms_with)
         :: List.filter_map
              (fun k ->
                if k.lk_ops_with = k.lk_ops_without then None
                else
                  Some
                    (Printf.sprintf "    %-20s hot-loop ops %3d -> %3d"
                       k.lk_kernel k.lk_ops_without k.lk_ops_with))
              r.lo_kernels)
       rows)

(* every experiment title carries the architecture it was measured on
   when it is not the paper's default, so mixed-arch logs stay
   readable *)
let titled t title =
  if t.arch.Arch.key = Arch.default.Arch.key then title
  else Printf.sprintf "%s [arch %s]" title t.arch.Arch.key

let sections =
  [
    ( "table1",
      fun t ->
        render_regs
          ~title:(titled t "Table I: 355.seismic register usage via small and dim clauses")
          t.table1 );
    ( "table2",
      fun t ->
        render_regs
          ~title:(titled t "Table II: 356.sp register usage via small and dim clauses")
          t.table2 );
    ("offsets", fun t -> render_offsets t.offsets);
    ( "fig7",
      fun t ->
        render_speedups
          ~title:(titled t "Figure 7: SPEC ACCEL speedup with SAFARA alone (vs OpenUH base)")
          t.fig7 );
    ( "fig9",
      fun t ->
        render_speedups
          ~title:
            (titled t
               "Figure 9: SPEC ACCEL speedup, cumulative small / small+dim / small+dim+SAFARA")
          t.fig9 );
    ( "fig10",
      fun t ->
        render_speedups
          ~title:
            (titled t "Figure 10: NAS speedup, cumulative small / small+dim / small+dim+SAFARA")
          t.fig10 );
    ( "fig11",
      fun t ->
        render_norms
          ~title:
            (titled t
               "Figure 11: SPEC normalized execution time, OpenUH vs PGI-like (lower is better)")
          t.fig11 );
    ( "fig12",
      fun t ->
        render_norms
          ~title:
            (titled t
               "Figure 12: NAS normalized execution time, OpenUH vs PGI-like (lower is better)")
          t.fig12 );
    ("ablations", fun t -> render_ablations t.ablations);
    ("crossarch", fun t -> render_crossarch t.crossarch);
    ("unroll", fun t -> render_unroll t.unroll);
    ("loopopt", fun t -> render_loopopt t.loopopt);
  ]

let section_names = List.map fst sections

let section name = List.assoc_opt name sections

let to_text t =
  Printf.sprintf
    "SAFARA reproduction evaluation — %s, latency table '%s'\n\
     profiles: base / SAFARA / small / small+dim / full(small+dim+SAFARA) / PGI-like\n\
     pipeline: paper (%s off); \"default pipeline\" columns: all passes\n\
     deterministic: fixed workload seeds, no simulator randomness\n\n"
    t.arch.Arch.name t.arch.Arch.key (String.concat ", " paper)
  ^ String.concat "" (List.map (fun (_, render) -> render t ^ "\n") sections)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json t =
  let open Sjson in
  let floats kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs) in
  let opt_int = function Some d -> int d | None -> Null in
  let rows f l = Arr (List.map (fun r -> Obj (f r)) l) in
  let regs =
    rows (fun r ->
        [ ("kernel", Str r.rr_kernel); ("base", int r.rr_base);
          ("small", int r.rr_small); ("dim", opt_int r.rr_dim);
          ("saved", int r.rr_saved);
          ("dim_default_pipeline", opt_int r.rr_dim_default) ])
  in
  let speedups = rows (fun r -> [ ("id", Str r.sr_id); ("values", floats r.sr_values) ]) in
  let norms = rows (fun r -> [ ("id", Str r.nr_id); ("values", floats r.nr_values) ]) in
  let pairs f l = Arr (List.map (fun (k, v) -> Arr [ int k; f v ]) l) in
  Obj
    [ ("arch", Str t.arch.Arch.name);
      ("arch_key", Str t.arch.Arch.key);
      ("pipeline", Obj [ ("name", Str "paper");
                         ("disabled", Arr (List.map str paper)) ]);
      ("table1", regs t.table1);
      ("table2", regs t.table2);
      ( "offsets",
        rows
          (fun r ->
            [ ("config", Str r.od_config); ("dope_loads", int r.od_dope_loads);
              ("instructions", int r.od_offset_instrs); ("regs", int r.od_regs) ])
          t.offsets );
      ("fig7", speedups t.fig7);
      ("fig9", speedups t.fig9);
      ("fig10", speedups t.fig10);
      ("fig11", norms t.fig11);
      ("fig12", norms t.fig12);
      ( "ablations",
        rows
          (fun r ->
            [ ("name", Str r.ab_name); ("description", Str r.ab_description);
              ("slowdowns", floats r.ab_speedups) ])
          t.ablations );
      (* the one inherently multi-arch figure: per-arch speedups keyed
         by registry name *)
      ( "crossarch",
        rows (fun r -> [ ("id", Str r.ca_id); ("speedups", floats r.ca_values) ])
          t.crossarch );
      ( "unroll",
        rows
          (fun r ->
            [ ("id", Str r.ur_id); ("speedups", pairs num r.ur_speedups);
              ("regs", pairs int r.ur_regs) ])
          t.unroll );
      ( "loopopt",
        rows
          (fun r ->
            [ ("id", Str r.lo_id); ("arch", Str r.lo_arch);
              ("ms_with_passes", Num r.lo_ms_with);
              ("ms_without", Num r.lo_ms_without);
              ("speedup", Num (r.lo_ms_without /. r.lo_ms_with));
              ( "kernels",
                rows
                  (fun k ->
                    [ ("kernel", Str k.lk_kernel);
                      ("hot_loop_ops_with", int k.lk_ops_with);
                      ("hot_loop_ops_without", int k.lk_ops_without) ])
                  r.lo_kernels ) ])
          t.loopopt ) ]
