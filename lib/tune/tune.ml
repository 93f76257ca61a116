module C = Safara_core.Compiler
module Eval = Safara_suites.Eval
module Workload = Safara_suites.Workload

type point = { pt_config : string; pt_unroll : int }

type result = {
  tr_id : string;
  tr_arch : string;
  tr_strategy : string;
  tr_best : point;
  tr_best_ms : float;
  tr_default_ms : float;
  tr_improvement : float;
  tr_evaluated : int;
  tr_space : int;
  tr_kernels : (string * float) list;
}

type strategy = Grid | Greedy

let strategy_name = function Grid -> "grid" | Greedy -> "greedy"

let strategy_of_name = function
  | "grid" -> Grid
  | "greedy" -> Greedy
  | other -> failwith ("unknown tune strategy " ^ other ^ " (grid|greedy)")

(* The SAFARA-configuration axis: named variants derived from the
   architecture's default budget. "default" maps to no override, so
   the engine shares cache entries with every other Full-profile run
   of the same (workload, arch). *)
let config_labels =
  [ "default"; "count-only"; "no-feedback"; "cap48"; "skip-ro-coalesced" ]

let config_of (arch : Safara_gpu.Arch.t) label :
    Safara_transform.Safara.config option =
  let d = Safara_transform.Safara.default_config ~arch in
  match label with
  | "default" -> None
  | "count-only" ->
      Some { d with Safara_transform.Safara.cost_model = `Count_only }
  | "no-feedback" ->
      Some
        { d with Safara_transform.Safara.use_feedback = false;
          assumed_free_regs = 16 }
  | "cap48" ->
      Some
        { d with
          Safara_transform.Safara.reg_cap =
            min 48 arch.Safara_gpu.Arch.max_registers_per_thread }
  | "skip-ro-coalesced" ->
      Some
        { d with
          Safara_transform.Safara.policy =
            { Safara_analysis.Reuse.default_policy with
              Safara_analysis.Reuse.skip_coalesced_read_only = true } }
  | other -> failwith ("unknown tune config " ^ other)

let unroll_factors = [ 1; 2; 4 ]

let grid =
  List.concat_map
    (fun c -> List.map (fun u -> { pt_config = c; pt_unroll = u }) unroll_factors)
    config_labels
  |> List.sort compare

let space_size = List.length grid
let default_point = { pt_config = "default"; pt_unroll = 1 }

let job ~arch (w : Workload.t) pt =
  Eval.job ~arch ?safara_config:(config_of arch pt.pt_config)
    ~unroll:pt.pt_unroll C.Full w

let objective eng ~arch w pt = Eval.total_ms eng (job ~arch w pt)

(* Deterministic argmin: on ties, the lexicographically first point
   (the grid is sorted) wins, so parallel and serial searches report
   the same winner. *)
let better (ms', _) (ms, _) = ms' < ms

let argmin eng ~arch w pts =
  List.fold_left
    (fun acc pt ->
      let cand = (objective eng ~arch w pt, pt) in
      match acc with
      | None -> Some cand
      | Some best -> if better cand best then Some cand else Some best)
    None pts
  |> Option.get

(* Exhaustive: one engine pass warms the whole grid through the
   domain pool (each distinct artifact simulates exactly once), then
   the argmin re-reads every point from the timing cache. *)
let search_grid eng ~arch w =
  Eval.warm eng (List.map (job ~arch w) grid);
  (argmin eng ~arch w grid, space_size)

(* Coordinate descent from the default point: evaluate every neighbor
   along one axis (all config labels at the current unroll factor,
   then all unroll factors at the current label), move on strict
   improvement, stop when a full sweep holds still. Terminates —
   every move strictly decreases a value from a finite set.
   Neighbor batches are warmed through the pool, so each distinct
   artifact still simulates exactly once. *)
let search_greedy eng ~arch w =
  let seen = Hashtbl.create 16 in
  let visit pts =
    let fresh = List.filter (fun p -> not (Hashtbl.mem seen p)) pts in
    List.iter (fun p -> Hashtbl.replace seen p ()) fresh;
    Eval.warm eng (List.map (job ~arch w) fresh)
  in
  let rec descend best =
    let _, bp = best in
    let axis_c =
      List.map (fun c -> { bp with pt_config = c }) config_labels
    in
    let axis_u =
      List.map (fun u -> { bp with pt_unroll = u }) unroll_factors
    in
    visit (axis_c @ axis_u);
    let best' = argmin eng ~arch w (bp :: axis_c @ axis_u) in
    if better best' best then descend best' else best
  in
  visit [ default_point ];
  let best =
    descend (objective eng ~arch w default_point, default_point)
  in
  (best, Hashtbl.length seen)

let search ?(strategy = Grid) eng ~arch (w : Workload.t) =
  let (best_ms, best), evaluated =
    match strategy with
    | Grid -> search_grid eng ~arch w
    | Greedy -> search_greedy eng ~arch w
  in
  let default_ms = objective eng ~arch w default_point in
  let t = Eval.time_job eng (job ~arch w best) in
  {
    tr_id = w.Workload.id;
    tr_arch = arch.Safara_gpu.Arch.key;
    tr_strategy = strategy_name strategy;
    tr_best = best;
    tr_best_ms = best_ms;
    tr_default_ms = default_ms;
    tr_improvement = default_ms /. best_ms;
    tr_evaluated = evaluated;
    tr_space = space_size;
    tr_kernels =
      List.map
        (fun (kt : Safara_sim.Launch.kernel_time) ->
          (kt.Safara_sim.Launch.kt_name, kt.Safara_sim.Launch.kt_ms))
        t.Safara_sim.Launch.ptk;
  }

let pp_point ppf pt =
  Format.fprintf ppf "config=%s unroll=%d" pt.pt_config pt.pt_unroll

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s on %s (%s search, %d/%d points)\n" r.tr_id r.tr_arch
    r.tr_strategy r.tr_evaluated r.tr_space;
  Printf.bprintf b "  best:    %s unroll=%d  %9.4f ms\n" r.tr_best.pt_config
    r.tr_best.pt_unroll r.tr_best_ms;
  Printf.bprintf b "  default: default unroll=1  %9.4f ms  (%.2fx)\n"
    r.tr_default_ms r.tr_improvement;
  List.iter
    (fun (k, ms) -> Printf.bprintf b "    %-24s %9.4f ms\n" k ms)
    r.tr_kernels;
  Buffer.contents b

let to_json r =
  let open Safara_json.Sjson in
  Obj
    [ ("id", Str r.tr_id);
      ("arch", Str r.tr_arch);
      ("strategy", Str r.tr_strategy);
      ("best",
       Obj
         [ ("config", Str r.tr_best.pt_config);
           ("unroll", int r.tr_best.pt_unroll) ]);
      ("best_ms", Num r.tr_best_ms);
      ("default_ms", Num r.tr_default_ms);
      ("improvement", Num r.tr_improvement);
      ("evaluated", int r.tr_evaluated);
      ("space", int r.tr_space);
      ("kernels", Obj (List.map (fun (k, ms) -> (k, Num ms)) r.tr_kernels)) ]
