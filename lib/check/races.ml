module S = Safara_ir.Stmt
module E = Safara_ir.Expr
module R = Safara_ir.Region
module Dep = Safara_analysis.Dependence
module Diag = Safara_diag.Diagnostic
module Srcmap = Safara_lang.Srcmap
module Legality = Safara_analysis.Legality

let dist_str dists =
  "("
  ^ String.concat ", "
      (List.map (Format.asprintf "%a" Dep.pp_distance) dists)
  ^ ")"

let direction d level =
  match Dep.distance_at d level with
  | Some (Dep.D n) -> Printf.sprintf "distance %d" n
  | Some Dep.Star | None -> "unknown distance"

let seq_hint index =
  Printf.sprintf
    "demote the loop with '#pragma acc loop seq' on %s, or restructure so \
     iterations touch disjoint elements"
    index

let loop_races ~map (r : R.t) legality (l : S.loop) =
  let idx = l.S.index.E.vname in
  let span = Srcmap.loop_span map ~region:r.R.rname ~index:idx in
  let where = Printf.sprintf "region %s, loop %s" r.R.rname idx in
  let race ?(hint = seq_hint idx) code fmt =
    Format.kasprintf (Diag.make ?span ~code ~where ~hint Diag.Error) fmt
  in
  (* array dependences carried by this loop's level *)
  List.map
    (fun ((d : Dep.dep), level) ->
      race "SAF010"
        "data race: loop %s is scheduled %a but carries a %s dependence on \
         %s: %s -> %s, distance vector %s over nest (%s), %s at this loop"
        idx S.pp_sched l.S.sched
        (Dep.kind_to_string d.Dep.d_kind)
        d.Dep.d_src.Dep.array (Dep.ref_name d.Dep.d_src)
        (Dep.ref_name d.Dep.d_dst) (dist_str d.Dep.d_dist)
        (String.concat ", " (Dep.common_nest d))
        (direction d level))
    (Legality.carried legality idx)
  (* writes invariant in this loop: every iteration hits the same
     element (self output dependence) *)
  @ List.map
      (fun a ->
        race "SAF010"
          "data race: loop %s is scheduled %a but every iteration writes \
           the same element %s"
          idx S.pp_sched l.S.sched (Dep.ref_name a))
      (Legality.invariant_writes legality idx)
  (* scalar recurrences not covered by declared reductions *)
  @ List.map
      (fun v ->
        race "SAF011"
          ~hint:
            (Printf.sprintf
               "declare 'reduction(...:%s)' if it is a reduction, or %s" v
               (seq_hint idx))
          "data race: scalar %s is read and written across iterations of \
           loop %s, which is scheduled %a"
          v idx S.pp_sched l.S.sched)
      (Legality.scalar_recurrences l)

let check_region ?(map = Srcmap.empty) (r : R.t) : Diag.t list =
  let legality = Legality.analyze r.R.body in
  List.concat_map
    (fun (l : S.loop) ->
      if S.is_parallel_sched l.S.sched then loop_races ~map r legality l
      else [])
    (Legality.loops legality)

let check_program ?map (p : Safara_ir.Program.t) : Diag.t list =
  List.concat_map (check_region ?map) p.Safara_ir.Program.regions
