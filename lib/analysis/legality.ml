module S = Safara_ir.Stmt
module E = Safara_ir.Expr
module Dep = Dependence

type t = { body : S.t list; refs : Dep.aref list; deps : Dep.dep list }

let analyze body =
  let refs = Dep.collect_refs body in
  { body; refs; deps = Dep.deps_of_refs refs }

let deps t = t.deps

let loops t =
  let rec walk acc stmts =
    List.fold_left
      (fun acc s ->
        match s with
        | S.For l -> walk (l :: acc) l.S.body
        | S.If (_, th, el) -> walk (walk acc th) el
        | S.Assign _ | S.Local _ -> acc)
      acc stmts
  in
  List.rev (walk [] t.body)

(* ------------------------------------------------------------------ *)
(* Write footprints                                                    *)
(* ------------------------------------------------------------------ *)

(* How a reference's subscripts vary with the loop [index]. [Invariant]:
   every subscript is affine and free of [index], so every iteration
   touches the same element. [Injective]: some subscript is affine in
   [index] alone ([c·index + rest] with [c <> 0] and [rest]
   loop-invariant), so distinct iterations — and the distinct blocks
   they are distributed over — touch distinct elements in that
   dimension. *)
type footprint = Invariant | Injective | Other

let footprint index (a : Dep.aref) =
  let forms =
    List.map (Affine.analyze ~indices:(List.map fst a.Dep.nest)) a.Dep.subs
  in
  let free = function
    | Some f -> not (Affine.depends_on f index)
    | None -> false
  in
  let alone = function
    | Some { Affine.coeffs = [ (x, _) ]; _ } -> String.equal x index
    | Some _ | None -> false
  in
  if forms <> [] && List.for_all free forms then Invariant
  else if List.exists alone forms then Injective
  else Other

let encloses index (a : Dep.aref) = List.mem_assoc index a.Dep.nest

let invariant_writes t index =
  List.filter
    (fun (a : Dep.aref) ->
      a.Dep.kind = Dep.Write && a.Dep.guard = [] && encloses index a
      && footprint index a = Invariant)
    t.refs

(* ------------------------------------------------------------------ *)
(* Loop parallelism                                                    *)
(* ------------------------------------------------------------------ *)

type verdict = Parallel | Serial of string

let carried t index =
  List.filter_map
    (fun d ->
      match Dep.level d index with
      | Some level when Dep.carried_at d level -> Some (d, level)
      | Some _ | None -> None)
    t.deps

(* scalar recurrence: a scalar that is read before being (re)defined in
   the body and is also written in the body — unless it is a declared
   reduction or a local declared inside the body (private) *)
let scalar_recurrences (l : S.loop) =
  let reductions = List.map (fun (_, v) -> v.E.vname) l.S.reductions in
  let written = ref [] and read_before_write = ref [] and defined = ref [] in
  let note_read v =
    if
      (not (List.mem v !defined))
      && (not (List.mem v reductions))
      && not (String.equal v l.S.index.E.vname)
      && not (List.mem v !read_before_write)
    then read_before_write := v :: !read_before_write
  in
  let expr_reads e = E.fold_vars (fun v () -> note_read v) e () in
  let rec stmt s =
    match s with
    | S.Assign (S.Lvar v, e) ->
        expr_reads e;
        defined := v.E.vname :: !defined;
        written := v.E.vname :: !written
    | S.Assign (S.Larray (_, subs), e) ->
        List.iter expr_reads subs;
        expr_reads e
    | S.Local (v, init) ->
        Option.iter expr_reads init;
        defined := v.E.vname :: !defined
    | S.For inner ->
        expr_reads inner.S.lo;
        expr_reads inner.S.hi;
        (* conservatively: anything read in an inner loop body before
           its own definition counts *)
        List.iter stmt inner.S.body
    | S.If (c, t, e) ->
        expr_reads c;
        (* writes under a branch do not count as definitions for the
           fall-through path *)
        let saved = !defined in
        List.iter stmt t;
        defined := saved;
        List.iter stmt e;
        defined := saved
  in
  List.iter stmt l.S.body;
  List.filter (fun v -> List.mem v !written) !read_before_write

let verdict t (l : S.loop) =
  let index = l.S.index.E.vname in
  match (carried t index, invariant_writes t index) with
  | (d, _) :: _, _ ->
      Serial (Format.asprintf "loop-carried dependence: %a" Dep.pp_dep d)
  | [], a :: _ ->
      Serial ("every iteration writes the same element " ^ Dep.ref_name a)
  | [], [] -> (
      match scalar_recurrences l with
      | [] -> Parallel
      | v :: _ -> Serial (Printf.sprintf "scalar recurrence on %s" v))

let verdicts t = List.map (fun l -> (l.S.index.E.vname, verdict t l)) (loops t)

let pp_verdict ppf = function
  | Parallel -> Format.pp_print_string ppf "parallel"
  | Serial reason -> Format.fprintf ppf "serial (%s)" reason

(* ------------------------------------------------------------------ *)
(* Block disjointness                                                  *)
(* ------------------------------------------------------------------ *)

type blocks = Disjoint | Unproven_write of Dep.aref | Blocking_dep of Dep.dep

let zero_at index d =
  match Option.bind (Dep.level d index) (Dep.distance_at d) with
  | Some (Dep.D 0) -> true
  | Some (Dep.D _ | Dep.Star) | None -> false

let blocks t ~axes =
  let unpinned (a : Dep.aref) =
    a.Dep.kind = Dep.Write
    && List.exists
         (fun index -> not (encloses index a && footprint index a = Injective))
         axes
  in
  match List.find_opt unpinned t.refs with
  | Some a -> Unproven_write a
  | None -> (
      match
        List.find_opt
          (fun d -> List.exists (fun index -> not (zero_at index d)) axes)
          t.deps
      with
      | Some d -> Blocking_dep d
      | None -> Disjoint)
