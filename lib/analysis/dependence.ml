module E = Safara_ir.Expr
module S = Safara_ir.Stmt

type ref_kind = Read | Write

type aref = {
  array : string;
  subs : E.t list;
  kind : ref_kind;
  id : int;
  nest : (string * S.sched) list;
  guard : int list;
}

type distance = D of int | Star

type dep_kind = Flow | Anti | Output | Input

type dep = {
  d_src : aref;
  d_dst : aref;
  d_kind : dep_kind;
  d_dist : distance list;
}

(* ------------------------------------------------------------------ *)
(* Reference collection                                                *)
(* ------------------------------------------------------------------ *)

let collect_refs stmts =
  let refs = ref [] in
  let next_id = ref 0 in
  let next_guard = ref 0 in
  (* [rev_nest] is outermost-last while walking; re-reversed once per
     emitted reference instead of appending at every loop level *)
  let emit array subs kind rev_nest guard =
    refs :=
      { array; subs; kind; id = !next_id; nest = List.rev rev_nest; guard }
      :: !refs;
    incr next_id
  in
  let rec expr nest guard (e : E.t) =
    match e with
    | E.Int_lit _ | E.Float_lit _ | E.Var _ -> ()
    | E.Load (a, subs) ->
        List.iter (expr nest guard) subs;
        emit a subs Read nest guard
    | E.Binop (_, x, y) ->
        expr nest guard x;
        expr nest guard y
    | E.Unop (_, x) | E.Cast (_, x) -> expr nest guard x
    | E.Call (_, args) -> List.iter (expr nest guard) args
  in
  let rec stmt nest guard s =
    match s with
    | S.Assign (S.Larray (a, subs), rhs) ->
        List.iter (expr nest guard) subs;
        expr nest guard rhs;
        emit a subs Write nest guard
    | S.Assign (S.Lvar _, rhs) -> expr nest guard rhs
    | S.Local (_, init) -> Option.iter (expr nest guard) init
    | S.For l ->
        expr nest guard l.S.lo;
        expr nest guard l.S.hi;
        let nest' = (l.S.index.E.vname, l.S.sched) :: nest in
        List.iter (stmt nest' guard) l.S.body
    | S.If (c, t, e) ->
        expr nest guard c;
        let gid = !next_guard in
        incr next_guard;
        List.iter (stmt nest ((2 * gid) :: guard)) t;
        List.iter (stmt nest ((2 * gid) + 1 :: guard)) e
  in
  List.iter (stmt [] []) stmts;
  List.rev !refs

(* ------------------------------------------------------------------ *)
(* Pairwise subscript tests                                            *)
(* ------------------------------------------------------------------ *)

(* the loop indices enclosing both references, outermost first *)
let shared_nest a b =
  let rec go xs ys =
    match (xs, ys) with
    | (x, _) :: xs', (y, _) :: ys' when String.equal x y -> x :: go xs' ys'
    | _ -> []
  in
  go a.nest b.nest

(* solve the per-dimension constraints; returns a map index->distance
   or None when provably independent *)
exception Independent
exception Give_up

let test_pair a b =
  if not (String.equal a.array b.array) then None
  else
    let indices = shared_nest a b in
    if List.length a.subs <> List.length b.subs then Some (List.map (fun _ -> Star) indices)
    else
      let constraints = Hashtbl.create 8 in
      (* index -> D n constraint; Star recorded as absence + mark *)
      let stars = Hashtbl.create 8 in
      let dim_test (s1 : E.t) (s2 : E.t) =
        match (Affine.analyze ~indices s1, Affine.analyze ~indices s2) with
        | Some f1, Some f2 when Affine.comparable f1 f2 -> (
            let diff = f1.Affine.const - f2.Affine.const in
            (* indices with nonzero coeff must absorb [diff]:
               a·(i' - i) = c1 - c2, summed over involved indices *)
            match f1.Affine.coeffs with
            | [] -> if diff <> 0 then raise Independent (* ZIV *)
            | [ (x, coef) ] ->
                (* strong SIV *)
                if diff mod coef <> 0 then raise Independent
                else
                  let d = diff / coef in
                  (match Hashtbl.find_opt constraints x with
                  | Some d' when d' <> d -> raise Independent
                  | Some _ -> ()
                  | None -> Hashtbl.replace constraints x d)
            | coeffs ->
                (* MIV: GCD test, then give up on precision *)
                let g = List.fold_left (fun acc (_, c) ->
                  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
                  gcd acc c) 0 coeffs
                in
                if g <> 0 && diff mod g <> 0 then raise Independent
                else List.iter (fun (x, _) -> Hashtbl.replace stars x ()) coeffs)
        | Some f1, Some f2 ->
            (* not comparable: if neither side depends on any common
               index and rests differ, we cannot decide; conservative *)
            List.iter (fun (x, _) -> Hashtbl.replace stars x ()) f1.Affine.coeffs;
            List.iter (fun (x, _) -> Hashtbl.replace stars x ()) f2.Affine.coeffs;
            raise Give_up
        | _ -> raise Give_up
      in
      match List.iter2 dim_test a.subs b.subs with
      | exception Independent -> None
      | exception Give_up -> Some (List.map (fun _ -> Star) indices)
      | () ->
          Some
            (List.map
               (fun x ->
                 match Hashtbl.find_opt constraints x with
                 | Some d -> D d
                 | None ->
                     (* unconstrained or marked star: any distance *)
                     Star)
               indices)

(* the first nonzero entry decides direction; a lexicographically
   negative vector means the dependence actually flows b -> a *)
let rec direction = function
  | [] -> `Zero
  | D 0 :: rest -> direction rest
  | D n :: _ -> if n > 0 then `Positive else `Negative
  | Star :: _ -> `Unknown

let negate_dists = List.map (function D n -> D (-n) | Star -> Star)

let kind_of src_kind dst_kind =
  match (src_kind, dst_kind) with
  | Write, Read -> Flow
  | Read, Write -> Anti
  | Write, Write -> Output
  | Read, Read -> Input

let disjoint_guards a b =
  (* two refs on opposite branches of the same If can never both
     execute in one iteration; suffixes of the guard lists share the
     structure, so compare the aligned tails *)
  let rec tail n l = if n <= 0 then l else tail (n - 1) (List.tl l) in
  let la = List.length a.guard and lb = List.length b.guard in
  let ga = if la > lb then tail (la - lb) a.guard else a.guard in
  let gb = if lb > la then tail (lb - la) b.guard else b.guard in
  List.exists2 (fun x y -> x / 2 = y / 2 && x <> y) ga gb

let deps_of_refs ?(include_input = false) refs =
  let deps = ref [] in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            if String.equal a.array b.array then
              let interesting =
                include_input || a.kind = Write || b.kind = Write
              in
              if interesting then
                match test_pair a b with
                | None -> ()
                | Some dists -> (
                    match direction dists with
                    | `Negative ->
                        deps :=
                          {
                            d_src = b;
                            d_dst = a;
                            d_kind = kind_of b.kind a.kind;
                            d_dist = negate_dists dists;
                          }
                          :: !deps
                    | `Zero when disjoint_guards a b -> ()
                    | `Zero | `Positive | `Unknown ->
                        deps :=
                          {
                            d_src = a;
                            d_dst = b;
                            d_kind = kind_of a.kind b.kind;
                            d_dist = dists;
                          }
                          :: !deps))
          rest;
        pairs rest
  in
  pairs refs;
  List.rev !deps

let region_deps ?include_input stmts =
  deps_of_refs ?include_input (collect_refs stmts)

let common_nest d = shared_nest d.d_src d.d_dst

let level d index = List.find_index (String.equal index) (common_nest d)

let distance_at d level = List.nth_opt d.d_dist level

let carried_at dep level =
  let rec go i = function
    | [] -> false
    | d :: rest ->
        if i < level then match d with D 0 -> go (i + 1) rest | _ -> false
        else (match d with D 0 -> false | D _ | Star -> true)
  in
  go 0 dep.d_dist

let pp_distance ppf = function
  | D n -> Format.pp_print_int ppf n
  | Star -> Format.pp_print_char ppf '*'

let ref_name r =
  r.array ^ String.concat "" (List.map (fun s -> "[" ^ E.to_string s ^ "]") r.subs)

let ref_to_string r =
  ref_name r ^ match r.kind with Read -> "" | Write -> " (w)"

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Input -> "input"

let pp_dep ppf d =
  Format.fprintf ppf "%s: %s -> %s (%a)" (kind_to_string d.d_kind)
    (ref_to_string d.d_src) (ref_to_string d.d_dst)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_distance)
    d.d_dist
