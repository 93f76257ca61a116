module E = Safara_ir.Expr
module S = Safara_ir.Stmt
module R = Safara_ir.Region
module Reuse = Safara_analysis.Reuse
module Dep = Safara_analysis.Dependence

let scalar_prefix = "__sr"

(* An intra or promote job rewrites exactly its candidate's members:
   a reference in any member's spelling (unrolling spells one cell
   several ways) reads or updates the scalar. The first member's
   spelling initializes it. *)
type intra_job = {
  i_array : string;
  i_tuples : E.t list list;  (** every member's tuple, first member first *)
  i_var : E.var;
  i_scope : string list * int list;  (** nest index names, guard *)
}

type inter_job = {
  n_array : string;
  n_carrier : string;
  n_span : int;
  n_tuples : (E.t list * int) list;  (** member tuple → normalized shift *)
  n_rep : E.t list;  (** tuple at shift 0 *)
  n_vars : E.var array;  (** t_0 .. t_span *)
  n_scope : string list * int list;  (** nest including carrier, guard *)
  n_write_tuple : E.t list option;
      (** single-write forward chain: the written tuple (newest member);
          the write defines the leading scalar instead of a load *)
}

type promote_job = {
  p_array : string;
  p_tuples : E.t list list;  (** every member's tuple, first member first *)
  p_var : E.var;
  p_carrier : string;
  p_has_write : bool;
  p_scope : string list * int list;  (** nest including carrier, guard *)
}

(* Domain-local so concurrent compilations never race on the counter;
   the SAFARA driver resets it per program so generated names depend
   only on the program being compiled, not on how many compilations
   this domain ran before — a requirement for the evaluation engine's
   parallel-equals-serial guarantee. *)
let fresh_counter = Domain.DLS.new_key (fun () -> ref 0)

let reset_fresh () = Domain.DLS.get fresh_counter := 0

let fresh_var elem =
  let counter = Domain.DLS.get fresh_counter in
  incr counter;
  { E.vname = Printf.sprintf "%s%d" scalar_prefix !counter; vtype = elem }

let job_of_candidate (c : Reuse.candidate) =
  let rep_ref = List.hd c.Reuse.c_refs in
  let member_tuples = List.map (fun (r : Dep.aref) -> r.Dep.subs) c.Reuse.c_refs in
  let nest = List.map fst rep_ref.Dep.nest in
  let guard = rep_ref.Dep.guard in
  match c.Reuse.c_kind with
  | Reuse.Intra ->
      `Intra
        {
          i_array = c.Reuse.c_array;
          i_tuples = member_tuples;
          i_var = fresh_var c.Reuse.c_elem;
          i_scope = (nest, guard);
        }
  | Reuse.Promote { carrier; has_write } ->
      `Promote
        {
          p_array = c.Reuse.c_array;
          p_tuples = member_tuples;
          p_var = fresh_var c.Reuse.c_elem;
          p_carrier = carrier;
          p_has_write = has_write;
          p_scope = (nest, guard);
        }
  | Reuse.Inter { carrier; span } ->
      (* each member's shift relative to the minimum, as Reuse
         matched it *)
      let forms r =
        List.map (Safara_analysis.Affine.analyze ~indices:nest) r.Dep.subs
      in
      let seed = forms rep_ref in
      let shifts =
        List.filter_map
          (fun (r : Dep.aref) ->
            Option.map (fun d -> (r, d)) (Reuse.shift_along ~k:carrier seed (forms r)))
          c.Reuse.c_refs
      in
      let min_shift =
        List.fold_left (fun acc (_, d) -> min acc d) max_int shifts
      in
      let tuples =
        List.map (fun ((r : Dep.aref), d) -> (r.Dep.subs, d - min_shift)) shifts
      in
      let rep =
        match List.find_opt (fun (_, d) -> d = 0) tuples with
        | Some (subs, _) -> subs
        | None -> rep_ref.Dep.subs
      in
      let vars = Array.init (span + 1) (fun _ -> fresh_var c.Reuse.c_elem) in
      let write_tuple =
        List.find_opt (fun (r : Dep.aref) -> r.Dep.kind = Dep.Write) c.Reuse.c_refs
        |> Option.map (fun (r : Dep.aref) -> r.Dep.subs)
      in
      `Inter
        {
          n_array = c.Reuse.c_array;
          n_carrier = carrier;
          n_span = span;
          n_tuples = tuples;
          n_rep = rep;
          n_vars = vars;
          n_scope = (nest, guard);
          n_write_tuple = write_tuple;
        }

(* replace loads of (array, tuple) everywhere in an expression *)
let rec replace_load ~array ~lookup (e : E.t) : E.t =
  match e with
  | E.Load (a, subs) ->
      let subs' = List.map (replace_load ~array ~lookup) subs in
      if String.equal a array then
        match lookup subs' with
        | Some v -> E.Var v
        | None -> E.Load (a, subs')
      else E.Load (a, subs')
  | E.Int_lit _ | E.Float_lit _ | E.Var _ -> e
  | E.Binop (op, a, b) ->
      E.Binop (op, replace_load ~array ~lookup a, replace_load ~array ~lookup b)
  | E.Unop (op, a) -> E.Unop (op, replace_load ~array ~lookup a)
  | E.Call (i, args) -> E.Call (i, List.map (replace_load ~array ~lookup) args)
  | E.Cast (ty, a) -> E.Cast (ty, replace_load ~array ~lookup a)

let tuple_equal a b = List.length a = List.length b && List.for_all2 E.equal a b

let covers tuples subs = List.exists (tuple_equal subs) tuples

(* --- intra-iteration rewriting --------------------------------------- *)

(* Rewrite a statement list that is the scope of the given intra jobs.
   Returns the new list. *)
let apply_intra_jobs jobs stmts =
  (* per-job mutable state *)
  let states = List.map (fun j -> (j, ref false (* defined *))) jobs in
  let rewrite_expr e =
    List.fold_left
      (fun e ((j : intra_job), defined) ->
        if !defined then
          replace_load ~array:j.i_array
            ~lookup:(fun subs ->
              if covers j.i_tuples subs then Some j.i_var else None)
            e
        else e)
      e states
  in
  let out = ref [] in
  let emit s = out := s :: !out in
  let ensure_defined_for_expr e =
    (* any job whose tuple is read by [e] and not yet defined gets its
       initializing load inserted now *)
    List.iter
      (fun ((j : intra_job), defined) ->
        if not !defined then
          let reads_tuple = ref false in
          let rec scan (x : E.t) =
            match x with
            | E.Load (a, subs) ->
                List.iter scan subs;
                if String.equal a j.i_array && covers j.i_tuples subs then
                  reads_tuple := true
            | E.Binop (_, a, b) ->
                scan a;
                scan b
            | E.Unop (_, a) | E.Cast (_, a) -> scan a
            | E.Call (_, args) -> List.iter scan args
            | E.Int_lit _ | E.Float_lit _ | E.Var _ -> ()
          in
          scan e;
          if !reads_tuple then begin
            emit (S.Local (j.i_var, Some (E.Load (j.i_array, List.hd j.i_tuples))));
            defined := true
          end)
      states
  in
  List.iter
    (fun s ->
      match s with
      | S.Assign (S.Larray (a, subs), rhs) -> (
          ensure_defined_for_expr rhs;
          List.iter ensure_defined_for_expr subs;
          let rhs' = rewrite_expr rhs in
          let subs' = List.map (rewrite_expr) subs in
          (* a write to a cached cell updates the scalar *)
          match
            List.find_opt
              (fun ((j : intra_job), _) ->
                String.equal j.i_array a && covers j.i_tuples subs)
              states
          with
          | Some (j, defined) ->
              if !defined then begin
                emit (S.Assign (S.Lvar j.i_var, rhs'));
                emit (S.Assign (S.Larray (a, subs'), E.Var j.i_var))
              end
              else begin
                emit (S.Local (j.i_var, Some rhs'));
                defined := true;
                emit (S.Assign (S.Larray (a, subs'), E.Var j.i_var))
              end
          | None -> emit (S.Assign (S.Larray (a, subs'), rhs')))
      | S.Assign (S.Lvar v, rhs) ->
          ensure_defined_for_expr rhs;
          emit (S.Assign (S.Lvar v, rewrite_expr rhs))
      | S.Local (v, init) ->
          Option.iter ensure_defined_for_expr init;
          emit (S.Local (v, Option.map (rewrite_expr) init))
      | S.For l ->
          ensure_defined_for_expr l.S.lo;
          ensure_defined_for_expr l.S.hi;
          (* inner statements may still read cached tuples: values are
             loop-invariant w.r.t. deeper loops, so substitution stays
             sound; deeper scopes get their own candidates otherwise *)
          let body' = S.map_exprs (rewrite_expr) l.S.body in
          emit (S.For { l with S.lo = rewrite_expr l.S.lo; hi = rewrite_expr l.S.hi; body = body' })
      | S.If (c, t, e) ->
          ensure_defined_for_expr c;
          emit
            (S.If
               ( rewrite_expr c,
                 S.map_exprs (rewrite_expr) t,
                 S.map_exprs (rewrite_expr) e )))
    stmts;
  List.rev !out

(* --- inter-iteration rewriting --------------------------------------- *)

let inter_pieces (j : inter_job) (l : S.loop) =
  let lookup subs =
    List.find_opt (fun (tuple, _) -> tuple_equal tuple subs) j.n_tuples
    |> Option.map (fun (_, d) -> j.n_vars.(d))
  in
  let rewrite e = replace_load ~array:j.n_array ~lookup e in
  (* leading load of the newest value at the top of the body *)
  let leading_tuple =
    match List.find_opt (fun (_, d) -> d = j.n_span) j.n_tuples with
    | Some (t, _) -> t
    | None ->
        List.map (E.subst_var j.n_carrier
            (E.Binop (E.Add, E.var j.n_carrier, E.int j.n_span)))
          j.n_rep
  in
  let leading =
    match j.n_write_tuple with
    | Some _ -> None (* the write itself defines the newest scalar *)
    | None ->
        Some (S.Assign (S.Lvar j.n_vars.(j.n_span), E.Load (j.n_array, leading_tuple)))
  in
  (* rotation at the bottom *)
  let rotation =
    List.init j.n_span (fun d ->
        S.Assign (S.Lvar j.n_vars.(d), E.Var j.n_vars.(d + 1)))
  in
  (* initializing loads: t_d = a[rep with k -> lo + d], d < span *)
  let inits =
    List.init j.n_span (fun d ->
        let subs =
          List.map
            (E.subst_var j.n_carrier
               (match l.S.lo with
               | E.Int_lit (n, ty) -> E.Int_lit (n + d, ty)
               | lo -> E.Binop (E.Add, lo, E.int d)))
            j.n_rep
        in
        S.Local (j.n_vars.(d), Some (E.Load (j.n_array, subs))))
  in
  let decl_leading = S.Local (j.n_vars.(j.n_span), None) in
  (rewrite, leading, rotation, inits @ [ decl_leading ])

(* statement-level rewrite for a promoted cell: loads become the
   scalar, stores to the cell become scalar assignments *)
let rec rewrite_promote (j : promote_job) stmts =
  let lookup subs = if covers j.p_tuples subs then Some j.p_var else None in
  let rw e = replace_load ~array:j.p_array ~lookup e in
  List.map
    (fun s ->
      match s with
      | S.Assign (S.Larray (a, subs), rhs)
        when String.equal a j.p_array && covers j.p_tuples subs ->
          S.Assign (S.Lvar j.p_var, rw rhs)
      | S.Assign (S.Larray (a, subs), rhs) ->
          S.Assign (S.Larray (a, List.map rw subs), rw rhs)
      | S.Assign (S.Lvar v, rhs) -> S.Assign (S.Lvar v, rw rhs)
      | S.Local (v, init) -> S.Local (v, Option.map rw init)
      | S.For l ->
          S.For { l with S.lo = rw l.S.lo; hi = rw l.S.hi; body = rewrite_promote j l.S.body }
      | S.If (c, t, e) -> S.If (rw c, rewrite_promote j t, rewrite_promote j e))
    stmts

(* convert the store of a single-write forward chain: the assignment
   defines the newest rotating scalar, and the store keeps the memory
   cell up to date *)
let rec rewrite_chain_write (j : inter_job) stmts =
  match j.n_write_tuple with
  | None -> stmts
  | Some wt ->
      List.concat_map
        (fun s ->
          match s with
          | S.Assign (S.Larray (a, subs), rhs)
            when String.equal a j.n_array && tuple_equal subs wt ->
              [
                S.Assign (S.Lvar j.n_vars.(j.n_span), rhs);
                S.Assign (S.Larray (a, subs), E.Var j.n_vars.(j.n_span));
              ]
          | S.For l -> [ S.For { l with S.body = rewrite_chain_write j l.S.body } ]
          | S.If (c, t, e) ->
              [ S.If (c, rewrite_chain_write j t, rewrite_chain_write j e) ]
          | S.Assign _ | S.Local _ -> [ s ])
        stmts

(* apply every inter and promote job that targets the same sequential
   loop at once: shared zero-trip guard, stacked leading loads,
   rotations, preloads and store-backs *)
let apply_loop_jobs ~inter ~promote (l : S.loop) =
  let pieces = List.map (fun j -> inter_pieces j l) inter in
  (* single-write chains: convert the store statement first so the
     scalar is defined by the computation, then rewrite the loads *)
  let body' =
    List.fold_left (fun body j -> rewrite_chain_write j body) l.S.body inter
  in
  let body' =
    List.fold_left (fun body (rw, _, _, _) -> S.map_exprs rw body) body' pieces
  in
  let body' = List.fold_left (fun body j -> rewrite_promote j body) body' promote in
  let leadings = List.filter_map (fun (_, ld, _, _) -> ld) pieces in
  let rotations = List.concat_map (fun (_, _, rot, _) -> rot) pieces in
  let inits = List.concat_map (fun (_, _, _, ins) -> ins) pieces in
  let preloads =
    List.map
      (fun j -> S.Local (j.p_var, Some (E.Load (j.p_array, List.hd j.p_tuples))))
      promote
  in
  let store_backs =
    List.filter_map
      (fun j ->
        if j.p_has_write then
          Some (S.Assign (S.Larray (j.p_array, List.hd j.p_tuples), E.Var j.p_var))
        else None)
      promote
  in
  let loop' = S.For { l with S.body = leadings @ body' @ rotations } in
  (* zero-trip guard keeps the hoisted loads in bounds *)
  S.If (E.Binop (E.Le, l.S.lo, l.S.hi), inits @ preloads @ [ loop' ] @ store_backs, [])

(* --- scope walking ---------------------------------------------------- *)

let apply (r : R.t) candidates =
  let jobs = List.map job_of_candidate candidates in
  let next_guard = ref 0 in
  let rec walk nest guard stmts =
    (* intra jobs whose scope is exactly here *)
    let here_intra =
      List.filter_map
        (function
          | `Intra j when j.i_scope = (nest, guard) -> Some j
          | _ -> None)
        jobs
    in
    let stmts = if here_intra = [] then stmts else apply_intra_jobs here_intra stmts in
    List.map
      (fun s ->
        match s with
        | S.For l -> (
            let idx = l.S.index.E.vname in
            let nest' = nest @ [ idx ] in
            let body' = walk nest' guard l.S.body in
            let l = { l with S.body = body' } in
            let inter =
              List.filter_map
                (function
                  | `Inter j
                    when j.n_scope = (nest', guard) && String.equal j.n_carrier idx
                    ->
                      Some j
                  | `Inter _ | `Intra _ | `Promote _ -> None)
                jobs
            in
            let promote =
              List.filter_map
                (function
                  | `Promote j
                    when j.p_scope = (nest', guard) && String.equal j.p_carrier idx
                    ->
                      Some j
                  | `Inter _ | `Intra _ | `Promote _ -> None)
                jobs
            in
            if inter = [] && promote = [] then S.For l
            else apply_loop_jobs ~inter ~promote l)
        | S.If (c, t, e) ->
            let gid = !next_guard in
            incr next_guard;
            S.If (c, walk nest ((2 * gid) :: guard) t, walk nest ((2 * gid) + 1 :: guard) e)
        | S.Assign _ | S.Local _ -> s)
      stmts
  in
  { r with R.body = walk [] [] r.R.body }
