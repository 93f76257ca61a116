module Diag = Safara_diag.Diagnostic

type error = Diag.t

let pp_error = Diag.pp

let errf where fmt =
  Format.kasprintf
    (fun what -> Diag.make ~code:"SAF004" ~where Diag.Error what)
    fmt

let check_region (prog : Program.t) ~params (r : Region.t) =
  let errors = ref [] in
  let where = "region " ^ r.rname in
  let err fmt =
    Format.kasprintf (fun what -> errors := errf where "%s" what :: !errors) fmt
  in
  let check_array_ref a subs =
    match Program.find_array_opt prog a with
    | None -> err "array %s is not declared" a
    | Some info ->
        if List.length subs <> Array_info.rank info then
          err "array %s has rank %d but is used with %d subscripts" a
            (Array_info.rank info) (List.length subs)
  in
  (* the loop indices and locals in scope, a name once per binding:
     a statement list removes what it bound when it ends *)
  let scope = Hashtbl.create 16 in
  let rec check_expr (e : Expr.t) =
    match e with
    | Expr.Int_lit _ | Float_lit _ -> ()
    | Var v ->
        if not (Hashtbl.mem scope v.vname || Hashtbl.mem params v.vname) then
          err "scalar %s read before definition" v.vname
    | Load (a, subs) ->
        check_array_ref a subs;
        List.iter check_expr subs
    | Binop (_, x, y) ->
        check_expr x;
        check_expr y
    | Unop (_, x) | Cast (_, x) -> check_expr x
    | Call (_, args) -> List.iter check_expr args
  in
  let rec walk ~inside_seq stmts =
    let bound = ref [] in
    let bind name =
      Hashtbl.add scope name ();
      bound := name :: !bound
    in
    List.iter
      (fun s ->
        match s with
        | Stmt.Assign (Larray (a, subs), e) ->
            check_array_ref a subs;
            List.iter check_expr subs;
            check_expr e
        | Stmt.Assign (Lvar v, e) ->
            check_expr e;
            if not (Hashtbl.mem scope v.Expr.vname) then bind v.Expr.vname
        | Stmt.Local (v, init) ->
            Option.iter check_expr init;
            bind v.Expr.vname
        | Stmt.For l ->
            check_expr l.lo;
            check_expr l.hi;
            let index = l.index.Expr.vname in
            if Hashtbl.mem scope index then
              err "loop index %s shadows an enclosing binding" index;
            if inside_seq && Stmt.is_parallel_sched l.sched then
              err "parallel loop on %s nested inside a sequential loop" index;
            Hashtbl.add scope index ();
            walk
              ~inside_seq:(inside_seq || not (Stmt.is_parallel_sched l.sched))
              l.body;
            Hashtbl.remove scope index
        | Stmt.If (c, t, e) ->
            check_expr c;
            walk ~inside_seq t;
            walk ~inside_seq e)
      stmts;
    List.iter (Hashtbl.remove scope) !bound
  in
  walk ~inside_seq:false r.body;
  (* dim groups *)
  List.iteri
    (fun gi (g : Region.dim_group) ->
      match g.group_arrays with
      | [] -> err "dim group %d is empty" gi
      | first :: _ -> (
          match Program.find_array_opt prog first with
          | None -> err "dim group %d: array %s is not declared" gi first
          | Some finfo ->
              List.iter
                (fun a ->
                  match Program.find_array_opt prog a with
                  | None -> err "dim group %d: array %s is not declared" gi a
                  | Some info ->
                      if not (Array_info.dims_equal finfo info) then
                        err "dim group %d: arrays %s and %s have different dimensions"
                          gi first a)
                g.group_arrays;
              (match g.stated_dims with
              | None -> ()
              | Some dims ->
                  if List.length dims <> Array_info.rank finfo then
                    err "dim group %d: stated rank %d differs from %s's rank %d"
                      gi (List.length dims) first (Array_info.rank finfo)
                  else if not (List.for_all2 Dim.equal dims finfo.dims) then
                    err "dim group %d: stated dimensions differ from %s's declaration"
                      gi first)))
    r.dim_groups;
  List.iter
    (fun a ->
      if Program.find_array_opt prog a = None then
        err "small clause: array %s is not declared" a)
    r.small;
  List.rev !errors

let check (prog : Program.t) =
  let dup_regions =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (r : Region.t) ->
        if Hashtbl.mem seen r.rname then
          Some (errf "program" "duplicate region name %s" r.rname)
        else (
          Hashtbl.add seen r.rname ();
          None))
      prog.regions
  in
  (* deterministic report order: sorted by where/code/message, not
     traversal order *)
  let params = Hashtbl.create 16 in
  List.iter (fun name -> Hashtbl.replace params name ()) (Program.param_names prog);
  Diag.sort
    (dup_regions @ List.concat_map (check_region prog ~params) prog.regions)

let check_exn prog =
  match check prog with
  | [] -> ()
  | errs ->
      let msg =
        Format.asprintf "@[<v>invalid IR program %s:@,%a@]" prog.pname
          (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_error)
          errs
      in
      invalid_arg msg
