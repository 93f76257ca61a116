module S = Safara_ir.Stmt
module R = Safara_ir.Region

let resolve (r : R.t) =
  let parallelizable =
    (* inside a [parallel] construct an undirected loop is
       user-asserted independent (OpenACC semantics); the [kernels]
       construct leaves the decision to the compiler's analysis *)
    match r.R.kind with
    | R.Parallel -> fun _ -> true
    | R.Kernels -> (
        let legality = Legality.analyze r.R.body in
        fun l ->
          match Legality.verdict legality l with
          | Legality.Parallel -> true
          | Legality.Serial _ -> false)
  in
  (* count how many parallel axes are already taken along the chain *)
  let rec rewrite ~axes_left ~can_promote stmts =
    List.map
      (fun s ->
        match s with
        | S.For l -> (
            match l.S.sched with
            | S.Auto ->
                if can_promote && axes_left > 0 && parallelizable l then
                  S.For
                    {
                      l with
                      S.sched = S.Gang_vector (None, None);
                      body =
                        rewrite ~axes_left:(axes_left - 1) ~can_promote l.S.body;
                    }
                else
                  S.For
                    {
                      l with
                      S.sched = S.Seq;
                      body = rewrite ~axes_left ~can_promote:false l.S.body;
                    }
            | S.Seq ->
                S.For
                  { l with S.body = rewrite ~axes_left ~can_promote:false l.S.body }
            | S.Gang _ | S.Vector _ | S.Gang_vector _ ->
                S.For { l with S.body = rewrite ~axes_left ~can_promote l.S.body })
        | S.If (c, t, e) ->
            S.If
              ( c,
                rewrite ~axes_left ~can_promote t,
                rewrite ~axes_left ~can_promote e )
        | S.Assign _ | S.Local _ -> s)
      stmts
  in
  (* explicit parallel loops consume axes *)
  let rec explicit_count stmts =
    List.fold_left
      (fun acc s ->
        match s with
        | S.For l ->
            let here = if S.is_parallel_sched l.S.sched then 1 else 0 in
            acc + here + explicit_count l.S.body
        | S.If (_, t, e) -> acc + explicit_count t + explicit_count e
        | S.Assign _ | S.Local _ -> acc)
      0 stmts
  in
  let axes_left = max 0 (3 - explicit_count r.body) in
  { r with R.body = rewrite ~axes_left ~can_promote:true r.body }

let resolve_program (p : Safara_ir.Program.t) =
  { p with Safara_ir.Program.regions = List.map resolve p.regions }
