module E = Safara_ir.Expr
module S = Safara_ir.Stmt
module T = Safara_ir.Types
module M = Safara_gpu.Memspace

type kind =
  | Intra
  | Inter of { carrier : string; span : int }
  | Promote of { carrier : string; has_write : bool }

type candidate = {
  c_array : string;
  c_elem : T.dtype;
  c_refs : Dependence.aref list;
  c_kind : kind;
  c_reads : int;
  c_writes : int;
  c_regs_needed : int;
  c_space : M.space;
  c_access : M.access;
  c_latency : int;
  c_addr_latency : int;
      (* per-arch address-recomputation cost the caching also removes *)
  c_cost : int;
  c_loads_saved : int;
}

type policy = {
  max_span : int;
  allow_inter : bool;
  allow_intra : bool;
  allow_promote : bool;
  skip_coalesced_read_only : bool;
}

let default_policy =
  { max_span = 8; allow_inter = true; allow_intra = true; allow_promote = true;
    skip_coalesced_read_only = false }

(* --- grouping ------------------------------------------------------- *)

(* refs that live at the same point of the loop structure *)
let context_key (a : Dependence.aref) =
  (a.Dependence.array, List.map fst a.Dependence.nest, a.Dependence.guard)

let group_by key xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace tbl k (x :: (Option.value (Hashtbl.find_opt tbl k) ~default:[])))
    xs;
  Hashtbl.fold (fun _ v acc -> List.rev v :: acc) tbl []

(* innermost sequential loop of a nest, if the nest ends with one *)
let innermost_seq nest =
  match List.rev nest with
  | (idx, sched) :: _ when not (S.is_parallel_sched sched) -> Some idx
  | _ -> None

(* the translate of ref b relative to ref a along index [k]: Some delta
   when b = a shifted by delta iterations of k *)
let shift_along ~k (a : Affine.t option list) (b : Affine.t option list) =
  let rec go delta fa fb =
    match (fa, fb) with
    | [], [] -> Some delta
    | Some fa1 :: ra, Some fb1 :: rb ->
        if not (Affine.comparable fa1 fb1) then None
        else
          let ck = Affine.coeff fa1 k in
          let diff = fb1.Affine.const - fa1.Affine.const in
          if ck = 0 then if diff = 0 then go delta ra rb else None
          else if diff mod ck <> 0 then None
          else
            let d = diff / ck in
            (match delta with
            | None -> go (Some d) ra rb
            | Some d' when d' = d -> go delta ra rb
            | Some _ -> None)
    | _ -> None
  in
  match go None a b with
  | Some None -> Some 0 (* identical tuples, no k-dependence *)
  | Some (Some d) -> Some d
  | None -> None

(* --- cost ----------------------------------------------------------- *)

let finish ~arch ~latency ~mapping ~space ~elem refs kind =
  let reads =
    List.length (List.filter (fun r -> r.Dependence.kind = Dependence.Read) refs)
  in
  let writes = List.length refs - reads in
  let rep = List.hd refs in
  let elem_bytes = T.size_bytes elem in
  let access =
    Coalescing.classify ~mapping ~warp_size:arch.Safara_gpu.Arch.warp_size
      ~segment_bytes:arch.Safara_gpu.Arch.mem_segment_bytes ~elem_bytes
      rep.Dependence.subs
  in
  let l = Safara_gpu.Latency.memory_latency latency space access in
  (* each cached reference also stops recomputing its address chain;
     the per-arch table is what makes fermi/kepler/maxwell/pascal rank
     (and therefore allocate) differently *)
  let addr =
    Safara_gpu.Addrcost.per_access
      (Safara_gpu.Addrcost.for_arch arch)
      ~dims:(List.length rep.Dependence.subs)
      ~space
  in
  let count = reads + writes in
  let scalars =
    match kind with
    | Intra | Promote _ -> 1
    | Inter { span; _ } -> span + 1
  in
  let loads_saved =
    match kind with
    | Intra | Inter _ -> max 0 (reads - 1)
    | Promote _ -> reads
  in
  {
    c_array = rep.Dependence.array;
    c_elem = elem;
    c_refs = refs;
    c_kind = kind;
    c_reads = reads;
    c_writes = writes;
    c_regs_needed = scalars * T.registers elem;
    c_space = space;
    c_access = access;
    c_latency = l;
    c_addr_latency = addr;
    c_cost = count * (l + addr);
    c_loads_saved = loads_saved;
  }

(* --- main ----------------------------------------------------------- *)

let candidates ?(policy = default_policy) ~arch ~latency
    (prog : Safara_ir.Program.t) (r : Safara_ir.Region.t) =
  let mapping = Mapping.of_region r in
  let spaces = Spaces.region_spaces ~arch prog r in
  let refs = Dependence.collect_refs r.Safara_ir.Region.body in
  let written_arrays = Safara_ir.Stmt.stored_arrays r.Safara_ir.Region.body in
  (* Scalars declared or assigned inside the region body vary with the
     enclosing iteration (a loop-local declaration re-initializes on
     every trip), but the affine machinery would treat them as
     symbolic constants — making a[t] with t = b[i][k] look invariant
     in k after a round of scalar replacement names the b load. Such
     a subscript is as opaque as the nested load it came from, so the
     reference must stay out of affine clustering entirely. *)
  let region_scalars =
    let rec stmt acc (s : S.t) =
      match s with
      | S.Local (v, _) -> v.E.vname :: acc
      | S.Assign (S.Lvar v, _) -> v.E.vname :: acc
      | S.Assign (S.Larray _, _) -> acc
      | S.For l -> List.fold_left stmt acc l.S.body
      | S.If (_, a, b) -> List.fold_left stmt (List.fold_left stmt acc a) b
    in
    List.fold_left stmt [] r.Safara_ir.Region.body
  in
  let mentions_region_scalar e =
    E.fold_vars (fun v acc -> acc || List.mem v region_scalars) e false
  in
  (* a same-iteration aliasing write with a different subscript tuple
     makes caching a cell in a scalar unsound: check that no write to
     the array may touch the candidate's cell at distance zero *)
  let zero_alias_possible ~members (member : Dependence.aref) =
    List.exists
      (fun (w : Dependence.aref) ->
        w.Dependence.kind = Write
        && String.equal w.Dependence.array member.Dependence.array
        && (not (List.exists (fun (m : Dependence.aref) -> m.Dependence.id = w.Dependence.id) members))
        &&
        let a, b =
          if member.Dependence.id < w.Dependence.id then (member, w) else (w, member)
        in
        match Dependence.test_pair a b with
        | None -> false
        | Some dists ->
            List.for_all
              (function Dependence.D 0 | Dependence.Star -> true | Dependence.D _ -> false)
              dists)
      refs
  in
  let tuple_eq a b =
    List.length a = List.length b && List.for_all2 Safara_ir.Expr.equal a b
  in
  (* legality of register promotion across a sequential loop: when the
     group writes the cell, every same-tuple reference in the loop
     subtree must belong to the group and every other reference to the
     array must be provably independent; for read-only promotion only
     potentially-aliasing writes disqualify *)
  let promote_legal ~members ~array ~tuple ~nest_names =
    let has_prefix prefix l =
      let rec go p l =
        match (p, l) with
        | [], _ -> true
        | x :: p', y :: l' -> String.equal x y && go p' l'
        | _ :: _, [] -> false
      in
      go prefix l
    in
    let member_ids = List.map (fun (m : Dependence.aref) -> m.Dependence.id) members in
    let subtree =
      List.filter
        (fun (r : Dependence.aref) ->
          String.equal r.Dependence.array array
          && has_prefix nest_names (List.map fst r.Dependence.nest))
        refs
    in
    let rep = List.hd members in
    let independent (r : Dependence.aref) =
      let a, b = if rep.Dependence.id < r.Dependence.id then (rep, r) else (r, rep) in
      Dependence.test_pair a b = None
    in
    let group_writes =
      List.exists (fun (m : Dependence.aref) -> m.Dependence.kind = Write) members
    in
    if group_writes then
      List.for_all
        (fun (r : Dependence.aref) ->
          if tuple_eq r.Dependence.subs tuple then List.mem r.Dependence.id member_ids
          else independent r)
        subtree
    else
      List.for_all
        (fun (r : Dependence.aref) -> r.Dependence.kind = Read || independent r)
        subtree
  in
  let contexts = group_by context_key refs in
  let out = ref [] in
  List.iter
    (fun ctx_refs ->
      match ctx_refs with
      | [] -> ()
      | first :: _ ->
          let array = first.Dependence.array in
          let elem = Safara_ir.Program.elem_type prog array in
          let space = Option.value (List.assoc_opt array spaces) ~default:M.Global in
          let indices = List.map fst first.Dependence.nest in
          let forms =
            List.map
              (fun (a : Dependence.aref) ->
                ( a,
                  List.map
                    (fun s ->
                      if mentions_region_scalar s then None
                      else Affine.analyze ~indices s)
                    a.Dependence.subs ))
              ctx_refs
          in
          (* drop refs with a non-affine subscript *)
          let forms =
            List.filter (fun (_, fs) -> List.for_all Option.is_some fs) forms
          in
          let carrier = innermost_seq first.Dependence.nest in
          (* cluster into reuse chains *)
          let remaining = ref forms in
          while !remaining <> [] do
            match !remaining with
            | [] -> ()
            | (seed, fseed) :: rest ->
                let try_inter k =
                  let members, others =
                    List.partition
                      (fun (_, fb) ->
                        match shift_along ~k fseed fb with
                        | Some d -> abs d <= policy.max_span
                        | None -> false)
                      rest
                  in
                  (((seed, fseed) :: members), others, k)
                in
                let exact_duplicates () =
                  let dups, others =
                    List.partition
                      (fun (_, fb) ->
                        List.length fseed = List.length fb
                        && List.for_all2
                             (fun a b ->
                               match (a, b) with
                               | Some a, Some b -> Affine.equal a b
                               | _ -> false)
                             fseed fb)
                      rest
                  in
                  (((seed, fseed) :: dups), others, Intra)
                in
                let members, others, kind =
                  match carrier with
                  | Some k
                    when (policy.allow_inter || policy.allow_promote)
                         && first.Dependence.guard = [] -> (
                      let members, others, k = try_inter k in
                      let shifts =
                        List.filter_map
                          (fun (_, fb) -> shift_along ~k fseed fb)
                          members
                      in
                      let has_write =
                        List.exists
                          (fun (m, _) -> m.Dependence.kind = Dependence.Write)
                          members
                      in
                      let span =
                        match shifts with
                        | [] -> 0
                        | s ->
                            let mn = List.fold_left min max_int s in
                            let mx = List.fold_left max min_int s in
                            mx - mn
                      in
                      let carrier_invariant =
                        List.for_all
                          (function
                            | Some f -> not (Affine.depends_on f k)
                            | None -> false)
                          fseed
                      in
                      if span = 0 && carrier_invariant && policy.allow_promote
                      then
                        let member_refs = List.map fst members in
                        if
                          promote_legal ~members:member_refs ~array
                            ~tuple:seed.Dependence.subs
                            ~nest_names:(List.map fst seed.Dependence.nest)
                        then (members, others, Promote { carrier = k; has_write })
                        else (members, others, Intra)
                      else if span = 0 then (members, others, Intra)
                      else if
                        policy.allow_inter && (not has_write)
                        && not (List.mem array written_arrays)
                      then (members, others, Inter { carrier = k; span })
                      else if policy.allow_inter && has_write then begin
                        (* single-write forward chain (Fig 3/4 with a
                           store): the write must be the newest member
                           and every read strictly older, and no other
                           reference to the array may exist in the
                           loop subtree *)
                        let tagged =
                          List.filter_map
                            (fun (m, fb) ->
                              Option.map (fun d -> (m, d)) (shift_along ~k fseed fb))
                            members
                        in
                        let max_shift =
                          List.fold_left (fun acc (_, d) -> max acc d) min_int tagged
                        in
                        let writes =
                          List.filter (fun ((m : Dependence.aref), _) -> m.Dependence.kind = Write) tagged
                        in
                        let reads_older =
                          List.for_all
                            (fun ((m : Dependence.aref), d) ->
                              m.Dependence.kind = Write || d < max_shift)
                            tagged
                        in
                        let member_ids =
                          List.map (fun ((m : Dependence.aref), _) -> m.Dependence.id) tagged
                        in
                        let nest_names = List.map fst seed.Dependence.nest in
                        let only_member_refs =
                          List.for_all
                            (fun (r : Dependence.aref) ->
                              (not (String.equal r.Dependence.array array))
                              || (not
                                    (let rec prefix p l =
                                       match (p, l) with
                                       | [], _ -> true
                                       | x :: p', y :: l' -> String.equal x y && prefix p' l'
                                       | _ :: _, [] -> false
                                     in
                                     prefix nest_names (List.map fst r.Dependence.nest)))
                              || List.mem r.Dependence.id member_ids)
                            refs
                        in
                        match writes with
                        | [ (_, wd) ]
                          when wd = max_shift && reads_older && only_member_refs ->
                            (members, others, Inter { carrier = k; span })
                        | _ -> exact_duplicates ()
                      end
                      else exact_duplicates ())
                  | _ -> exact_duplicates ()
                in
                remaining := others;
                let member_refs = List.map fst members in
                let cand =
                  finish ~arch ~latency ~mapping ~space ~elem member_refs kind
                in
                let worthwhile =
                  match kind with
                  | Intra ->
                      policy.allow_intra
                      && (cand.c_reads >= 2 || cand.c_writes >= 2)
                      && not (zero_alias_possible ~members:member_refs (List.hd member_refs))
                  | Inter _ ->
                      cand.c_reads >= 2
                      || (cand.c_writes >= 1 && cand.c_reads >= 1)
                  | Promote _ -> cand.c_reads + cand.c_writes >= 1
                in
                let skipped =
                  policy.skip_coalesced_read_only
                  && cand.c_space = M.Read_only
                  && cand.c_access = M.Coalesced
                in
                if worthwhile && not skipped then out := cand :: !out
          done)
    contexts;
  List.sort
    (fun a b ->
      match compare b.c_cost a.c_cost with
      | 0 ->
          compare (List.hd a.c_refs).Dependence.id (List.hd b.c_refs).Dependence.id
      | c -> c)
    !out

let kind_to_string = function
  | Intra -> "intra"
  | Inter { carrier; span } -> Printf.sprintf "inter(%s, span %d)" carrier span
  | Promote { carrier; has_write } ->
      Printf.sprintf "promote(%s%s)" carrier (if has_write then ", rw" else "")

let pp_candidate ppf c =
  Format.fprintf ppf
    "%s %s: %d refs (%dr/%dw) %s %s L=%d A=%d cost=%d regs=%d"
    c.c_array (kind_to_string c.c_kind)
    (List.length c.c_refs) c.c_reads c.c_writes
    (M.space_to_string c.c_space) (M.access_to_string c.c_access)
    c.c_latency c.c_addr_latency c.c_cost c.c_regs_needed
