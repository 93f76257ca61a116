(* Basic-block control-flow graph over a kernel's instruction stream.

   Leaders are instruction 0, every Label, and every instruction
   following a branch (bra/brc/ret). Edges come from branch targets
   and fall-through; ret and bra end a block without fall-through.
   The graph is the substrate for every dataflow analysis in
   [Dataflow], for the verifier's def-before-use check and for the
   register allocator's live intervals in Safara_ptxas — one
   construction shared by all clients. A label defined twice maps to
   its first block; the verifier rejects such code anyway. *)

module I = Instr

type block = {
  bid : int;
  first : int;  (* index of the first instruction *)
  last : int;  (* index of the last instruction (inclusive) *)
  succs : int list;  (* successor block ids, sorted *)
  preds : int list;  (* predecessor block ids, in edge-discovery order *)
}

type t = {
  code : I.t array;
  blocks : block array;
  rpo : int array;
  label_block : (string, int) Hashtbl.t;
}

let num_blocks t = Array.length t.blocks

(* reverse postorder of the blocks reachable from entry, followed by
   any unreachable blocks in id order (so solvers still visit them;
   analyses treat them as unconstrained) *)
let compute_rpo blocks =
  let nb = Array.length blocks in
  if nb = 0 then [||]
  else begin
    let seen = Array.make nb false in
    let post = ref [] in
    let rec visit b =
      if not seen.(b) then begin
        seen.(b) <- true;
        List.iter visit blocks.(b).succs;
        post := b :: !post
      end
    in
    visit 0;
    let order = ref (List.rev !post) in
    for b = nb - 1 downto 0 do
      if not seen.(b) then order := b :: !order
    done;
    Array.of_list (List.rev !order)
  end

(* constructions per domain, so parallel compiles count their own
   work without contending for a shared counter *)
let built = Domain.DLS.new_key (fun () -> ref 0)
let builds () = !(Domain.DLS.get built)

let build (code : I.t array) =
  incr (Domain.DLS.get built);
  let n = Array.length code in
  if n = 0 then
    { code; blocks = [||]; rpo = [||]; label_block = Hashtbl.create 1 }
  else begin
    let leader = Array.make n false in
    leader.(0) <- true;
    Array.iteri
      (fun i ins ->
        (match ins with I.Label _ -> leader.(i) <- true | _ -> ());
        if I.is_branch ins && i + 1 < n then leader.(i + 1) <- true)
      code;
    let starts = ref [] in
    for i = n - 1 downto 0 do
      if leader.(i) then starts := i :: !starts
    done;
    let starts = Array.of_list !starts in
    let nb = Array.length starts in
    let last_of k = if k + 1 < nb then starts.(k + 1) - 1 else n - 1 in
    (* a label is a leader, so only a block's first instruction can be
       one *)
    let label_block = Hashtbl.create 16 in
    for k = 0 to nb - 1 do
      match code.(starts.(k)) with
      | I.Label l ->
          if not (Hashtbl.mem label_block l) then Hashtbl.add label_block l k
      | _ -> ()
    done;
    let succs = Array.make nb [] and preds = Array.make nb [] in
    for k = 0 to nb - 1 do
      let terminal = code.(last_of k) in
      let targets =
        List.filter_map
          (fun l -> Hashtbl.find_opt label_block l)
          (I.branch_targets terminal)
      in
      let fallthrough =
        match terminal with
        | I.Bra _ | I.Ret -> []
        | _ -> if k + 1 < nb then [ k + 1 ] else []
      in
      let all = List.sort_uniq Int.compare (targets @ fallthrough) in
      succs.(k) <- all;
      List.iter (fun s -> preds.(s) <- k :: preds.(s)) all
    done;
    let blocks =
      Array.init nb (fun k ->
          {
            bid = k;
            first = starts.(k);
            last = last_of k;
            succs = succs.(k);
            preds = List.rev preds.(k);
          })
    in
    { code; blocks; rpo = compute_rpo blocks; label_block }
  end

let reachable t =
  let r = Array.make (num_blocks t) false in
  let rec visit b =
    if not r.(b) then begin
      r.(b) <- true;
      List.iter visit t.blocks.(b).succs
    end
  in
  if num_blocks t > 0 then visit 0;
  r

(* Cooper–Harvey–Kennedy iterative dominators over the rpo.  Entry is
   its own idom; unreachable blocks keep -1 (they dominate nothing and
   are dominated by nothing, which makes [dominates] refuse them and
   the loop detector skip any "back edge" involving them). *)
let idoms t =
  let nb = num_blocks t in
  let idom = Array.make nb (-1) in
  if nb = 0 then idom
  else begin
    let reach = reachable t in
    (* position of each block in rpo, for the two-finger intersect *)
    let rpo_num = Array.make nb max_int in
    Array.iteri (fun pos b -> if rpo_num.(b) = max_int then rpo_num.(b) <- pos) t.rpo;
    idom.(0) <- 0;
    let intersect a b =
      let a = ref a and b = ref b in
      while !a <> !b do
        while rpo_num.(!a) > rpo_num.(!b) do a := idom.(!a) done;
        while rpo_num.(!b) > rpo_num.(!a) do b := idom.(!b) done
      done;
      !a
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          if b <> 0 && reach.(b) then begin
            let new_idom =
              List.fold_left
                (fun acc p ->
                  if not reach.(p) || idom.(p) = -1 then acc
                  else match acc with
                    | None -> Some p
                    | Some a -> Some (intersect p a))
                None t.blocks.(b).preds
            in
            match new_idom with
            | Some d when idom.(b) <> d ->
                idom.(b) <- d;
                changed := true
            | _ -> ()
          end)
        t.rpo
    done;
    idom
  end

let dominates ~idom a b =
  if a < 0 || b < 0 || a >= Array.length idom || b >= Array.length idom then
    false
  else if idom.(a) = -1 || idom.(b) = -1 then false
  else begin
    let rec walk b = if b = a then true else if b = 0 then a = 0 else walk idom.(b) in
    walk b
  end

type loop = { header : int; latches : int list; body : bool array }

let loops t =
  let nb = num_blocks t in
  if nb = 0 then []
  else begin
    let idom = idoms t in
    (* back edges: l -> h where h dominates l *)
    let by_header = Hashtbl.create 4 in
    Array.iter
      (fun b ->
        List.iter
          (fun s ->
            if dominates ~idom s b.bid then
              Hashtbl.replace by_header s
                (b.bid :: (Option.value ~default:[] (Hashtbl.find_opt by_header s))))
          b.succs)
      t.blocks;
    (* loops sharing a header are merged: union of the natural loops of
       each back edge (backward walk from every latch up to the header) *)
    let headers =
      List.sort Int.compare
        (Hashtbl.fold (fun h _ acc -> h :: acc) by_header [])
    in
    List.map
      (fun header ->
        let latches = List.sort Int.compare (Hashtbl.find by_header header) in
        let body = Array.make nb false in
        body.(header) <- true;
        let rec pull b =
          if not body.(b) then begin
            body.(b) <- true;
            List.iter pull t.blocks.(b).preds
          end
        in
        List.iter pull latches;
        { header; latches; body })
      headers
  end

let iter_instrs t b f =
  for i = t.blocks.(b).first to t.blocks.(b).last do
    f i t.code.(i)
  done

let pp ppf t =
  Array.iter
    (fun b ->
      Format.fprintf ppf "B%d [%d..%d] -> {%s} <- {%s}@," b.bid b.first b.last
        (String.concat "," (List.map string_of_int b.succs))
        (String.concat "," (List.map string_of_int b.preds)))
    t.blocks
