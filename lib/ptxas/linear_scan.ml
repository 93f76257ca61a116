module V = Safara_vir.Vreg
module I = Safara_vir.Instr
module Cfg = Safara_vir.Cfg
module B = Safara_vir.Dataflow.Bits

type interval = { reg : V.t; i_start : int; i_end : int }

(* one interval per register, from the optimizer's liveness fixpoint:
   anything live-in is live at its block's first instruction, anything
   live-out at its last, and every use or def touches its index. The
   first and last touch are kept in arrays indexed by rid. *)
let intervals facts =
  let cfg = Safara_vir.Facts.cfg facts in
  let live = Safara_vir.Facts.live facts in
  let regs = live.Safara_vir.Dataflow.Live.regs in
  let starts = Array.make (Array.length regs) max_int in
  let ends = Array.make (Array.length regs) min_int in
  let touch i id =
    if i < starts.(id) then starts.(id) <- i;
    if i > ends.(id) then ends.(id) <- i
  in
  let touch_reg i (r : V.t) = touch i r.V.rid in
  Array.iteri
    (fun k (b : Cfg.block) ->
      B.iter (touch b.Cfg.first) live.Safara_vir.Dataflow.Live.live_in.(k);
      B.iter (touch b.Cfg.last) live.Safara_vir.Dataflow.Live.live_out.(k);
      Cfg.iter_instrs cfg k (fun i instr ->
          I.iter_uses (touch_reg i) instr;
          I.iter_defs (touch_reg i) instr))
    cfg.Cfg.blocks;
  let ivs = ref [] in
  for id = Array.length starts - 1 downto 0 do
    if starts.(id) <> max_int then
      ivs := { reg = regs.(id); i_start = starts.(id); i_end = ends.(id) } :: !ivs
  done;
  (* the list is in rid order, so a stable sort breaks ties by rid *)
  List.stable_sort (fun a b -> Int.compare a.i_start b.i_start) !ivs

type result = {
  assignment : (V.t * int) list;
  regs_used : int;
  spilled : V.t list;
  pred_used : int;
}

(* an interval holding units [base, base + width); [seq] is its
   placement order *)
type active = { iv : interval; base : int; seq : int; mutable evicted : bool }

(* the active set, by end point, then placement order: expiry pops the
   front, the spill victim is the back *)
module Active = Set.Make (struct
  type t = active

  let compare a b =
    match Int.compare a.iv.i_end b.iv.i_end with
    | 0 -> Int.compare a.seq b.seq
    | c -> c
end)

let allocate ~max_regs facts =
  let ivs = intervals facts in
  let free = Array.make (max max_regs 2) true in
  let placed = ref [] and placements = ref 0 in
  let spilled = ref [] in
  let regs_used = ref 0 in
  let pred_used = ref 0 in
  let preds_seen = Hashtbl.create 8 in
  let active = ref Active.empty in
  let set_free base width v =
    for u = base to base + width - 1 do
      free.(u) <- v
    done
  in
  let rec expire now =
    match Active.min_elt_opt !active with
    | Some a when a.iv.i_end < now ->
        active := Active.remove a !active;
        set_free a.base (V.width a.iv.reg) true;
        expire now
    | _ -> ()
  in
  let find_slot width =
    let step = if width = 2 then 2 else 1 in
    let rec fits u k = k = width || (free.(u + k) && fits u (k + 1)) in
    let rec go u =
      if u + width > max_regs then None
      else if fits u 0 then Some u
      else go (u + step)
    in
    go 0
  in
  let rec place iv =
    let width = V.width iv.reg in
    match find_slot width with
    | Some base ->
        set_free base width false;
        regs_used := max !regs_used (base + width);
        let a = { iv; base; seq = !placements; evicted = false } in
        incr placements;
        placed := a :: !placed;
        active := Active.add a !active
    | None -> (
        (* spill the active interval ending furthest away (the most
           recently placed of those), or this one *)
        match Active.max_elt_opt !active with
        | Some v when v.iv.i_end > iv.i_end ->
            spilled := v.iv.reg :: !spilled;
            v.evicted <- true;
            active := Active.remove v !active;
            set_free v.base (V.width v.iv.reg) true;
            place iv
        | _ -> spilled := iv.reg :: !spilled)
  in
  List.iter
    (fun (iv : interval) ->
      match V.cls iv.reg with
      | V.Pred ->
          if not (Hashtbl.mem preds_seen iv.reg.V.rid) then begin
            Hashtbl.add preds_seen iv.reg.V.rid ();
            incr pred_used
          end
      | V.B32 | V.B64 ->
          expire iv.i_start;
          place iv)
    ivs;
  {
    assignment =
      List.fold_left
        (fun acc a -> if a.evicted then acc else (a.iv.reg, a.base) :: acc)
        [] !placed;
    regs_used = !regs_used;
    spilled = List.rev !spilled;
    pred_used = !pred_used;
  }

let verify facts res =
  let ivs = intervals facts in
  let find r = List.find_opt (fun iv -> V.equal iv.reg r) ivs in
  let assigned = res.assignment in
  let overlap (a : interval) (b : interval) =
    a.i_start <= b.i_end && b.i_start <= a.i_end
  in
  (* precompute each assignment's occupied unit range once instead of
     rebuilding both unit lists for every pair *)
  let with_units =
    List.map
      (fun (r, base) -> (r, base, base + V.width r - 1, find r))
      assigned
  in
  let ranges_meet lo1 hi1 lo2 hi2 = lo1 <= hi2 && lo2 <= hi1 in
  let rec check = function
    | [] -> Ok ()
    | (r1, b1, e1, iv1) :: rest -> (
        if V.width r1 = 2 && b1 mod 2 <> 0 then
          Error (Printf.sprintf "%s not pair-aligned at %d" (V.to_string r1) b1)
        else
          match iv1 with
          | None -> Error (V.to_string r1 ^ " has no interval")
          | Some iv1 -> (
              let conflict =
                List.find_opt
                  (fun (r2, b2, e2, iv2) ->
                    (not (V.equal r1 r2))
                    && ranges_meet b1 e1 b2 e2
                    &&
                    match iv2 with
                    | Some iv2 -> overlap iv1 iv2
                    | None -> false)
                  rest
              in
              match conflict with
              | Some (r2, _, _, _) ->
                  Error
                    (Printf.sprintf "%s and %s share a unit while both live"
                       (V.to_string r1) (V.to_string r2))
              | None -> check rest))
  in
  check with_units
