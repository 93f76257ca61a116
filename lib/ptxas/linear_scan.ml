module V = Safara_vir.Vreg
module I = Safara_vir.Instr
module Cfg = Safara_vir.Cfg

type interval = { reg : V.t; i_start : int; i_end : int }

(* one interval per register, from the optimizer's liveness fixpoint:
   anything live-in is live at its block's first instruction, anything
   live-out at its last, and every use or def touches its index *)
let intervals (cfg : Cfg.t) =
  let live = Safara_vir.Dataflow.Live.analyze cfg in
  let tbl : (int, interval) Hashtbl.t = Hashtbl.create 64 in
  let touch i (r : V.t) =
    match Hashtbl.find_opt tbl r.V.rid with
    | None -> Hashtbl.replace tbl r.V.rid { reg = r; i_start = i; i_end = i }
    | Some iv ->
        Hashtbl.replace tbl r.V.rid
          { reg = r; i_start = min iv.i_start i; i_end = max iv.i_end i }
  in
  Array.iteri
    (fun k (b : Cfg.block) ->
      V.Set.iter (touch b.Cfg.first) live.Safara_vir.Dataflow.Live.live_in.(k);
      V.Set.iter (touch b.Cfg.last) live.Safara_vir.Dataflow.Live.live_out.(k);
      Cfg.iter_instrs cfg k (fun i instr ->
          List.iter (touch i) (I.uses instr);
          List.iter (touch i) (I.defs instr)))
    cfg.Cfg.blocks;
  Hashtbl.fold (fun _ iv acc -> iv :: acc) tbl []
  |> List.sort (fun a b ->
         match Int.compare a.i_start b.i_start with
         | 0 -> Int.compare a.reg.V.rid b.reg.V.rid
         | c -> c)

type result = {
  assignment : (V.t * int) list;
  regs_used : int;
  spilled : V.t list;
  pred_used : int;
}

type active = { iv : interval; base : int }

let allocate ~max_regs (cfg : Cfg.t) =
  let ivs = intervals cfg in
  let free = Array.make (max max_regs 2) true in
  let assignment = ref [] in
  let spilled = ref [] in
  let regs_used = ref 0 in
  let pred_used = ref 0 in
  let preds_seen = Hashtbl.create 8 in
  let active : active list ref = ref [] in
  let release base width =
    for u = base to base + width - 1 do
      free.(u) <- true
    done
  in
  let claim base width =
    for u = base to base + width - 1 do
      free.(u) <- false
    done;
    regs_used := max !regs_used (base + width)
  in
  let expire now =
    let keep, gone = List.partition (fun a -> a.iv.i_end >= now) !active in
    List.iter (fun a -> release a.base (V.width a.iv.reg)) gone;
    active := keep
  in
  let find_slot width =
    let step = if width = 2 then 2 else 1 in
    let rec go u =
      if u + width > max_regs then None
      else if Array.for_all Fun.id (Array.sub free u width) then Some u
      else go (u + step)
    in
    go 0
  in
  let rec place iv =
    let width = V.width iv.reg in
    match find_slot width with
    | Some base ->
        claim base width;
        assignment := (iv.reg, base) :: !assignment;
        active := { iv; base } :: !active
    | None -> (
        (* spill the active interval ending furthest away (or this one) *)
        let victim =
          List.fold_left
            (fun best a ->
              match best with
              | None -> Some a
              | Some b ->
                  if a.iv.i_end > b.iv.i_end then Some a else best)
            None !active
        in
        match victim with
        | Some v when v.iv.i_end > iv.i_end ->
            spilled := v.iv.reg :: !spilled;
            assignment :=
              List.filter (fun (r, _) -> not (V.equal r v.iv.reg)) !assignment;
            active := List.filter (fun a -> a != v) !active;
            release v.base (V.width v.iv.reg);
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
    assignment = List.rev !assignment;
    regs_used = !regs_used;
    spilled = List.rev !spilled;
    pred_used = !pred_used;
  }

let verify (cfg : Cfg.t) res =
  let ivs = intervals cfg in
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
