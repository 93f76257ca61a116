module I = Instr
module V = Vreg
module T = Safara_ir.Types

(* --- constant folding & identities --------------------------------- *)

let fold_instr (instr : I.t) : I.t =
  match instr with
  | I.Bin { op; dst; a = I.Imm x; b = I.Imm y } when T.is_integer dst.V.rty ->
      let v =
        match op with
        | I.Add -> Some (x + y)
        | I.Sub -> Some (x - y)
        | I.Mul -> Some (x * y)
        | I.Div -> if y = 0 then None else Some (x / y)
        | I.Rem -> if y = 0 then None else Some (x mod y)
        | I.Min -> Some (min x y)
        | I.Max -> Some (max x y)
        | I.Pow | I.And | I.Or -> None
      in
      (match v with
      | Some v -> I.Mov { dst; src = I.Imm v }
      | None -> instr)
  | I.Bin { op = I.Add; dst; a; b = I.Imm 0 }
  | I.Bin { op = I.Sub; dst; a; b = I.Imm 0 }
  | I.Bin { op = I.Add; dst; a = I.Imm 0; b = a }
  | I.Bin { op = I.Mul; dst; a; b = I.Imm 1 }
  | I.Bin { op = I.Mul; dst; a = I.Imm 1; b = a }
  | I.Bin { op = I.Div; dst; a; b = I.Imm 1 } ->
      I.Mov { dst; src = a }
  | _ -> instr

(* --- block-local copy propagation ----------------------------------- *)

let copy_propagate code =
  let copies : (int, I.operand) Hashtbl.t = Hashtbl.create 32 in
  let invalidate (r : V.t) =
    Hashtbl.remove copies r.V.rid;
    (* any copy whose source is r is stale now *)
    let stale =
      Hashtbl.fold
        (fun k v acc -> match v with I.Reg s when V.equal s r -> k :: acc | _ -> acc)
        copies []
    in
    List.iter (Hashtbl.remove copies) stale
  in
  Array.map
    (fun instr ->
      match instr with
      | I.Label _ | I.Bra _ | I.Brc _ | I.Ret ->
          (* control flow: be conservative, clear the window *)
          let instr' =
            match instr with
            | I.Brc r -> (
                match Hashtbl.find_opt copies r.pred.V.rid with
                | Some (I.Reg p) -> I.Brc { r with pred = p }
                | _ -> instr)
            | _ -> instr
          in
          Hashtbl.reset copies;
          instr'
      | _ ->
          let subst (r : V.t) =
            match Hashtbl.find_opt copies r.V.rid with
            | Some (I.Reg s) when s.V.rty = r.V.rty -> s
            | _ -> r
          in
          let subst_op (op : I.operand) =
            match op with
            | I.Reg r -> (
                match Hashtbl.find_opt copies r.V.rid with
                | Some replacement -> (
                    match replacement with
                    | I.Reg s when s.V.rty = r.V.rty -> replacement
                    | I.Imm _ | I.FImm _ -> replacement
                    | I.Reg _ -> op)
                | None -> op)
            | _ -> op
          in
          (* rewrite uses; Ld/St/Atom addresses are plain registers *)
          let instr' = I.map_uses subst subst_op instr in
          (* update the copy window *)
          List.iter invalidate (I.defs instr');
          (match instr' with
          | I.Mov { dst; src = I.Reg s } when not (V.equal dst s) ->
              Hashtbl.replace copies dst.V.rid (I.Reg s)
          | I.Mov { dst; src = (I.Imm _ | I.FImm _) as c } ->
              Hashtbl.replace copies dst.V.rid c
          | _ -> ());
          instr')
    code

(* --- dead-code elimination ------------------------------------------ *)

let is_pure = function
  | I.Mov _ | I.Bin _ | I.Una _ | I.Cvt _ | I.Setp _ | I.Spec _ | I.Ldp _
  | I.Ld _ ->
      true
  | I.Label _ | I.St _ | I.Bra _ | I.Brc _ | I.Atom _ | I.Ret -> false

(* Worklist formulation of usedness DCE: delete a pure single-def
   instruction when no remaining instruction uses its register, and
   when a deletion drops a use count to zero re-examine that
   register's definers. Deletion only ever exposes more deletions, so
   this reaches the same (unique) fixpoint as the old
   rescan-until-stable loop — which rebuilt the whole use table per
   round and went quadratic on long dead chains — in O(n) total
   work. Output order is the original order, so results are
   byte-identical. *)
let dead_code_eliminate code =
  let n = Array.length code in
  let alive = Array.make n true in
  let use_count = Hashtbl.create 64 in
  let count rid = Option.value ~default:0 (Hashtbl.find_opt use_count rid) in
  (* rid -> every pure single-def instruction defining it *)
  let def_sites = Hashtbl.create 64 in
  Array.iteri
    (fun i ins ->
      List.iter
        (fun (r : V.t) -> Hashtbl.replace use_count r.V.rid (count r.V.rid + 1))
        (I.uses ins);
      if is_pure ins then
        match I.defs ins with
        | [ d ] -> Hashtbl.add def_sites d.V.rid i
        | _ -> ())
    code;
  let removable i =
    is_pure code.(i)
    &&
    match I.defs code.(i) with [ d ] -> count d.V.rid = 0 | _ -> false
  in
  let work = Queue.create () in
  for i = 0 to n - 1 do
    if removable i then Queue.add i work
  done;
  let removed = ref 0 in
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    if alive.(i) && removable i then begin
      alive.(i) <- false;
      incr removed;
      List.iter
        (fun (r : V.t) ->
          Hashtbl.replace use_count r.V.rid (count r.V.rid - 1);
          if count r.V.rid = 0 then
            List.iter
              (fun j -> if alive.(j) then Queue.add j work)
              (Hashtbl.find_all def_sites r.V.rid))
        (I.uses code.(i))
    end
  done;
  if !removed = 0 then code
  else begin
    let out = Array.make (n - !removed) code.(0) in
    let j = ref 0 in
    Array.iteri
      (fun i ins ->
        if alive.(i) then begin
          out.(!j) <- ins;
          incr j
        end)
      code;
    out
  end

let optimize code =
  let out =
    code |> Array.map fold_instr |> copy_propagate |> Array.map fold_instr
    |> dead_code_eliminate
  in
  (* every step keeps an instruction it leaves alone physically, so
     a kernel with nothing to rewrite gets its input array back *)
  if Array.length out = Array.length code && Array.for_all2 ( == ) out code
  then code
  else out

let stats before after =
  Printf.sprintf "peephole: %d -> %d instructions" (Array.length before)
    (Array.length after)
