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

(* Folds each instruction, forwards the copies of its block into its
   uses, and folds it again. The copy window is indexed by register
   id: the operand each register holds a copy of, and for each source
   register the registers whose copy may name it (an entry goes stale
   when its copier is redefined; readers check). A def clears only its
   own copiers, and a control-flow reset only the registers the block
   touched. *)
let fold_and_propagate ~nregs code =
  let copy = Array.make nregs None and copiers = Array.make nregs [] in
  (* the registers given a copy or named by one since the last reset:
     at most two per instruction *)
  let touched = Array.make (2 * Array.length code) 0 and ntouched = ref 0 in
  let touch rid =
    touched.(!ntouched) <- rid;
    incr ntouched
  in
  let reset () =
    for t = 0 to !ntouched - 1 do
      copy.(touched.(t)) <- None;
      copiers.(touched.(t)) <- []
    done;
    ntouched := 0
  in
  let rec clear rid = function
    | [] -> ()
    | k :: rest ->
        (match copy.(k) with
        | Some (I.Reg s) when s.V.rid = rid -> copy.(k) <- None
        | _ -> ());
        clear rid rest
  in
  let invalidate rid =
    copy.(rid) <- None;
    clear rid copiers.(rid);
    copiers.(rid) <- []
  in
  let subst (r : V.t) =
    match copy.(r.V.rid) with
    | Some (I.Reg s) when s.V.rty == r.V.rty -> s
    | _ -> r
  in
  let subst_op (op : I.operand) =
    match op with
    | I.Reg r -> (
        match copy.(r.V.rid) with
        | Some (I.Reg s as replacement) when s.V.rty == r.V.rty -> replacement
        | Some ((I.Imm _ | I.FImm _) as replacement) -> replacement
        | Some (I.Reg _) | None -> op)
    | _ -> op
  in
  let propagate instr =
    match instr with
    | I.Label _ | I.Bra _ | I.Brc _ | I.Ret ->
        (* control flow: be conservative, clear the window *)
        let instr' =
          match instr with
          | I.Brc r -> (
              match copy.(r.pred.V.rid) with
              | Some (I.Reg p) -> I.Brc { r with pred = p }
              | _ -> instr)
          | _ -> instr
        in
        reset ();
        instr'
    | _ ->
        (* rewrite uses; Ld/St/Atom addresses are plain registers *)
        let instr' = I.map_uses subst subst_op instr in
        let d = I.def instr' in
        if d != I.no_def then invalidate d.V.rid;
        (match instr' with
        | I.Mov { dst; src = I.Reg s as src } when not (V.equal dst s) ->
            copy.(dst.V.rid) <- Some src;
            copiers.(s.V.rid) <- dst.V.rid :: copiers.(s.V.rid);
            touch dst.V.rid;
            touch s.V.rid
        | I.Mov { dst; src = (I.Imm _ | I.FImm _) as c } ->
            copy.(dst.V.rid) <- Some c;
            touch dst.V.rid
        | _ -> ());
        instr'
  in
  Array.map (fun ins -> fold_instr (propagate (fold_instr ins))) code

(* --- dead-code elimination ------------------------------------------ *)

let is_pure = function
  | I.Mov _ | I.Bin _ | I.Una _ | I.Cvt _ | I.Setp _ | I.Spec _ | I.Ldp _
  | I.Ld _ ->
      true
  | I.Label _ | I.St _ | I.Bra _ | I.Brc _ | I.Atom _ | I.Ret -> false

(* Worklist formulation of usedness DCE: delete a pure instruction
   (each defines exactly one register) when no remaining instruction
   uses its register, and when a deletion drops a use count to zero
   re-examine that register's definers. Deletion only ever exposes
   more deletions, so any worklist order reaches the same (unique)
   fixpoint in O(n) total work. Output order is the original order.
   Use counts are indexed by register id; the pure definers of a
   register are a chain through [def_next], headed by [def_head]. *)
let dead_code_eliminate ~nregs code =
  let n = Array.length code in
  let alive = Array.make n true in
  let use_count = Array.make nregs 0 in
  let def_head = Array.make nregs (-1) and def_next = Array.make n (-1) in
  Array.iteri
    (fun i ins ->
      I.iter_uses
        (fun (r : V.t) -> use_count.(r.V.rid) <- use_count.(r.V.rid) + 1)
        ins;
      if is_pure ins then begin
        let d = (I.def ins).V.rid in
        def_next.(i) <- def_head.(d);
        def_head.(d) <- i
      end)
    code;
  let removable i =
    is_pure code.(i) && use_count.((I.def code.(i)).V.rid) = 0
  in
  (* each instruction is pushed at most once: here, when its register
     has no use, or else when that register's use count reaches zero *)
  let work = Array.make n 0 and top = ref 0 in
  let push i =
    work.(!top) <- i;
    incr top
  in
  for i = n - 1 downto 0 do
    if removable i then push i
  done;
  let removed = ref 0 in
  while !top > 0 do
    decr top;
    let i = work.(!top) in
    if alive.(i) && removable i then begin
      alive.(i) <- false;
      incr removed;
      I.iter_uses
        (fun (r : V.t) ->
          let rid = r.V.rid in
          use_count.(rid) <- use_count.(rid) - 1;
          if use_count.(rid) = 0 then begin
            let j = ref def_head.(rid) in
            while !j >= 0 do
              if alive.(!j) then push !j;
              j := def_next.(!j)
            done
          end)
        code.(i)
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

let optimize ~nregs code =
  let out = fold_and_propagate ~nregs code |> dead_code_eliminate ~nregs in
  (* every step keeps an instruction it leaves alone physically, so
     a kernel with nothing to rewrite gets its input array back *)
  if Array.length out = Array.length code && Array.for_all2 ( == ) out code
  then code
  else out
