(* Global copy propagation over the available-copies dataflow.

   The peephole's copy window resets at every label and branch; this
   pass carries the window across the CFG with a must-analysis, so a
   copy made before a branch is still forwarded in both arms and
   after the join (when every path agrees). Substitution rules are
   exactly the peephole's — same-type register forwarding, immediate
   forwarding into operand positions — so each rewrite is one the
   block-local pass is already proven to preserve.

   Trivial elimination rides along: a [mov x, x] (often created by
   the substitution itself) is deleted; everything else dead is left
   to the [dce] pass that follows in the pipeline. *)

module I = Instr
module V = Vreg
module C = Dataflow.Copies

let subst_reg m (r : V.t) =
  match C.find r.V.rid m with
  | Some (I.Reg s) when s.V.rty = r.V.rty -> s
  | _ -> r

let rewrite m ins =
  let subst_op op =
    match op with
    | I.Reg r -> (
        match C.find r.V.rid m with
        | Some (I.Reg s) when s.V.rty = r.V.rty -> I.Reg s
        | Some ((I.Imm _ | I.FImm _) as c) -> c
        | _ -> op)
    | _ -> op
  in
  I.map_uses (subst_reg m) subst_op ins

let optimize f =
  let code = Facts.code f in
  if Array.length code = 0 then f
  else begin
    let cfg = Facts.cfg f in
    let at_start, _ = C.analyze cfg in
    let out = ref [] and changed = ref false in
    for b = 0 to Cfg.num_blocks cfg - 1 do
      let m =
        (* top only on unreachable blocks: nothing is known there *)
        ref (match at_start.(b) with Some m -> m | None -> C.empty)
      in
      Cfg.iter_instrs cfg b (fun _ ins ->
          let ins' = rewrite !m ins in
          if ins' != ins then changed := true;
          (* the window advances over the rewritten instruction, as in
             the block-local pass: its operands are the live names *)
          m := C.step_map !m ins';
          match ins' with
          | I.Mov { dst; src = I.Reg s } when V.equal dst s -> changed := true
          | _ -> out := ins' :: !out)
    done;
    if !changed then Facts.make (Array.of_list (List.rev !out)) else f
  end
