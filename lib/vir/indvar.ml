(* Induction-variable rewriting (the "indvar" pipeline pass).

   Classical strength reduction of per-iteration address recomputation:
   codegen addresses an array element inside a sequential loop with a
   fresh `sub;mul;add;…;mul;cvt;add` chain every iteration, even though
   the chain's value advances by a loop-invariant stride.  This pass
   finds those chains and replaces each chain-end register with

     - an initialization in the loop preheader (a clone of the chain,
       computing the first-iteration value), and
     - a single `add dst, dst, stride` across the back edge.

   The per-iteration chain is left in place; once its results are
   unused, [Dce] (which runs after this pass) sweeps it, so the hot
   loop body shrinks from the full recomputation to one add per
   rewritten register.

   Legality rests on three facts.  (1) Natural-loop structure: the
   header dominates every body block, so each iteration passes through
   the header exactly once, and we only fire when the loop has a single
   latch carrying every basic-IV increment — the increments we append
   there run in lockstep with the basic IVs.  (2) Simulator integer
   arithmetic is native OCaml int arithmetic and `cvt` between integer
   widths is a runtime identity, so add/sub/mul distribute exactly even
   under overflow: maintaining `A + S*i` incrementally is bit-identical
   to recomputing it.  (3) The cloned preheader code also executes when
   the loop is skipped (the preheader ends in the zero-trip guard), so
   the closure is restricted to non-trapping ops (mov/cvt/add/sub/mul/
   neg) writing registers that are dead outside the loop. *)

module I = Instr
module V = Vreg
module T = Safara_ir.Types
module IM = Map.Make (Int)
module IS = Set.Make (Int)

(* ---- stride algebra ------------------------------------------------

   A per-iteration stride is a small polynomial over loop-invariant
   registers: a list of terms [coeff * r1 * r2 * …].  Terms with equal
   register multisets are combined; an empty list means the value does
   not actually advance (e.g. `i - i`) and collapses to invariant. *)

type term = { coeff : int; regs : int list (* sorted rids *) }

let norm_terms terms =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun t ->
      let k = t.regs in
      Hashtbl.replace tbl k (t.coeff + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    terms;
  Hashtbl.fold
    (fun regs coeff acc -> if coeff = 0 then acc else { coeff; regs } :: acc)
    tbl []
  |> List.sort compare

let scale_terms k terms =
  if k = 0 then [] else List.map (fun t -> { t with coeff = t.coeff * k }) terms

let mul_terms_reg rid terms =
  List.map (fun t -> { t with regs = List.sort Int.compare (rid :: t.regs) }) terms

(* symbolic value of a register at a point in the header scan *)
type sym =
  | Inv  (* recomputed identically every iteration *)
  | Iv of term list  (* advances by this stride per iteration; nonempty *)
  | Unknown

let stride_key terms = List.map (fun t -> (t.coeff, t.regs)) terms

(* ---- per-loop rewrite ---------------------------------------------- *)

let clonable = function
  | I.Mov _ | I.Cvt _ -> true
  | I.Bin { op = I.Add | I.Sub | I.Mul; _ } -> true
  | I.Una { op = I.Neg; _ } -> true
  | _ -> false

let integer (r : V.t) = T.is_integer r.V.rty

(* per-CFG register facts, shared by every loop tried on one CFG:
   each rid's use count over the whole code, and its last definition
   (the register at its true type) *)
type facts = { uses_total : int array; last_def : V.t option array }

let facts_of code ~nregs =
  let uses_total = Array.make nregs 0 and last_def = Array.make nregs None in
  Array.iter
    (fun ins ->
      I.iter_defs (fun (r : V.t) -> last_def.(r.V.rid) <- Some r) ins;
      I.iter_uses
        (fun (r : V.t) -> uses_total.(r.V.rid) <- uses_total.(r.V.rid) + 1)
        ins)
    code;
  { uses_total; last_def }

type edits = {
  mutable deleted : IS.t;
  mutable inserts : I.t list IM.t;  (* insert (reversed) before index *)
}

let add_insert e idx ins =
  e.inserts <-
    IM.update idx
      (fun prev -> Some (ins :: Option.value ~default:[] prev))
      e.inserts

let apply_edits code e =
  let out = ref [] in
  let n = Array.length code in
  for i = n downto 0 do
    if i < n && not (IS.mem i e.deleted) then out := code.(i) :: !out;
    match IM.find_opt i e.inserts with
    | Some rev -> out := List.rev_append rev !out
    | None -> ()
  done;
  Array.of_list !out

(* insertion point "at the end of block b, before its terminal branch" *)
let tail_insert_index cfg b =
  let blk = cfg.Cfg.blocks.(b) in
  if I.is_branch cfg.Cfg.code.(blk.Cfg.last) then blk.Cfg.last else blk.Cfg.last + 1

let try_loop cfg (loop : Cfg.loop) ~facts ~fresh =
  let code = cfg.Cfg.code in
  match loop.Cfg.latches with
  | [] | _ :: _ :: _ -> None
  | [ latch ] -> (
      let header = loop.Cfg.header in
      let hblk = cfg.Cfg.blocks.(header) in
      match hblk.Cfg.preds with
      | [ a; b ] when (a = latch) <> (b = latch) -> (
          let pre = if a = latch then b else a in
          (* the latch must re-enter the loop only through the header:
             the appended increments run once per latch execution, so a
             latch → body path skipping the header would observe them
             early *)
          let latch_ok =
            List.for_all
              (fun s -> s = header || not loop.Cfg.body.(s))
              cfg.Cfg.blocks.(latch).Cfg.succs
          in
          if loop.Cfg.body.(pre) || not latch_ok then None
          else begin
            (* per register inside the loop: def count, last def
               position and use positions *)
            let nregs = Array.length facts.uses_total in
            let def_count = Array.make nregs 0 in
            let def_pos = Array.make nregs (-1) in
            let use_pos = Array.make nregs [] in
            Array.iter
              (fun (blk : Cfg.block) ->
                if loop.Cfg.body.(blk.Cfg.bid) then
                  for i = blk.Cfg.first to blk.Cfg.last do
                    I.iter_defs
                      (fun (r : V.t) ->
                        def_count.(r.V.rid) <- def_count.(r.V.rid) + 1;
                        def_pos.(r.V.rid) <- i)
                      code.(i);
                    I.iter_uses
                      (fun (r : V.t) -> use_pos.(r.V.rid) <- i :: use_pos.(r.V.rid))
                      code.(i)
                  done)
              cfg.Cfg.blocks;
            let defs_in_loop rid = def_count.(rid) in
            let used_outside rid =
              facts.uses_total.(rid) > List.length use_pos.(rid)
            in
            (* basic IVs: single in-loop def, in the latch block, of the
               form add/sub self, imm; [basic] holds the step (0: not a
               basic IV) *)
            let basic = Array.make nregs 0 in
            let first_basic_def = ref max_int in
            let lblk = cfg.Cfg.blocks.(latch) in
            for i = lblk.Cfg.first to lblk.Cfg.last do
              match code.(i) with
              | I.Bin { op; dst; a; b }
                when integer dst && defs_in_loop dst.V.rid = 1 -> (
                  let step =
                    match (op, a, b) with
                    | I.Add, I.Reg r, I.Imm c when V.equal r dst -> Some c
                    | I.Add, I.Imm c, I.Reg r when V.equal r dst -> Some c
                    | I.Sub, I.Reg r, I.Imm c when V.equal r dst -> Some (-c)
                    | _ -> None
                  in
                  match step with
                  | Some c when c <> 0 ->
                      basic.(dst.V.rid) <- c;
                      if i < !first_basic_def then first_basic_def := i
                  | _ -> ())
              | _ -> ()
            done;
            if !first_basic_def = max_int then None
            else begin
              (* scan the header block top-down, stopping at the first
                 basic-IV increment (only relevant when header = latch) *)
              let sym = Array.make nregs None in
              let sym_of_reg (r : V.t) =
                if not (integer r) then Unknown
                else
                  match sym.(r.V.rid) with
                  | Some s -> s
                  | None ->
                      let step = basic.(r.V.rid) in
                      if step <> 0 then Iv [ { coeff = step; regs = [] } ]
                      else if defs_in_loop r.V.rid = 0 then Inv
                      else Unknown
              in
              let sym_of_op = function
                | I.Imm _ -> Inv
                | I.FImm _ -> Unknown
                | I.Reg r -> sym_of_reg r
              in
              (* a register usable as a stride factor: invariant, and
                 materializable in the preheader (outside the loop, or a
                 clonable scanned def — resolved via the closure walk) *)
              let iv_or_inv = function Unknown -> false | _ -> true in
              let chain_defs = ref IS.empty in  (* scanned indices that yielded Iv *)
              let scanned = ref IS.empty in  (* all scanned def indices *)
              let stop =
                if latch = header then min (hblk.Cfg.last + 1) !first_basic_def
                else hblk.Cfg.last + 1
              in
              for i = hblk.Cfg.first to stop - 1 do
                let ins = code.(i) in
                match I.defs ins with
                | [] -> ()
                | _ :: _ :: _ -> ()
                | [ dst ] ->
                    let s =
                      if not (integer dst) then Unknown
                      else
                        match ins with
                        | I.Mov { src; _ } -> sym_of_op src
                        | I.Cvt { src; _ } ->
                            if integer src then sym_of_reg src else Unknown
                        | I.Una { op = I.Neg; a; _ } -> (
                            match sym_of_op a with
                            | Iv ts -> (
                                match norm_terms (scale_terms (-1) ts) with
                                | [] -> Inv
                                | ts -> Iv ts)
                            | s -> s)
                        | I.Bin { op = I.Add | I.Sub as op; a; b; _ } -> (
                            let sa = sym_of_op a and sb = sym_of_op b in
                            if not (iv_or_inv sa && iv_or_inv sb) then Unknown
                            else
                              let ta = match sa with Iv ts -> ts | _ -> [] in
                              let tb = match sb with Iv ts -> ts | _ -> [] in
                              let tb = if op = I.Sub then scale_terms (-1) tb else tb in
                              match norm_terms (ta @ tb) with
                              | [] -> Inv
                              | ts -> Iv ts)
                        | I.Bin { op = I.Mul; a; b; _ } -> (
                            let sa = sym_of_op a and sb = sym_of_op b in
                            match (sa, sb) with
                            | Inv, Inv -> Inv
                            | Iv ts, Inv | Inv, Iv ts -> (
                                let inv_op = if sa = Inv then a else b in
                                match inv_op with
                                | I.Imm k -> (
                                    match norm_terms (scale_terms k ts) with
                                    | [] -> Inv
                                    | ts -> Iv ts)
                                | I.Reg r -> Iv (mul_terms_reg r.V.rid ts)
                                | I.FImm _ -> Unknown)
                            | _ -> Unknown)
                        | _ -> Unknown
                    in
                    scanned := IS.add i !scanned;
                    (match s with
                     | Iv _ -> chain_defs := IS.add i !chain_defs
                     | _ -> ());
                    sym.(dst.V.rid) <- Some s
              done;
              (* candidate selection *)
              let candidates =
                IS.fold
                  (fun i acc ->
                    match I.defs code.(i) with
                    | [ dst ] -> (
                        match sym.(dst.V.rid) with
                        | Some (Iv terms)
                          when defs_in_loop dst.V.rid = 1
                               && not (used_outside dst.V.rid)
                               && (* a "sink": some use escapes the scanned
                                     affine chain, so keeping it incrementally
                                     actually removes work *)
                               List.exists
                                 (fun u -> u <> i && not (IS.mem u !chain_defs))
                                 use_pos.(dst.V.rid) ->
                            (i, dst, terms) :: acc
                        | _ -> acc)
                    | _ -> acc)
                  !chain_defs []
                |> List.sort (fun (i, _, _) (j, _, _) -> Int.compare i j)
              in
              if candidates = [] then None
              else begin
                (* dependency closure over the scanned prefix: every
                   in-loop register the clones and stride products read
                   must itself have a clonable scanned def *)
                let cand_idx =
                  List.fold_left (fun s (i, _, _) -> IS.add i s) IS.empty candidates
                in
                let closure = ref IS.empty in
                let exception Unclonable in
                let rec need_reg (r : V.t) =
                  if defs_in_loop r.V.rid = 0 || basic.(r.V.rid) <> 0 then ()
                  else
                    let i = def_pos.(r.V.rid) in
                    if
                      IS.mem i !scanned
                      && defs_in_loop r.V.rid = 1
                      && clonable code.(i)
                    then begin
                      if not (IS.mem i !closure) then begin
                        closure := IS.add i !closure;
                        I.iter_uses need_reg code.(i)
                      end
                    end
                    else raise Unclonable
                in
                let need_rid rid = need_reg { V.rid; rty = T.I32 } in
                let ok =
                  List.filter
                    (fun (i, _, terms) ->
                      let saved = !closure in
                      try
                        if not (clonable code.(i)) then raise Unclonable;
                        closure := IS.add i !closure;
                        I.iter_uses need_reg code.(i);
                        List.iter (fun t -> List.iter need_rid t.regs) terms;
                        true
                      with Unclonable ->
                        closure := saved;
                        false)
                    candidates
                in
                if ok = [] then None
                else begin
                  (* rename map for the cloned prefix: candidates keep
                     their register (that is the initialization); other
                     closure defs get fresh registers *)
                  let rename = Hashtbl.create 16 in
                  IS.iter
                    (fun i ->
                      match I.defs code.(i) with
                      | [ d ] ->
                          if not (IS.mem i cand_idx) then
                            Hashtbl.replace rename d.V.rid
                              { V.rid = fresh (); rty = d.V.rty }
                      | _ -> ())
                    !closure;
                  let rn (r : V.t) =
                    Option.value ~default:r (Hashtbl.find_opt rename r.V.rid)
                  in
                  let edits = { deleted = IS.empty; inserts = IM.empty } in
                  let pre_at = tail_insert_index cfg pre in
                  let latch_at = tail_insert_index cfg latch in
                  (* 1. clone the chain prefix into the preheader; within
                     the clone a candidate's own def keeps its register
                     (uses of it by later clones read the initialization,
                     which is the same value) *)
                  IS.iter
                    (fun i ->
                      let ins = code.(i) in
                      let ins' =
                        if IS.mem i cand_idx then
                          I.map_regs (fun r -> if List.mem r (I.defs ins) then r else rn r) ins
                        else I.map_regs rn ins
                      in
                      add_insert edits pre_at ins')
                    !closure;
                  (* 2. materialize each distinct stride once *)
                  let stride_cache = Hashtbl.create 4 in
                  let materialize rty terms =
                    match terms with
                    | [ { coeff; regs = [] } ] -> I.Imm coeff
                    | _ -> (
                        let key = (stride_key terms, rty) in
                        match Hashtbl.find_opt stride_cache key with
                        | Some op -> op
                        | None ->
                            let emit ins = add_insert edits pre_at ins in
                            let to_rty (r : V.t) =
                              if r.V.rty = rty then r
                              else begin
                                let d = { V.rid = fresh (); rty } in
                                emit (I.Cvt { dst = d; src = r });
                                d
                              end
                            in
                            let term_value t =
                              match t.regs with
                              | [] ->
                                  let d = { V.rid = fresh (); rty } in
                                  emit (I.Mov { dst = d; src = I.Imm t.coeff });
                                  d
                              | r0 :: rest ->
                                  let base rid =
                                    rn { V.rid = rid; rty = T.I32 }
                                  in
                                  (* recover the true rty of factors from
                                     the code they were defined in *)
                                  let vreg_of rid =
                                    match facts.last_def.(rid) with
                                    | Some r -> rn r
                                    | None -> base rid
                                  in
                                  let acc = ref (to_rty (vreg_of r0)) in
                                  List.iter
                                    (fun rid ->
                                      let f = to_rty (vreg_of rid) in
                                      let d = { V.rid = fresh (); rty } in
                                      emit (I.Bin { op = I.Mul; dst = d; a = I.Reg !acc; b = I.Reg f });
                                      acc := d)
                                    rest;
                                  if t.coeff <> 1 then begin
                                    let d = { V.rid = fresh (); rty } in
                                    emit
                                      (I.Bin
                                         { op = I.Mul; dst = d; a = I.Reg !acc; b = I.Imm t.coeff });
                                    acc := d
                                  end;
                                  !acc
                            in
                            let op =
                              match terms with
                              | [] -> I.Imm 0
                              | t0 :: rest ->
                                  let acc = ref (term_value t0) in
                                  List.iter
                                    (fun t ->
                                      let v = term_value t in
                                      let d = { V.rid = fresh (); rty } in
                                      emit
                                        (I.Bin
                                           { op = I.Add; dst = d; a = I.Reg !acc; b = I.Reg v });
                                      acc := d)
                                    rest;
                                  I.Reg !acc
                            in
                            Hashtbl.replace stride_cache key op;
                            op)
                  in
                  (* 3. delete the per-iteration def, append the back-edge
                     increment *)
                  List.iter
                    (fun (i, (dst : V.t), terms) ->
                      let stride = materialize dst.V.rty terms in
                      edits.deleted <- IS.add i edits.deleted;
                      add_insert edits latch_at
                        (I.Bin { op = I.Add; dst; a = I.Reg dst; b = stride }))
                    ok;
                  Some (apply_edits code edits)
                end
              end
            end
          end)
      | _ -> None)

let optimize f =
  let next = ref (max 1 (Facts.bound f)) in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  let rec go f budget =
    if budget = 0 then f
    else
      let code = Facts.code f and cfg = Facts.cfg f in
      let facts = facts_of code ~nregs:!next in
      let rec first_hit = function
        | [] -> None
        | l :: rest -> (
            match try_loop cfg l ~facts ~fresh with
            | Some code' -> Some code'
            | None -> first_hit rest)
      in
      match first_hit (Cfg.loops cfg) with
      | None -> f
      | Some code' -> go (Facts.make code') (budget - 1)
  in
  go f 16
