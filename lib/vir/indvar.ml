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

(* ---- stride algebra ------------------------------------------------

   A per-iteration stride is a small polynomial over loop-invariant
   registers: a list of terms [coeff * r1 * r2 * …].  Terms with equal
   register multisets are combined; an empty list means the value does
   not actually advance (e.g. `i - i`) and collapses to invariant. *)

type term = { coeff : int; regs : int list (* sorted rids *) }

(* sorted rid lists, lexicographically, a prefix first *)
let compare_regs = List.compare Int.compare

let compare_terms t u =
  let c = Int.compare t.coeff u.coeff in
  if c <> 0 then c else compare_regs t.regs u.regs

(* sort by registers, merge the terms of equal registers, drop the
   zero ones, and order the rest by coefficient, then registers *)
let norm_terms terms =
  let rec merge = function
    | t :: u :: rest when compare_regs t.regs u.regs = 0 ->
        merge ({ t with coeff = t.coeff + u.coeff } :: rest)
    | t :: rest -> if t.coeff = 0 then merge rest else t :: merge rest
    | [] -> []
  in
  match terms with
  | [] -> []
  | [ t ] -> if t.coeff = 0 then [] else terms
  | _ ->
      List.sort compare_terms
        (merge (List.sort (fun t u -> compare_regs t.regs u.regs) terms))

let scale_terms k terms =
  if k = 0 then [] else List.map (fun t -> { t with coeff = t.coeff * k }) terms

let mul_terms_reg rid terms =
  List.map (fun t -> { t with regs = List.sort Int.compare (rid :: t.regs) }) terms

(* symbolic value of a register at a point in the header scan *)
type sym =
  | Inv  (* recomputed identically every iteration *)
  | Iv of term list  (* advances by this stride per iteration; nonempty *)
  | Unknown

let iv_of terms = match norm_terms terms with [] -> Inv | ts -> Iv ts

(* ---- per-loop rewrite ---------------------------------------------- *)

let clonable = function
  | I.Mov _ | I.Cvt _ -> true
  | I.Bin { op = I.Add | I.Sub | I.Mul; _ } -> true
  | I.Una { op = I.Neg; _ } -> true
  | _ -> false

let integer (r : V.t) = T.is_integer r.V.rty

(* Register tables, indexed by rid: each rid's use count over the code
   of the current round, counted when a loop of the round first asks
   whether a register is used outside it; the tables of the loop
   being tried, which a try resets over only the registers the
   previous try's loop body named ([touched]); and a rewrite's
   renames and each rid's last definition, which the rewrite fills. *)
type tables = {
  uses_total : int array;
  def_count : int array;  (* defs inside the loop *)
  def_pos : int array;  (* position of the last of them *)
  loop_uses : int array;  (* uses inside the loop *)
  chain_uses : int array;  (* uses by header defs the scan found affine *)
  basic : int array;  (* a basic IV's step; 0: not one *)
  sym : sym option array;  (* the header scan's value; None: not scanned *)
  touched : int array;
  mutable ntouched : int;
  rename : V.t array;  (* a rewrite's fresh clone registers; [I.no_def]: kept *)
  last_def : V.t array;
}

let tables_of nregs =
  {
    uses_total = Array.make nregs 0;
    def_count = Array.make nregs 0;
    def_pos = Array.make nregs (-1);
    loop_uses = Array.make nregs 0;
    chain_uses = Array.make nregs 0;
    basic = Array.make nregs 0;
    sym = Array.make nregs None;
    touched = Array.make nregs 0;
    ntouched = 0;
    rename = Array.make nregs I.no_def;
    last_def = Array.make nregs I.no_def;
  }

let count_uses tb code =
  let uses_total = tb.uses_total in
  Array.fill uses_total 0 (Array.length uses_total) 0;
  let count_use (r : V.t) = uses_total.(r.V.rid) <- uses_total.(r.V.rid) + 1 in
  Array.iter (I.iter_uses count_use) code

(* a register the loop body names, recorded the first time *)
let touch tb rid =
  if tb.def_count.(rid) = 0 && tb.loop_uses.(rid) = 0 then begin
    tb.touched.(tb.ntouched) <- rid;
    tb.ntouched <- tb.ntouched + 1
  end

let reset tb =
  for t = 0 to tb.ntouched - 1 do
    let rid = tb.touched.(t) in
    tb.def_count.(rid) <- 0;
    tb.def_pos.(rid) <- -1;
    tb.loop_uses.(rid) <- 0;
    tb.chain_uses.(rid) <- 0;
    tb.basic.(rid) <- 0;
    tb.sym.(rid) <- None
  done;
  tb.ntouched <- 0

(* each register at its true type: its last definition in [code]
   ([I.no_def]: none) *)
let fill_last_defs tb code =
  Array.fill tb.last_def 0 (Array.length tb.last_def) I.no_def;
  Array.iter
    (fun ins ->
      let d = I.def ins in
      if d != I.no_def then tb.last_def.(d.V.rid) <- d)
    code

(* the rewrite of one loop: the header instructions it deletes (from
   [first]), and what it inserts, reversed, at the end of the preheader
   and of the latch (two distinct indices: each block ends where the
   other cannot) *)
type edits = {
  first : int;
  deleted : bool array;
  pre_at : int;
  mutable pre : I.t list;
  latch_at : int;
  mutable latch : I.t list;
}

let apply_edits code e =
  let n = Array.length code in
  let ndeleted = Array.fold_left (fun k d -> if d then k + 1 else k) 0 e.deleted in
  let out =
    Array.make (n - ndeleted + List.length e.pre + List.length e.latch) I.Ret
  in
  let j = ref 0 in
  let emit ins =
    out.(!j) <- ins;
    incr j
  in
  let deleted i =
    i >= e.first && i < e.first + Array.length e.deleted && e.deleted.(i - e.first)
  in
  for i = 0 to n do
    if i = e.pre_at then List.iter emit (List.rev e.pre);
    if i = e.latch_at then List.iter emit (List.rev e.latch);
    if i < n && not (deleted i) then emit code.(i)
  done;
  out

(* insertion point "at the end of block b, before its terminal branch" *)
let tail_insert_index cfg b =
  let blk = cfg.Cfg.blocks.(b) in
  if I.is_branch cfg.Cfg.code.(blk.Cfg.last) then blk.Cfg.last else blk.Cfg.last + 1

let try_loop cfg (loop : Cfg.loop) ~rd ~counted ~fresh =
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
               position and use count *)
            reset rd;
            let count_use (r : V.t) =
              touch rd r.V.rid;
              rd.loop_uses.(r.V.rid) <- rd.loop_uses.(r.V.rid) + 1
            in
            Array.iter
              (fun (blk : Cfg.block) ->
                if loop.Cfg.body.(blk.Cfg.bid) then
                  for i = blk.Cfg.first to blk.Cfg.last do
                    let d = I.def code.(i) in
                    if d != I.no_def then begin
                      touch rd d.V.rid;
                      rd.def_count.(d.V.rid) <- rd.def_count.(d.V.rid) + 1;
                      rd.def_pos.(d.V.rid) <- i
                    end;
                    I.iter_uses count_use code.(i)
                  done)
              cfg.Cfg.blocks;
            let defs_in_loop rid = rd.def_count.(rid) in
            let used_outside rid =
              Lazy.force counted;
              rd.uses_total.(rid) > rd.loop_uses.(rid)
            in
            let basic = rd.basic and sym = rd.sym in
            (* basic IVs: single in-loop def, in the latch block, of the
               form add/sub self, imm *)
            let first_basic_def = ref max_int in
            let lblk = cfg.Cfg.blocks.(latch) in
            for i = lblk.Cfg.first to lblk.Cfg.last do
              match code.(i) with
              | I.Bin { op; dst; a; b }
                when integer dst && defs_in_loop dst.V.rid = 1 -> (
                  let step =
                    match (op, a, b) with
                    | I.Add, I.Reg r, I.Imm c when V.equal r dst -> c
                    | I.Add, I.Imm c, I.Reg r when V.equal r dst -> c
                    | I.Sub, I.Reg r, I.Imm c when V.equal r dst -> -c
                    | _ -> 0
                  in
                  if step <> 0 then begin
                    basic.(dst.V.rid) <- step;
                    if i < !first_basic_def then first_basic_def := i
                  end)
              | _ -> ()
            done;
            if !first_basic_def = max_int then None
            else begin
              (* scan the header block top-down, stopping at the first
                 basic-IV increment (only relevant when header = latch) *)
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
              let terms_of = function Iv ts -> ts | Inv | Unknown -> [] in
              let first = hblk.Cfg.first in
              let stop =
                if latch = header then min (hblk.Cfg.last + 1) !first_basic_def
                else hblk.Cfg.last + 1
              in
              (* per scanned index (from [first]): did its def come out
                 affine *)
              let chain = Array.make (stop - first) false in
              let count_chain_use (r : V.t) =
                rd.chain_uses.(r.V.rid) <- rd.chain_uses.(r.V.rid) + 1
              in
              for i = first to stop - 1 do
                let ins = code.(i) in
                let dst = I.def ins in
                if dst != I.no_def then begin
                  let s =
                    if not (integer dst) then Unknown
                    else
                      match ins with
                      | I.Mov { src; _ } -> sym_of_op src
                      | I.Cvt { src; _ } ->
                          if integer src then sym_of_reg src else Unknown
                      | I.Una { op = I.Neg; a; _ } -> (
                          match sym_of_op a with
                          | Iv ts -> iv_of (scale_terms (-1) ts)
                          | s -> s)
                      | I.Bin { op = (I.Add | I.Sub) as op; a; b; _ } -> (
                          match (sym_of_op a, sym_of_op b) with
                          | Unknown, _ | _, Unknown -> Unknown
                          | sa, sb ->
                              let tb = terms_of sb in
                              let tb = if op = I.Sub then scale_terms (-1) tb else tb in
                              iv_of (terms_of sa @ tb))
                      | I.Bin { op = I.Mul; a; b; _ } -> (
                          match (sym_of_op a, sym_of_op b, a, b) with
                          | Inv, Inv, _, _ -> Inv
                          | Iv ts, Inv, _, inv_op | Inv, Iv ts, inv_op, _ -> (
                              match inv_op with
                              | I.Imm k -> iv_of (scale_terms k ts)
                              | I.Reg r -> Iv (mul_terms_reg r.V.rid ts)
                              | I.FImm _ -> Unknown)
                          | _ -> Unknown)
                      | _ -> Unknown
                  in
                  (match s with
                  | Iv _ ->
                      chain.(i - first) <- true;
                      I.iter_uses count_chain_use ins
                  | Inv | Unknown -> ());
                  sym.(dst.V.rid) <- Some s
                end
              done;
              (* candidate selection, in index order *)
              let candidates = ref [] in
              for i = stop - 1 downto first do
                if chain.(i - first) then
                  let dst = I.def code.(i) in
                  match sym.(dst.V.rid) with
                  | Some (Iv terms)
                    when defs_in_loop dst.V.rid = 1
                         && (not (used_outside dst.V.rid))
                         && (* a "sink": some use escapes the scanned
                               affine chain, so keeping it incrementally
                               actually removes work *)
                         rd.loop_uses.(dst.V.rid) > rd.chain_uses.(dst.V.rid) ->
                      candidates := (i, dst, terms) :: !candidates
                  | _ -> ()
              done;
              let candidates = !candidates in
              if candidates = [] then None
              else begin
                (* dependency closure over the scanned prefix: every
                   in-loop register the clones and stride products read
                   must itself have a clonable scanned def *)
                let is_cand = Array.make (stop - first) false in
                List.iter (fun (i, _, _) -> is_cand.(i - first) <- true) candidates;
                let closure = Array.make (stop - first) false in
                (* what the candidate being tried added, undone if it
                   turns out unclonable *)
                let added = ref [] in
                let include_ i =
                  closure.(i - first) <- true;
                  added := i :: !added
                in
                let exception Unclonable in
                let rec need rid =
                  if defs_in_loop rid = 0 || basic.(rid) <> 0 then ()
                  else
                    let i = rd.def_pos.(rid) in
                    if
                      i >= first && i < stop
                      && defs_in_loop rid = 1
                      && clonable code.(i)
                    then begin
                      if not closure.(i - first) then begin
                        include_ i;
                        I.iter_uses need_reg code.(i)
                      end
                    end
                    else raise Unclonable
                and need_reg (r : V.t) = need r.V.rid in
                let ok =
                  List.filter
                    (fun (i, _, terms) ->
                      added := [];
                      try
                        if not (clonable code.(i)) then raise Unclonable;
                        if not closure.(i - first) then include_ i;
                        I.iter_uses need_reg code.(i);
                        List.iter (fun t -> List.iter need t.regs) terms;
                        true
                      with Unclonable ->
                        List.iter (fun j -> closure.(j - first) <- false) !added;
                        false)
                    candidates
                in
                if ok = [] then None
                else begin
                  (* rename map for the cloned prefix: candidates keep
                     their register (that is the initialization); other
                     closure defs get fresh registers *)
                  let rename = rd.rename in
                  for i = first to stop - 1 do
                    if closure.(i - first) && not is_cand.(i - first) then
                      let d = I.def code.(i) in
                      rename.(d.V.rid) <- { V.rid = fresh (); rty = d.V.rty }
                  done;
                  let rn (r : V.t) =
                    let r' = rename.(r.V.rid) in
                    if r' == I.no_def then r else r'
                  in
                  let last_defs = lazy (fill_last_defs rd code) in
                  let edits =
                    {
                      first;
                      deleted = Array.make (stop - first) false;
                      pre_at = tail_insert_index cfg pre;
                      pre = [];
                      latch_at = tail_insert_index cfg latch;
                      latch = [];
                    }
                  in
                  let emit ins = edits.pre <- ins :: edits.pre in
                  (* 1. clone the chain prefix into the preheader; within
                     the clone a candidate's own def keeps its register
                     (uses of it by later clones read the initialization,
                     which is the same value) *)
                  for i = first to stop - 1 do
                    if closure.(i - first) then begin
                      let ins = code.(i) in
                      let ins' =
                        if is_cand.(i - first) then
                          let d = I.def ins in
                          I.map_regs
                            (fun r ->
                              if r.V.rid = d.V.rid && r.V.rty = d.V.rty then r
                              else rn r)
                            ins
                        else I.map_regs rn ins
                      in
                      emit ins'
                    end
                  done;
                  (* 2. materialize each distinct stride once *)
                  let stride_cache = ref [] in
                  let materialize rty terms =
                    match terms with
                    | [ { coeff; regs = [] } ] -> I.Imm coeff
                    | _ -> (
                        let key = (terms, rty) in
                        match List.assoc_opt key !stride_cache with
                        | Some op -> op
                        | None ->
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
                                  (* recover the true rty of factors from
                                     the code they were defined in *)
                                  let vreg_of rid =
                                    Lazy.force last_defs;
                                    let r = rd.last_def.(rid) in
                                    if r == I.no_def then rn { V.rid = rid; rty = T.I32 }
                                    else rn r
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
                            stride_cache := (key, op) :: !stride_cache;
                            op)
                  in
                  (* 3. delete the per-iteration def, append the back-edge
                     increment *)
                  List.iter
                    (fun (i, (dst : V.t), terms) ->
                      let stride = materialize dst.V.rty terms in
                      edits.deleted.(i - first) <- true;
                      edits.latch <-
                        I.Bin { op = I.Add; dst; a = I.Reg dst; b = stride }
                        :: edits.latch)
                    ok;
                  for i = first to stop - 1 do
                    if closure.(i - first) then
                      rename.((I.def code.(i)).V.rid) <- I.no_def
                  done;
                  Some (apply_edits code edits)
                end
              end
            end
          end)
      | _ -> None)

(* Tables no call is using. A call takes a set (or makes one) and gives
   back the last set it used when it returns, so calls on any domain
   or thread never share one; every entry a try sets is reset by the
   next try ([touched]), a rewrite clears the renames it sets, and the
   use counts and last definitions are refilled before they are read.
   A call that raises keeps its set. *)
let spare : tables list Atomic.t = Atomic.make []

let rec take nregs =
  match Atomic.get spare with
  | [] -> tables_of nregs
  | rd :: rest as l ->
      if not (Atomic.compare_and_set spare l rest) then take nregs
      else if Array.length rd.uses_total >= nregs then rd
      else tables_of nregs

let rec give rd =
  let l = Atomic.get spare in
  if not (Atomic.compare_and_set spare l (rd :: l)) then give rd

let optimize f =
  let next = ref (max 1 (Facts.bound f)) in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  (* taken for the first round with a loop, and replaced by larger ones
     when a rewrite's fresh registers outrun them *)
  let current = ref None in
  let tables () =
    match !current with
    | Some rd when Array.length rd.uses_total >= !next -> rd
    | Some _ ->
        let rd = tables_of (2 * !next) in
        current := Some rd;
        rd
    | None ->
        let rd = take !next in
        current := Some rd;
        rd
  in
  let rec go f budget =
    if budget = 0 then f
    else
      let code = Facts.code f and cfg = Facts.cfg f in
      match Cfg.loops cfg with
      | [] -> f
      | loops -> (
          let rd = tables () in
          let counted = lazy (count_uses rd code) in
          let rec first_hit = function
            | [] -> None
            | l :: rest -> (
                match try_loop cfg l ~rd ~counted ~fresh with
                | Some code' -> Some code'
                | None -> first_hit rest)
          in
          match first_hit loops with
          | None -> f
          | Some code' -> go (Facts.make code') (budget - 1))
  in
  let f' = go f 16 in
  Option.iter give !current;
  f'
