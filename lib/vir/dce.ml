(* Liveness-driven dead-code elimination.

   Stronger than the peephole's usedness sweep: a pure definition is
   deleted when its register is not live *after* that instruction, so
   overwritten values ([mov x, 5; ...; mov x, 7] with no read in
   between) and values only consumed by other dead code disappear
   too. Each round recomputes liveness and walks every block backward
   over a copy of its live-out bits, threading the live set through
   the deletions — a whole intra-block dead chain falls in one round,
   so the number of rounds is bounded by the cross-block dependence
   depth (small), not by the chain length. *)

module I = Instr
module V = Vreg
module L = Dataflow.Live
module B = Dataflow.Bits

(* loads count as pure: the functional simulator has no faulting
   semantics to preserve (same contract as the peephole DCE) *)
let is_pure = function
  | I.Mov _ | I.Bin _ | I.Una _ | I.Cvt _ | I.Setp _ | I.Spec _ | I.Ldp _
  | I.Ld _ ->
      true
  | I.Label _ | I.St _ | I.Bra _ | I.Brc _ | I.Atom _ | I.Ret -> false

let sweep_once f =
  let code = Facts.code f and cfg = Facts.cfg f in
  let info = Facts.live f in
  let keep = Array.make (Array.length code) true in
  let removed = ref 0 in
  for b = 0 to Cfg.num_blocks cfg - 1 do
    let live = Array.copy info.L.live_out.(b) in
    let blk = cfg.Cfg.blocks.(b) in
    for i = blk.Cfg.last downto blk.Cfg.first do
      let ins = code.(i) in
      (* a pure instruction has exactly one def *)
      let dead = ref (is_pure ins) in
      I.iter_defs (fun d -> if B.mem live d.V.rid then dead := false) ins;
      if !dead then begin
        (* the instruction is gone: its uses do not keep anything
           alive, its defs do not kill anything *)
        keep.(i) <- false;
        incr removed
      end
      else L.step live ins
    done
  done;
  if !removed = 0 then None
  else begin
    let out = Array.make (Array.length code - !removed) code.(0) in
    let j = ref 0 in
    Array.iteri
      (fun i ins ->
        if keep.(i) then begin
          out.(!j) <- ins;
          incr j
        end)
      code;
    Some out
  end

let optimize f =
  let rec go f =
    match sweep_once f with None -> f | Some code -> go (Facts.make code)
  in
  if Array.length (Facts.code f) = 0 then f else go f
