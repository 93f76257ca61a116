(* Generic dataflow over the basic-block CFG: a worklist solver
   functorized over a join-semilattice, plus its four instantiations —
   liveness (dead-code elimination, the register allocator's live
   intervals, the checker's pressure report, the --pressure and
   --annotate-live listings), reaching definitions with a synthetic
   "uninitialized" definition per register (the verifier's
   def-before-use check), available copies (copy propagation), and an
   affine constant/copy value lattice (strength reduction, memory-op
   merging, which share the [Rewriter] functor). Transfer functions
   are derived from [Instr.def]/[Instr.uses] or their list-free
   [iter_defs]/[iter_uses], so a new instruction kind extends every
   analysis at once. *)

module I = Instr
module V = Vreg

type direction = Forward | Backward

module type LATTICE = sig
  type t

  val equal : t -> t -> bool

  val join : t -> t -> t
  (* confluence operator; [init] below must be its identity *)
end

module Solver (L : LATTICE) = struct
  type result = { at_start : L.t array; at_end : L.t array }

  (* [init] is the optimistic starting value and the identity of
     [L.join] (bottom for may-analyses, top for must-analyses encoded
     with an explicit top element). [boundary] flows into the entry
     block (Forward) or into every exit block (Backward). [transfer]
     maps a block's flow input to its flow output: at_start -> at_end
     for Forward, at_end -> at_start for Backward. *)
  let solve ~dir ~init ~boundary ~transfer (cfg : Cfg.t) =
    let nb = Cfg.num_blocks cfg in
    let at_start = Array.make nb init and at_end = Array.make nb init in
    if nb > 0 then begin
      let flow_preds b =
        match dir with
        | Forward -> cfg.Cfg.blocks.(b).Cfg.preds
        | Backward -> cfg.Cfg.blocks.(b).Cfg.succs
      in
      let flow_succs b =
        match dir with
        | Forward -> cfg.Cfg.blocks.(b).Cfg.succs
        | Backward -> cfg.Cfg.blocks.(b).Cfg.preds
      in
      let is_boundary b =
        match dir with
        | Forward -> b = 0
        | Backward -> cfg.Cfg.blocks.(b).Cfg.succs = []
      in
      (* flow input/output views independent of direction *)
      let flow_in, flow_out =
        match dir with
        | Forward -> (at_start, at_end)
        | Backward -> (at_end, at_start)
      in
      let order =
        match dir with
        | Forward -> Array.copy cfg.Cfg.rpo
        | Backward ->
            let n = Array.length cfg.Cfg.rpo in
            Array.init n (fun i -> cfg.Cfg.rpo.(n - 1 - i))
      in
      let queue = Queue.create () in
      let queued = Array.make nb false in
      Array.iter
        (fun b ->
          queued.(b) <- true;
          Queue.add b queue)
        order;
      while not (Queue.is_empty queue) do
        let b = Queue.pop queue in
        queued.(b) <- false;
        let inb =
          List.fold_left
            (fun acc p -> L.join acc flow_out.(p))
            (if is_boundary b then boundary else init)
            (flow_preds b)
        in
        flow_in.(b) <- inb;
        let outb = transfer b inb in
        if not (L.equal outb flow_out.(b)) then begin
          flow_out.(b) <- outb;
          List.iter
            (fun s ->
              if not queued.(s) then begin
                queued.(s) <- true;
                Queue.add s queue
              end)
            (flow_succs b)
        end
      done
    end;
    { at_start; at_end }
end

(* ------------------------------------------------------------------ *)
(* Register bitsets                                                    *)
(* ------------------------------------------------------------------ *)

(* A set of register ids as a dense bitset: bit [k mod 63] of word
   [k / 63] is register [k]. [[||]] is the join identity, so an
   analysis may leave unreached blocks without words. *)
module Bits = struct
  type t = int array

  let create nregs = Array.make ((nregs + 62) / 63) 0
  let equal (a : t) b = a = b

  let join (a : t) (b : t) =
    if Array.length a = 0 then b
    else if Array.length b = 0 then a
    else Array.map2 ( lor ) a b

  let mem (s : t) k = s.(k / 63) land (1 lsl (k mod 63)) <> 0
  let add (s : t) k = s.(k / 63) <- s.(k / 63) lor (1 lsl (k mod 63))
  let remove (s : t) k = s.(k / 63) <- s.(k / 63) land lnot (1 lsl (k mod 63))

  (* in ascending register id *)
  let iter f (s : t) =
    Array.iteri
      (fun w x ->
        let x = ref x and k = ref (w * 63) in
        while !x <> 0 do
          if !x land 1 <> 0 then f !k;
          x := !x lsr 1;
          incr k
        done)
      s
end

module BSolve = Solver (Bits)

(* ------------------------------------------------------------------ *)
(* Per-block use/def sets                                              *)
(* ------------------------------------------------------------------ *)

type block_sets = { gen : Bits.t array; kill : Bits.t array; regs : V.t array }

(* per-block upward-exposed uses (gen) and defs (kill), so each solver
   iteration is O(words), not O(block length); liveness and the
   def-before-use screen both read them *)
let block_sets ~nregs (cfg : Cfg.t) =
  let code = cfg.Cfg.code in
  let regs = Array.make nregs { V.rid = -1; rty = Safara_ir.Types.Bool } in
  let nb = Cfg.num_blocks cfg in
  let gen = Array.init nb (fun _ -> Bits.create nregs) in
  let kill = Array.init nb (fun _ -> Bits.create nregs) in
  (* the block being walked: one pair of visitors for the whole code *)
  let g = ref [||] and d = ref [||] in
  let use (u : V.t) =
    regs.(u.V.rid) <- u;
    if not (Bits.mem !d u.V.rid) then Bits.add !g u.V.rid
  in
  let def (x : V.t) =
    regs.(x.V.rid) <- x;
    Bits.add !d x.V.rid
  in
  for b = 0 to nb - 1 do
    g := gen.(b);
    d := kill.(b);
    for i = cfg.Cfg.blocks.(b).Cfg.first to cfg.Cfg.blocks.(b).Cfg.last do
      I.iter_uses use code.(i);
      I.iter_defs def code.(i)
    done
  done;
  { gen; kill; regs }

(* ------------------------------------------------------------------ *)
(* Liveness (backward, may)                                            *)
(* ------------------------------------------------------------------ *)

module Live = struct
  type info = { live_in : Bits.t array; live_out : Bits.t array; regs : V.t array }

  (* one instruction backward, in place: (live − defs) ∪ uses *)
  let step live ins =
    I.iter_defs (fun (d : V.t) -> Bits.remove live d.V.rid) ins;
    I.iter_uses (fun (u : V.t) -> Bits.add live u.V.rid) ins

  let analyze (cfg : Cfg.t) (s : block_sets) =
    let empty = Bits.create (Array.length s.regs) in
    let r =
      BSolve.solve ~dir:Backward ~init:empty ~boundary:empty
        ~transfer:(fun b out ->
          let g = s.gen.(b) and d = s.kill.(b) in
          Array.mapi (fun w x -> g.(w) lor (x land lnot d.(w))) out)
        cfg
    in
    { live_in = r.BSolve.at_start; live_out = r.BSolve.at_end; regs = s.regs }

  let units info set =
    let u = ref 0 in
    Bits.iter (fun k -> u := !u + V.width info.regs.(k)) set;
    !u

  (* every block backward from its live-out set: per instruction, the
     count and 32-bit width of the values live after it, and the peak
     simultaneous demand — at each instruction the values live after
     it coexist with the values it defines (a dead def still occupies
     its register at that point) *)
  let profile (cfg : Cfg.t) info =
    let code = cfg.Cfg.code in
    let count = Array.make (Array.length code) 0 in
    let width = Array.make (Array.length code) 0 in
    let peak = ref 0 in
    for b = 0 to Cfg.num_blocks cfg - 1 do
      let live = Array.copy info.live_out.(b) in
      let blk = cfg.Cfg.blocks.(b) in
      for i = blk.Cfg.last downto blk.Cfg.first do
        Bits.iter (fun _ -> count.(i) <- count.(i) + 1) live;
        width.(i) <- units info live;
        let at = ref width.(i) in
        I.iter_defs
          (fun (d : V.t) -> if not (Bits.mem live d.V.rid) then at := !at + V.width d)
          code.(i);
        peak := max !peak !at;
        step live code.(i)
      done
    done;
    (count, width, !peak)
end

(* ------------------------------------------------------------------ *)
(* Reaching definitions (forward, may), with an implicit              *)
(* "uninitialized" definition of every register at kernel entry        *)
(* ------------------------------------------------------------------ *)

module IM = Map.Make (Int)
module IS = Set.Make (Int)

module Reach = struct
  (* rid -> set of definition sites that may reach this point; a site
     is an instruction index, or [uninit] for the synthetic entry
     definition. A register absent from the map is unreached (bottom:
     only possible in unreachable code). *)
  let uninit = -1

  type state = IS.t IM.t

  module L = struct
    type t = state

    let equal = IM.equal IS.equal
    let join = IM.union (fun _ a b -> Some (IS.union a b))
  end

  module S = Solver (L)

  let def state i ins =
    List.fold_left
      (fun st (d : V.t) -> IM.add d.V.rid (IS.singleton i) st)
      state (I.defs ins)

  let analyze (cfg : Cfg.t) =
    (* at entry every register carries only its uninitialized def *)
    let universe = ref IM.empty in
    Array.iter
      (fun ins ->
        List.iter
          (fun (r : V.t) ->
            universe := IM.add r.V.rid (IS.singleton uninit) !universe)
          (I.defs ins @ I.uses ins))
      cfg.Cfg.code;
    let transfer b st =
      let st = ref st in
      Cfg.iter_instrs cfg b (fun i ins -> st := def !st i ins);
      !st
    in
    let r =
      S.solve ~dir:Forward ~init:IM.empty ~boundary:!universe ~transfer cfg
    in
    (r.S.at_start, r.S.at_end)

  type fault = {
    f_at : int;  (* instruction index of the faulting use *)
    f_reg : V.t;
    f_partial : int list;
        (* definition sites that reach on the other paths; [] means
           the register is never defined at all *)
  }

  (* The screen: "may this use see an uninitialized register?" needs
     only the projection of [state] onto "uninit is among the sites",
     which is a plain possibly-uninitialized set of rids. It is kept as
     a {!Bits} set with every register set at entry, each block's defs
     as its kill set, and [lor] as join ([[||]]: unreached). The
     projection commutes with join and transfer, so the screen fires
     exactly when the site analysis would report a fault; only then is
     the site-tracking [analyze] run, to name the partial definition
     sites. *)
  let may_see_uninit (cfg : Cfg.t) (s : block_sets) =
    let nb = Cfg.num_blocks cfg in
    (* a use sees an uninitialized register exactly when it is exposed
       in a block whose entry state holds that register *)
    nb > 0
    && Array.length s.kill.(0) > 0
    &&
    let transfer b st =
      if Array.length st = 0 then st
      else Array.mapi (fun w x -> x land lnot s.kill.(b).(w)) st
    in
    let r =
      BSolve.solve ~dir:Forward ~init:[||]
        ~boundary:(Array.make (Array.length s.kill.(0)) (-1))
        ~transfer cfg
    in
    let exposed b =
      let at = r.BSolve.at_start.(b) and g = s.gen.(b) in
      let rec any w = w < Array.length at && (at.(w) land g.(w) <> 0 || any (w + 1)) in
      any 0
    in
    let rec hit b = b < nb && (exposed b || hit (b + 1)) in
    hit 0

  (* every use a synthetic uninitialized definition can reach;
     subsumes the verifier's old hand-rolled must-reach walk:
     "uninit may reach" is exactly "not defined on all paths" *)
  let explain (cfg : Cfg.t) =
    let at_start, _ = analyze cfg in
    let faults = ref [] in
    for b = 0 to Cfg.num_blocks cfg - 1 do
      let st = ref at_start.(b) in
      Cfg.iter_instrs cfg b (fun i ins ->
          List.iter
            (fun (u : V.t) ->
              match IM.find_opt u.V.rid !st with
              | Some sites when IS.mem uninit sites ->
                  let partial =
                    IS.elements (IS.remove uninit sites)
                  in
                  faults :=
                    { f_at = i; f_reg = u; f_partial = partial } :: !faults
              | _ -> ())
            (I.uses ins);
          st := def !st i ins)
    done;
    List.rev !faults

  let possibly_uninitialized cfg s =
    if may_see_uninit cfg s then explain cfg else []
end

(* ------------------------------------------------------------------ *)
(* Available copies (forward, must)                                    *)
(* ------------------------------------------------------------------ *)

module Copies = struct
  (* [facts]: dst-rid -> the operand it provably still equals.
     [users]: source rid -> the fact keys naming it, so killing a
     register touches only its dependents instead of filtering the
     whole window — the filter was quadratic on wide unrolled kernels
     (one O(|window|) scan per definition). Invariant:
     [IS.mem x (users u)] iff [facts x = Reg u']  with [u'.rid = u]. *)
  type env = { facts : I.operand IM.t; users : IS.t IM.t }

  let empty = { facts = IM.empty; users = IM.empty }

  (* [None] is the must-analysis top (no path reached yet) *)
  type state = env option

  let operand_equal (a : I.operand) (b : I.operand) =
    match (a, b) with
    | I.Reg r, I.Reg s -> V.equal r s && r.V.rty = s.V.rty
    | I.Imm x, I.Imm y -> x = y
    | I.FImm x, I.FImm y -> Int64.bits_of_float x = Int64.bits_of_float y
    | _ -> false

  let user_key = function I.Reg s -> Some s.V.rid | I.Imm _ | I.FImm _ -> None

  let unregister x op users =
    match user_key op with
    | None -> users
    | Some u ->
        IM.update u
          (fun s ->
            match s with
            | None -> None
            | Some s ->
                let s = IS.remove x s in
                if IS.is_empty s then None else Some s)
          users

  (* drop x's own fact (and its users entry) *)
  let detach x env =
    match IM.find_opt x env.facts with
    | None -> env
    | Some op ->
        { facts = IM.remove x env.facts; users = unregister x op env.users }

  let add x op env =
    let env = detach x env in
    let users =
      match user_key op with
      | None -> env.users
      | Some u ->
          IM.update u
            (fun s -> Some (IS.add x (Option.value ~default:IS.empty s)))
            env.users
    in
    { facts = IM.add x op env.facts; users }

  let find x env = IM.find_opt x env.facts

  let kill (d : V.t) env =
    let env = detach d.V.rid env in
    match IM.find_opt d.V.rid env.users with
    | None -> env
    | Some deps -> IS.fold detach deps env

  let users_of_facts facts =
    IM.fold
      (fun x op users ->
        match user_key op with
        | None -> users
        | Some u ->
            IM.update u
              (fun s -> Some (IS.add x (Option.value ~default:IS.empty s)))
              users)
      facts IM.empty

  module L = struct
    type t = state

    let equal a b =
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> IM.equal operand_equal a.facts b.facts
      | _ -> false

    let join a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some a, Some b ->
          let facts =
            IM.merge
              (fun _ x y ->
                match (x, y) with
                | Some x, Some y when operand_equal x y -> Some x
                | _ -> None)
              a.facts b.facts
          in
          Some { facts; users = users_of_facts facts }
  end

  module S = Solver (L)

  (* advance the copy window across one (already rewritten) instr *)
  let step_map env ins =
    let env = List.fold_left (fun e d -> kill d e) env (I.defs ins) in
    match ins with
    | I.Mov { dst; src = I.Reg s } when not (V.equal dst s) ->
        add dst.V.rid (I.Reg s) env
    | I.Mov { dst; src = (I.Imm _ | I.FImm _) as c } -> add dst.V.rid c env
    | _ -> env

  let analyze (cfg : Cfg.t) =
    let transfer b st =
      match st with
      | None -> None
      | Some m ->
          let m = ref m in
          Cfg.iter_instrs cfg b (fun _ ins -> m := step_map !m ins);
          Some !m
    in
    let r =
      S.solve ~dir:Forward ~init:None ~boundary:(Some empty) ~transfer cfg
    in
    (r.S.at_start, r.S.at_end)
end

(* ------------------------------------------------------------------ *)
(* Affine values (forward, must): the constant/copy value lattice      *)
(* ------------------------------------------------------------------ *)

module Affine = struct
  (* r = base + k; [base = None] means r is the constant k, and
     [k = 0] with a base makes the fact a plain copy. Integer
     registers only: OCaml's native-int simulator arithmetic is
     associative/distributive modulo word size, so rewrites justified
     by these facts are exact (bit-identical), overflow included. *)
  type fact = { base : V.t option; k : int }

  let integer (r : V.t) = Safara_ir.Types.is_integer r.V.rty

  (* The facts of one program point. They are kept for the integer
     registers a mov, add or sub defines, a few per kernel out of its
     register ids: [slot] maps a register id to its place among them
     (-1: none) and is shared by every state of one code array. Slot
     [i]'s register equals [base.(i) + off.(i)], where [base.(i)] is
     [const] for a constant and [absent] for no fact (offset 0).
     [bases] holds every register id some fact may name as its base
     (a superset: a kill scans for dependents only when its register
     is in it). An env that a solver keeps, or that [join] reads, is
     never updated: [step] runs on a [copy]. *)
  type env = {
    slot : int array;
    base : V.t array;
    off : int array;
    bases : Bits.t;
  }

  let absent = { V.rid = -2; rty = Safara_ir.Types.I64 }
  let const = { V.rid = -1; rty = Safara_ir.Types.I64 }

  let create ~nregs:n code =
    let slot = Array.make n (-1) and nslots = ref 0 in
    Array.iter
      (function
        | I.Mov { dst; _ } | I.Bin { op = I.Add | I.Sub; dst; _ }
          when integer dst && slot.(dst.V.rid) < 0 ->
            slot.(dst.V.rid) <- !nslots;
            incr nslots
        | _ -> ())
      code;
    {
      slot;
      base = Array.make !nslots absent;
      off = Array.make !nslots 0;
      bases = Bits.create n;
    }

  let copy e =
    {
      e with
      base = Array.copy e.base;
      off = Array.copy e.off;
      bases = Array.copy e.bases;
    }

  let fact_equal a b =
    a.k = b.k
    &&
    match (a.base, b.base) with
    | None, None -> true
    | Some r, Some s -> V.equal r s && r.V.rty = s.V.rty
    | _ -> false

  let find x e =
    let i = e.slot.(x) in
    if i < 0 || e.base.(i) == absent then None
    else
      let u = e.base.(i) in
      Some { base = (if u == const then None else Some u); k = e.off.(i) }

  let set e i u k =
    e.base.(i) <- u;
    e.off.(i) <- k

  (* slot [i] holds the same fact in [a] and [b] *)
  let same a b i =
    let r = a.base.(i) and s = b.base.(i) in
    a.off.(i) = b.off.(i) && r.V.rid = s.V.rid && r.V.rty = s.V.rty

  let equal a b =
    let n = Array.length a.base in
    let rec go i = i = n || (same a b i && go (i + 1)) in
    go 0

  (* a fact survives where both sides agree on it; the survivors are a
     subset of [a]'s, so [a]'s [bases] covers them *)
  let join a b =
    let e = { a with base = Array.copy a.base; off = Array.copy a.off } in
    for i = 0 to Array.length e.base - 1 do
      if not (same a b i) then set e i absent 0
    done;
    e

  let kill e (d : V.t) =
    let r = d.V.rid in
    let i = e.slot.(r) in
    if i >= 0 then set e i absent 0;
    if Bits.mem e.bases r then begin
      Bits.remove e.bases r;
      for i = 0 to Array.length e.base - 1 do
        if e.base.(i).V.rid = r then set e i absent 0
      done
    end

  (* normalize through the current state so facts always name the
     deepest available base: b = a + 2, c = b + 3 yields c = a + 5 *)
  let resolve e (r : V.t) =
    match find r.V.rid e with Some f -> f | None -> { base = Some r; k = 0 }

  (* dst = s + c, read against the pre-instruction state, so
     self-updates like [add x, x, 1] read the old value of x; a fact
     that would name dst as its own base is dropped *)
  let derive e (dst : V.t) (s : V.t) c =
    let i = e.slot.(s.V.rid) in
    let known = i >= 0 && e.base.(i) != absent in
    let u = if known then e.base.(i) else s in
    let k = if known then e.off.(i) + c else c in
    kill e dst;
    if u.V.rid <> dst.V.rid then begin
      set e e.slot.(dst.V.rid) u k;
      if u != const then Bits.add e.bases u.V.rid
    end

  (* one instruction forward, in place *)
  let step e ins =
    match ins with
    | I.Mov { dst; src = I.Imm c } when integer dst ->
        kill e dst;
        set e e.slot.(dst.V.rid) const c
    | I.Mov { dst; src = I.Reg s } when integer dst && dst.V.rty = s.V.rty ->
        derive e dst s 0
    | I.Bin { op = I.Add; dst; a = I.Reg s; b = I.Imm c }
    | I.Bin { op = I.Add; dst; a = I.Imm c; b = I.Reg s }
      when integer dst && dst.V.rty = s.V.rty ->
        derive e dst s c
    | I.Bin { op = I.Sub; dst; a = I.Reg s; b = I.Imm c }
      when integer dst && dst.V.rty = s.V.rty ->
        derive e dst s (-c)
    | _ ->
        let d = I.def ins in
        if d != I.no_def then kill e d
end

(* ------------------------------------------------------------------ *)
(* Forward rewriting over a state updated in place                     *)
(* ------------------------------------------------------------------ *)

module Rewriter (X : sig
  type t

  val create : nregs:int -> I.t array -> t
  val copy : t -> t
  val equal : t -> t -> bool
  val join : t -> t -> t
  val step : t -> I.t -> I.t option option
end) =
struct
  module S = Solver (struct
    type t = X.t option  (* None = top (unreached) *)

    let equal a b =
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> X.equal a b
      | _ -> false

    let join a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (X.join a b)
  end)

  (* Each instruction's rewrite is decided while the solver steps its
     block. The solver visits a block again whenever its input
     changes, so the last visit sees the fixpoint input and its
     decisions stand: no second walk. A block the entry never reaches
     is decided on the entry state. *)
  let optimize ~nregs (cfg : Cfg.t) =
    let code = cfg.Cfg.code in
    if Array.length code = 0 then code
    else begin
      let entry = X.create ~nregs code in
      let decided = Array.make (Array.length code) None in
      let decide b st =
        Cfg.iter_instrs cfg b (fun i ins -> decided.(i) <- X.step st ins)
      in
      let transfer b = function
        | None -> None
        | Some st ->
            let st = X.copy st in
            decide b st;
            Some st
      in
      let r =
        S.solve ~dir:Forward ~init:None ~boundary:(Some entry) ~transfer cfg
      in
      Array.iteri
        (fun b st -> if Option.is_none st then decide b (X.copy entry))
        r.S.at_start;
      if Array.for_all Option.is_none decided then code
      else begin
        let out = ref [] in
        for i = Array.length code - 1 downto 0 do
          match decided.(i) with
          | None -> out := code.(i) :: !out
          | Some None -> ()
          | Some (Some ins) -> out := ins :: !out
        done;
        Array.of_list !out
      end
    end
end
