(* Redundant-load elimination and store-to-load forwarding over affine
   addresses (the "memmerge" pipeline pass).

   A forward must-analysis pairs the affine value lattice
   ({!Dataflow.Affine}) with an available-memory-values map: after
   [ld dst, [a]] where the lattice proves [a = u + k], the bytes at
   [u + k] are known to be in [dst]; after [st [a], src] they are
   known to equal [src]. A later load whose address provably resolves
   to the same [(u, k)] becomes a register move (or disappears
   entirely when it would reload into the register already holding the
   value), which [Dce] then propagates backwards through the orphaned
   address chain.

   Aliasing model, matching the simulator's memory exactly: [Local] is
   a genuinely separate per-thread spill store; every other space
   (global / read-only / shared / constant / param) addresses one flat
   allocation table, so they form a single alias class. A store kills
   every available value in its class except those at a provably
   disjoint address — same affine base with non-overlapping byte
   intervals [ [k1, k1+b1) ∩ [k2, k2+b2) = ∅ ] — which is what lets a
   neighbor-element store ([|Δk| ≥ elem bytes]) keep the just-loaded
   center element available. Atomics kill their whole class.

   Per-thread sequential consistency is all that is required: every
   engine runs each thread's instruction stream without interleaving
   stores from other threads into it (the block-parallel prover only
   admits race-free kernels), so a value observed by this thread stays
   valid until this thread overwrites it or a register involved is
   redefined. *)

module I = Instr
module V = Vreg
module T = Safara_ir.Types
module A = Dataflow.Affine

(* (local class, base rid, byte offset) *)
module Key = struct
  type t = bool * int * int

  let compare (l1, u1, k1) (l2, u2, k2) =
    match Bool.compare l1 l2 with
    | 0 -> ( match Int.compare u1 u2 with 0 -> Int.compare k1 k2 | c -> c)
    | c -> c
end

module FM = Map.Make (Key)

type fact = { f_base : V.t; f_val : I.operand; f_bytes : int }

(* The state of one program point: the affine facts and the available
   memory values, keyed by (local class, base rid, byte offset).
   [mentioned] holds every register id a value's fact may name, as
   affine base or as forwarded value (a superset), so a def no fact
   mentions leaves the map alone; one that does filters it, as a store
   does. Updated in place, like the affine facts: values the solver
   keeps are never updated, [step] runs on a [copy]. *)
type st = { fm : A.env; mutable facts : fact FM.t; mentioned : Dataflow.Bits.t }

let copy st =
  { st with fm = A.copy st.fm; mentioned = Array.copy st.mentioned }

let fact_equal f1 f2 =
  V.equal f1.f_base f2.f_base
  && f1.f_base.V.rty = f2.f_base.V.rty
  && f1.f_bytes = f2.f_bytes
  &&
  match (f1.f_val, f2.f_val) with
  | I.Reg a, I.Reg b -> V.equal a b && a.V.rty = b.V.rty
  | a, b -> a = b

let mentions (d : V.t) f =
  V.equal f.f_base d || match f.f_val with I.Reg r -> V.equal r d | _ -> false

let fadd st key f =
  st.facts <- FM.add key f st.facts;
  if f.f_base.V.rid >= 0 then Dataflow.Bits.add st.mentioned f.f_base.V.rid;
  match f.f_val with
  | I.Reg r -> Dataflow.Bits.add st.mentioned r.V.rid
  | I.Imm _ | I.FImm _ -> ()

let fkill st (d : V.t) =
  if Dataflow.Bits.mem st.mentioned d.V.rid then begin
    Dataflow.Bits.remove st.mentioned d.V.rid;
    st.facts <- FM.filter (fun _ f -> not (mentions d f)) st.facts
  end

let is_local (m : I.mem) = m.I.m_space = Safara_gpu.Memspace.Local

(* kill everything the store/atomic could overwrite: same alias class,
   not provably disjoint from [u + k .. u + k + bytes) *)
let clobber st ~local ~base_rid ~k ~bytes =
  st.facts <-
    FM.filter
      (fun (kl, kb, kk) f ->
        kl <> local || (kb = base_rid && (kk + f.f_bytes <= k || k + bytes <= kk)))
      st.facts

let clobber_class st ~local =
  st.facts <- FM.filter (fun (kl, _, _) _ -> kl <> local) st.facts

(* the affine base, offset and fact key of an address; a
   provably-constant absolute address keeps its offset under a base
   rid no register carries *)
let addr_key fm (addr : V.t) (mem : I.mem) =
  let f = A.resolve fm addr in
  match f.A.base with
  | Some u -> (u, f.A.k, (is_local mem, u.V.rid, f.A.k))
  | None -> ({ V.rid = -1; rty = T.I64 }, f.A.k, (is_local mem, -1, f.A.k))

let value_fits (dst : V.t) = function
  | I.Reg r -> V.equal r dst = false && r.V.rty = dst.V.rty
  | I.Imm _ -> T.is_integer dst.V.rty
  | I.FImm _ -> T.is_float dst.V.rty

(* a load whose address provably holds a value already in a register
   becomes a move from it, or goes when its destination is that
   register *)
let forward st ~dst ~u ~key (mem : I.mem) =
  match FM.find_opt key st.facts with
  | Some f
    when V.equal f.f_base u
         && f.f_base.V.rty = u.V.rty
         && f.f_bytes = mem.I.m_bytes -> (
      match f.f_val with
      | I.Reg r when V.equal r dst -> Some None
      | v when value_fits dst v -> Some (Some (I.Mov { dst; src = v }))
      | _ -> None)
  | _ -> None

(* one instruction forward, in place, returning the rewrite decided
   on the state before it *)
let step st ins =
  let rewrite =
    match ins with
    | I.Ld { dst; addr; mem; _ } ->
        let u, _, key = addr_key st.fm addr mem in
        let rewrite = forward st ~dst ~u ~key mem in
        fkill st dst;
        if u.V.rid <> dst.V.rid then
          fadd st key { f_base = u; f_val = I.Reg dst; f_bytes = mem.I.m_bytes };
        rewrite
    | I.St { src; addr; mem; _ } ->
        let u, k, key = addr_key st.fm addr mem in
        clobber st ~local:(is_local mem) ~base_rid:u.V.rid ~k ~bytes:mem.I.m_bytes;
        fadd st key { f_base = u; f_val = src; f_bytes = mem.I.m_bytes };
        None
    | I.Atom { mem; _ } ->
        clobber_class st ~local:(is_local mem);
        None
    | _ ->
        let d = I.def ins in
        if d != I.no_def then fkill st d;
        None
  in
  A.step st.fm ins;
  rewrite

module R = Dataflow.Rewriter (struct
  type t = st

  let create ~nregs code =
    {
      fm = A.create ~nregs code;
      facts = FM.empty;
      mentioned = Dataflow.Bits.create nregs;
    }

  let copy = copy
  let equal a b = A.equal a.fm b.fm && FM.equal fact_equal a.facts b.facts

  (* the values both sides agree on; [a]'s [mentioned] covers them *)
  let join a b =
    let facts =
      FM.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y when fact_equal x y -> Some x
          | _ -> None)
        a.facts b.facts
    in
    { fm = A.join a.fm b.fm; facts; mentioned = a.mentioned }

  let step = step
end)

let optimize f = Facts.update f (R.optimize ~nregs:(Facts.bound f) (Facts.cfg f))
