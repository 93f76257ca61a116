(* Strength reduction of multiply-by-stride address arithmetic.

   Codegen's addressing layer computes array offsets Horner-style and
   scales each one by the element size ([mul s, off, 8]); neighbor
   subscripts make offsets that differ only by a constant
   ([off2 = off1 ± c], emitted as add/sub). This pass runs a forward
   must-analysis pairing the affine value lattice ({!Dataflow.Affine})
   with an available-products map ((base, imm-multiplier) → register
   holding the product), and rewrites

     mul dst, t, s     where t = u + k and p = u * s is available
       ==>  add dst, p, k*s        (mov dst, p when k*s = 0)

   turning a 20-cycle multiply into a 9-cycle add — plus the local
   wins the lattice makes free: multiplies whose operand is provably
   constant fold, [*0] and [rem 1] become immediate moves, [*2]
   becomes an add of the register with itself.

   Integer registers only. OCaml-int simulator arithmetic is
   distributive modulo the word size, so (u+k)*s = u*s + k*s holds
   bit-exactly even under overflow, and every rewrite preserves
   functional results. The analysis steps over the original
   instruction stream (value relations are unchanged by the rewrites,
   so its facts remain valid for the emitted code). *)

module I = Instr
module V = Vreg
module A = Dataflow.Affine

(* (base rid, immediate multiplier) *)
module Key = struct
  type t = int * int

  let compare (u1, s1) (u2, s2) =
    match Int.compare u1 u2 with 0 -> Int.compare s1 s2 | c -> c
end

module PM = Map.Make (Key)

(* The state of one program point: the affine facts and the available
   products, (base rid, multiplier) -> (base register, register
   holding base * multiplier). [mentioned] holds every register id a
   product may name, as base or as product (a superset), so a def no
   product mentions leaves the map alone. Updated in place, like the
   affine facts: values the solver keeps are never updated, [step]
   runs on a [copy]. *)
type st = {
  fm : A.env;
  mutable prods : (V.t * V.t) PM.t;
  mentioned : Dataflow.Bits.t;
}

let copy st =
  { st with fm = A.copy st.fm; mentioned = Array.copy st.mentioned }

let prod_equal (u1, p1) (u2, p2) =
  V.equal u1 u2 && u1.V.rty = u2.V.rty && V.equal p1 p2 && p1.V.rty = p2.V.rty

let padd st key ((u, p) as v) =
  st.prods <- PM.add key v st.prods;
  Dataflow.Bits.add st.mentioned u.V.rid;
  Dataflow.Bits.add st.mentioned p.V.rid

let pkill st (d : V.t) =
  if Dataflow.Bits.mem st.mentioned d.V.rid then begin
    Dataflow.Bits.remove st.mentioned d.V.rid;
    st.prods <-
      PM.filter (fun _ (u, p) -> not (V.equal u d || V.equal p d)) st.prods
  end

(* a multiplier operand: a literal immediate, or a register the
   lattice proves constant *)
let imm_of fm (op : I.operand) =
  match op with
  | I.Imm c -> Some c
  | I.Reg r -> (
      match A.find r.V.rid fm with
      | Some { A.base = None; k } -> Some k
      | _ -> None)
  | I.FImm _ -> None

(* the (register, immediate multiplier) factoring of a multiply, via
   the lattice when the immediate is an already-known constant *)
let reg_imm_of fm a b =
  match (a, b) with
  | I.Reg t, o | o, I.Reg t -> (
      match imm_of fm o with Some s -> Some (t, s) | None -> None)
  | _ -> None

(* one instruction forward, in place *)
let advance st ins =
  match ins with
  | I.Bin { op = I.Mul; dst; a; b } when A.integer dst -> (
      let fm = st.fm in
      match reg_imm_of fm a b with
      | Some (t, s) when not (V.equal t dst) ->
          (* t = u + 0 makes dst a product of the deeper base too *)
          let via_base =
            match A.find t.V.rid fm with
            | Some { A.base = Some u; k = 0 } when not (V.equal u dst) -> Some u
            | _ -> None
          in
          A.step fm ins;
          pkill st dst;
          padd st (t.V.rid, s) (t, dst);
          Option.iter (fun u -> padd st (u.V.rid, s) (u, dst)) via_base
      | _ ->
          A.step fm ins;
          pkill st dst)
  | _ ->
      A.step st.fm ins;
      let d = I.def ins in
      if d != I.no_def then pkill st d

(* [None]: leave the instruction alone; [Some None]: drop it;
   [Some (Some i)]: replace it *)
let rewrite { fm; prods; _ } ins =
  match ins with
  | I.Bin { op = I.Mul; dst; a; b } when A.integer dst -> (
      match (imm_of fm a, imm_of fm b) with
      | Some x, Some y -> Some (Some (I.Mov { dst; src = I.Imm (x * y) }))
      | _ -> (
          match reg_imm_of fm a b with
          | None -> None
          | Some (t, s) -> (
              if s = 0 then Some (Some (I.Mov { dst; src = I.Imm 0 }))
              else
                let f = A.resolve fm t in
                match f.A.base with
                | None -> Some (Some (I.Mov { dst; src = I.Imm (f.A.k * s) }))
                | Some u -> (
                    let product =
                      match PM.find_opt (u.V.rid, s) prods with
                      | Some (u', p)
                        when V.equal u' u && u'.V.rty = u.V.rty
                             && p.V.rty = dst.V.rty ->
                          Some p
                      | _ -> None
                    in
                    match product with
                    | Some p when f.A.k * s = 0 ->
                        if V.equal p dst then Some None
                        else Some (Some (I.Mov { dst; src = I.Reg p }))
                    | Some p ->
                        Some
                          (Some
                             (I.Bin
                                {
                                  op = I.Add;
                                  dst;
                                  a = I.Reg p;
                                  b = I.Imm (f.A.k * s);
                                }))
                    | None ->
                        if s = 2 && t.V.rty = dst.V.rty then
                          Some
                            (Some
                               (I.Bin
                                  { op = I.Add; dst; a = I.Reg t; b = I.Reg t }))
                        else if s = 1 && t.V.rty = dst.V.rty then
                          Some (Some (I.Mov { dst; src = I.Reg t }))
                        else None))))
  | I.Bin { op = I.Rem; dst; a = _; b } when A.integer dst -> (
      match imm_of fm b with
      | Some 1 -> Some (Some (I.Mov { dst; src = I.Imm 0 }))
      | _ -> None)
  | _ -> None

module R = Dataflow.Rewriter (struct
  type t = st

  let create ~nregs code =
    {
      fm = A.create ~nregs code;
      prods = PM.empty;
      mentioned = Dataflow.Bits.create nregs;
    }

  let copy = copy
  let equal a b = A.equal a.fm b.fm && PM.equal prod_equal a.prods b.prods

  (* the products both sides agree on; [a]'s [mentioned] covers them *)
  let join a b =
    let prods =
      PM.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y when prod_equal x y -> Some x
          | _ -> None)
        a.prods b.prods
    in
    { fm = A.join a.fm b.fm; prods; mentioned = a.mentioned }

  (* the rewrite reads the state before the instruction *)
  let step st ins =
    let r = rewrite st ins in
    advance st ins;
    r
end)

let optimize f = Facts.update f (R.optimize ~nregs:(Facts.bound f) (Facts.cfg f))
