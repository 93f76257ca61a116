(* Closure-threaded execution engine.

   [compile] turns a decoded op array into OCaml closures once per
   kernel: every op becomes a closure with its operands resolved at
   compile time (register indices and immediates are captured, so the
   hot path never re-inspects a [Decode.src]), and each basic block's
   straight-line run is fused into one superop closure by chaining the
   op closures in continuation-passing style — executing a block is a
   single indirect call that tail-calls through its ops and returns
   the index of the next block. There is no per-instruction dispatch
   [match], per-op counter increment or per-op fuel decrement in the
   inner loop: counters become one static delta per block, fuel one
   subtraction per block.

   One superop family goes further and shares one closure body across
   several ops: [fuse_addr], the byte-addressing chain scale → convert
   → base add → global load or store, with the loaded value's move.
   Every other op is its own [build_op] closure — the same closure the
   timing model's [steps] run — and the terminator is a plain branch
   on its predicate register.

   Each closure body is the semantics of one decoded op ({!Decode.dop})
   with the operand [match] hoisted to compile time, converting across
   register halves exactly like the boxed reference walker's
   [Value.to_*]; the differential suite holds the two engines to
   bit-identical memory, counters and timing stats.

   The timing model cannot use superops (it charges costs per
   instruction), so [steps] exposes the same compiled closures in
   per-pc form: a step closure performs one op and returns the next
   pc, which is how {!Timing}'s machine model runs on threaded
   execution. *)

module D = Decode
module K = Safara_vir.Kernel

(* A compiled chunk of execution: runs some ops against the state and
   returns the next block index (block bodies) or the next pc (step
   closures); [-1] / [Array.length d_ops] respectively mean "thread
   done". *)
type cl = D.state -> D.params -> int

type block = {
  b_run : cl;
  b_instr : int;  (** ops in the block, labels included — fuel cost *)
  b_mem : int;  (** loads + stores + atomics + spills: 0 for ALU blocks *)
  b_loads : int;
  b_stores : int;
  b_atomics : int;
  b_spills : int;
}

type t = {
  t_d : D.t;
  mutable t_blocks : block array option;
      (** superop form, built on demand; [of_kernel] builds it on the
          calling domain before handing [t] out *)
  mutable t_steps : cl array option;  (** per-pc form, built on demand *)
}

let decoded t = t.t_d

(* --- compile-time operand resolution --------------------------------- *)

(* Operands collapse to "constant or register index" per register
   class; the rare cross-class register read keeps a dynamic reader
   closure. The conversions mirror the boxed engine's [Value.to_*]
   exactly. *)

type fsrc = FC of float | FR of int | FD of (D.state -> float)
type isrc = IC of int | IR of int | ID of (D.state -> int)

let fsrc = function
  | D.SFImm f -> FC f
  | D.SIImm n -> FC (float_of_int n)
  | D.SFReg r -> FR r
  | D.SIReg r -> FD (fun st -> float_of_int (Array.unsafe_get st.D.xi r))

let isrc = function
  | D.SFImm f -> IC (int_of_float f)
  | D.SIImm n -> IC n
  | D.SIReg r -> IR r
  | D.SFReg r -> ID (fun st -> int_of_float (Array.unsafe_get st.D.xf r))

let fdyn = function
  | FC c -> fun _ -> c
  | FR r -> fun st -> Array.unsafe_get st.D.xf r
  | FD g -> g

let idyn = function
  | IC c -> fun _ -> c
  | IR r -> fun st -> Array.unsafe_get st.D.xi r
  | ID g -> g

let bdyn (s : D.src) : D.state -> bool =
  match s with
  | D.SFImm f ->
      let b = f <> 0. in
      fun _ -> b
  | D.SIImm n ->
      let b = n <> 0 in
      fun _ -> b
  | D.SFReg r -> fun st -> Array.unsafe_get st.D.xf r <> 0.
  | D.SIReg r -> fun st -> Array.unsafe_get st.D.xi r <> 0

(* --- per-site memory cursors ----------------------------------------- *)

(* Every compiled global-memory site captures its own allocation
   cursor: a static load/store nearly always streams through one
   array, so after the first access the slot revalidates with a
   single range check — the shared last-hit cache (which a stencil
   alternating three arrays thrashes into a binary search per access)
   drops out of the hot path entirely. The cursor is only ever a
   hint, revalidated before use, so when one launch's chunks share
   compiled closures across domains the race on it is benign: a stale
   read just repeats the search. *)
let[@inline] locate cur mem a =
  let s = !cur in
  if Memory.slot_contains mem ~slot:s ~addr:a then s
  else begin
    let s = Memory.find_slot mem ~near:s ~addr:a in
    cur := s;
    s
  end

(* Unary float ops resolve at compile time to a small integer code
   branched on inside the closure: every body below is a direct
   stdlib application with an unboxed float argument, so the
   cross-module [Exec.funa] dispatch — whose returned float the
   caller must box — drops out of the hot path. The branch order
   matches observed frequency (sqrt/floor dominate the workloads).
   [Not] has no float meaning and keeps the fallback. *)
let[@inline always] uapp u x =
  if u = 0 then sqrt x
  else if u = 1 then Float.floor x
  else if u = 2 then exp x
  else if u = 3 then log x
  else if u = 4 then sin x
  else if u = 5 then cos x
  else if u = 6 then Float.abs x
  else -.x

let ucode_of (op : Safara_vir.Instr.unop) =
  match op with
  | Safara_vir.Instr.Sqrt -> Some 0
  | Safara_vir.Instr.Floor -> Some 1
  | Safara_vir.Instr.Exp -> Some 2
  | Safara_vir.Instr.Log -> Some 3
  | Safara_vir.Instr.Sin -> Some 4
  | Safara_vir.Instr.Cos -> Some 5
  | Safara_vir.Instr.Fabs -> Some 6
  | Safara_vir.Instr.Neg -> Some 7
  | Safara_vir.Instr.Not -> None

(* --- one op as a closure --------------------------------------------- *)

(* [build_op d op k] compiles a non-control-flow op into a closure
   that performs its effect and tail-calls [k]. The dominant operand
   shapes (register×register, register×constant) get fully
   specialized closures — a block body is then pure array traffic
   plus one indirect tail call per op; everything else falls back to
   dynamic reader closures. *)
let build_op (d : D.t) (op : D.dop) (k : cl) : cl =
  let mems = d.D.d_mems in
  match op with
  | D.DNop -> k
  | D.DMov { fdst; dst; src } ->
      if fdst then (
        match fsrc src with
        | FC c ->
            fun st ps ->
              Array.unsafe_set st.D.xf dst c;
              k st ps
        | FR r ->
            fun st ps ->
              Array.unsafe_set st.D.xf dst (Array.unsafe_get st.D.xf r);
              k st ps
        | FD g ->
            fun st ps ->
              Array.unsafe_set st.D.xf dst (g st);
              k st ps)
      else (
        match isrc src with
        | IC c ->
            fun st ps ->
              Array.unsafe_set st.D.xi dst c;
              k st ps
        | IR r ->
            fun st ps ->
              Array.unsafe_set st.D.xi dst (Array.unsafe_get st.D.xi r);
              k st ps
        | ID g ->
            fun st ps ->
              Array.unsafe_set st.D.xi dst (g st);
              k st ps)
  | D.DAddF { dst; a; b } -> (
      match (fsrc a, fsrc b) with
      | FR x, FR y ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst
              (Array.unsafe_get st.D.xf x +. Array.unsafe_get st.D.xf y);
            k st ps
      | FR x, FC c ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst (Array.unsafe_get st.D.xf x +. c);
            k st ps
      | FC c, FR y ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst (c +. Array.unsafe_get st.D.xf y);
            k st ps
      | a, b ->
          let ga = fdyn a and gb = fdyn b in
          fun st ps ->
            Array.unsafe_set st.D.xf dst (ga st +. gb st);
            k st ps)
  | D.DSubF { dst; a; b } -> (
      match (fsrc a, fsrc b) with
      | FR x, FR y ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst
              (Array.unsafe_get st.D.xf x -. Array.unsafe_get st.D.xf y);
            k st ps
      | FR x, FC c ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst (Array.unsafe_get st.D.xf x -. c);
            k st ps
      | FC c, FR y ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst (c -. Array.unsafe_get st.D.xf y);
            k st ps
      | a, b ->
          let ga = fdyn a and gb = fdyn b in
          fun st ps ->
            Array.unsafe_set st.D.xf dst (ga st -. gb st);
            k st ps)
  | D.DMulF { dst; a; b } -> (
      match (fsrc a, fsrc b) with
      | FR x, FR y ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst
              (Array.unsafe_get st.D.xf x *. Array.unsafe_get st.D.xf y);
            k st ps
      | FR x, FC c ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst (Array.unsafe_get st.D.xf x *. c);
            k st ps
      | FC c, FR y ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst (c *. Array.unsafe_get st.D.xf y);
            k st ps
      | a, b ->
          let ga = fdyn a and gb = fdyn b in
          fun st ps ->
            Array.unsafe_set st.D.xf dst (ga st *. gb st);
            k st ps)
  | D.DAddI { dst; a; b } -> (
      match (isrc a, isrc b) with
      | IR x, IR y ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (Array.unsafe_get st.D.xi x + Array.unsafe_get st.D.xi y);
            k st ps
      | IR x, IC c ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst (Array.unsafe_get st.D.xi x + c);
            k st ps
      | IC c, IR y ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst (c + Array.unsafe_get st.D.xi y);
            k st ps
      | a, b ->
          let ga = idyn a and gb = idyn b in
          fun st ps ->
            Array.unsafe_set st.D.xi dst (ga st + gb st);
            k st ps)
  | D.DMulI { dst; a; b } -> (
      match (isrc a, isrc b) with
      | IR x, IR y ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (Array.unsafe_get st.D.xi x * Array.unsafe_get st.D.xi y);
            k st ps
      | IR x, IC c ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst (Array.unsafe_get st.D.xi x * c);
            k st ps
      | IC c, IR y ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst (c * Array.unsafe_get st.D.xi y);
            k st ps
      | a, b ->
          let ga = idyn a and gb = idyn b in
          fun st ps ->
            Array.unsafe_set st.D.xi dst (ga st * gb st);
            k st ps)
  | D.DBinF { op; dst; a; b } -> (
      (* operand reads are specialized here too: a [fdyn] closure call
         returns a boxed float, an allocation per operand per
         execution the compiled form exists to avoid *)
      match (fsrc a, fsrc b) with
      | FR x, FR y ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst
              (Exec.fbin op (Array.unsafe_get st.D.xf x)
                 (Array.unsafe_get st.D.xf y));
            k st ps
      | FR x, FC c ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst
              (Exec.fbin op (Array.unsafe_get st.D.xf x) c);
            k st ps
      | FC c, FR y ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst
              (Exec.fbin op c (Array.unsafe_get st.D.xf y));
            k st ps
      | a, b ->
          let ga = fdyn a and gb = fdyn b in
          fun st ps ->
            Array.unsafe_set st.D.xf dst (Exec.fbin op (ga st) (gb st));
            k st ps)
  | D.DBinI { op; dst; a; b } -> (
      match (isrc a, isrc b) with
      | IR x, IR y ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (Exec.ibin op (Array.unsafe_get st.D.xi x)
                 (Array.unsafe_get st.D.xi y));
            k st ps
      | IR x, IC c ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (Exec.ibin op (Array.unsafe_get st.D.xi x) c);
            k st ps
      | IC c, IR y ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (Exec.ibin op c (Array.unsafe_get st.D.xi y));
            k st ps
      | a, b ->
          let ga = idyn a and gb = idyn b in
          fun st ps ->
            Array.unsafe_set st.D.xi dst (Exec.ibin op (ga st) (gb st));
            k st ps)
  | D.DBinB { op; dst; a; b } ->
      let ga = bdyn a and gb = bdyn b in
      fun st ps ->
        Array.unsafe_set st.D.xi dst
          (if Exec.bbin op (ga st) (gb st) then 1 else 0);
        k st ps
  | D.DUnaF { op; fdst; dst; a } -> (
      match (fsrc a, fdst, ucode_of op) with
      | FR r, true, Some u ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst
              (uapp u (Array.unsafe_get st.D.xf r));
            k st ps
      | FR r, true, None ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst
              (Exec.funa op (Array.unsafe_get st.D.xf r));
            k st ps
      | FR r, false, _ ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (int_of_float (Exec.funa op (Array.unsafe_get st.D.xf r)));
            k st ps
      | a, fdst, _ ->
          let ga = fdyn a in
          if fdst then
            fun st ps ->
              Array.unsafe_set st.D.xf dst (Exec.funa op (ga st));
              k st ps
          else
            fun st ps ->
              Array.unsafe_set st.D.xi dst
                (int_of_float (Exec.funa op (ga st)));
              k st ps)
  | D.DNegI { dst; a } -> (
      match isrc a with
      | IR r ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst (-Array.unsafe_get st.D.xi r);
            k st ps
      | a ->
          let ga = idyn a in
          fun st ps ->
            Array.unsafe_set st.D.xi dst (-ga st);
            k st ps)
  | D.DNot { fdst; dst; a } ->
      let ga = bdyn a in
      if fdst then
        fun st ps ->
          Array.unsafe_set st.D.xf dst (if ga st then 0. else 1.);
          k st ps
      else
        fun st ps ->
          Array.unsafe_set st.D.xi dst (if ga st then 0 else 1);
          k st ps
  | D.DCvtF { dst; src } -> (
      match src with
      | D.SFReg r ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst (Array.unsafe_get st.D.xf r);
            k st ps
      | D.SIReg r ->
          fun st ps ->
            Array.unsafe_set st.D.xf dst
              (float_of_int (Array.unsafe_get st.D.xi r));
            k st ps
      | src ->
          let g = fdyn (fsrc src) in
          fun st ps ->
            Array.unsafe_set st.D.xf dst (g st);
            k st ps)
  | D.DCvtI { dst; src } -> (
      match src with
      | D.SIReg r ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst (Array.unsafe_get st.D.xi r);
            k st ps
      | D.SFReg r ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (int_of_float (Array.unsafe_get st.D.xf r));
            k st ps
      | src ->
          let g = idyn (isrc src) in
          fun st ps ->
            Array.unsafe_set st.D.xi dst (g st);
            k st ps)
  | D.DCvtB { dst; src } ->
      let g = bdyn src in
      fun st ps ->
        Array.unsafe_set st.D.xi dst (if g st then 1 else 0);
        k st ps
  | D.DSetpF { cmp; fdst; dst; a; b } -> (
      match (fsrc a, fsrc b, fdst) with
      | FR x, FR y, false ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (if
                 Exec.fcmp cmp (Array.unsafe_get st.D.xf x)
                   (Array.unsafe_get st.D.xf y)
               then 1
               else 0);
            k st ps
      | FR x, FC c, false ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (if Exec.fcmp cmp (Array.unsafe_get st.D.xf x) c then 1 else 0);
            k st ps
      | a, b, fdst ->
          let ga = fdyn a and gb = fdyn b in
          if fdst then
            fun st ps ->
              Array.unsafe_set st.D.xf dst
                (if Exec.fcmp cmp (ga st) (gb st) then 1. else 0.);
              k st ps
          else
            fun st ps ->
              Array.unsafe_set st.D.xi dst
                (if Exec.fcmp cmp (ga st) (gb st) then 1 else 0);
              k st ps)
  | D.DSetpI { cmp; fdst; dst; a; b } -> (
      match (isrc a, isrc b, fdst) with
      | IR x, IR y, false ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (if
                 Exec.icmp cmp (Array.unsafe_get st.D.xi x)
                   (Array.unsafe_get st.D.xi y)
               then 1
               else 0);
            k st ps
      | IR x, IC c, false ->
          fun st ps ->
            Array.unsafe_set st.D.xi dst
              (if Exec.icmp cmp (Array.unsafe_get st.D.xi x) c then 1 else 0);
            k st ps
      | a, b, fdst ->
          let ga = idyn a and gb = idyn b in
          if fdst then
            fun st ps ->
              Array.unsafe_set st.D.xf dst
                (if Exec.icmp cmp (ga st) (gb st) then 1. else 0.);
              k st ps
          else
            fun st ps ->
              Array.unsafe_set st.D.xi dst
                (if Exec.icmp cmp (ga st) (gb st) then 1 else 0);
              k st ps)
  | D.DSpec { fdst; dst; sp } ->
      if fdst then
        fun st ps ->
          Array.unsafe_set st.D.xf dst
            (float_of_int (Array.unsafe_get st.D.x_special sp));
          k st ps
      else
        fun st ps ->
          Array.unsafe_set st.D.xi dst (Array.unsafe_get st.D.x_special sp);
          k st ps
  | D.DLdp { fdst; dst; slot } ->
      (* [slot < |d_params|] by decode, so the resolved-bit probe can
         skip the bounds check; the slow path fires once per launch *)
      if fdst then
        fun st ps ->
          if not (Array.unsafe_get ps.D.pv_ok slot) then
            D.ensure_param d ps slot;
          Array.unsafe_set st.D.xf dst (Array.unsafe_get ps.D.pv_f slot);
          k st ps
      else
        fun st ps ->
          if not (Array.unsafe_get ps.D.pv_ok slot) then
            D.ensure_param d ps slot;
          Array.unsafe_set st.D.xi dst (Array.unsafe_get ps.D.pv_i slot);
          k st ps
  | D.DLd { fdst; dst; addr; mi } ->
      (* the closure reads memory through [ps] rather than capturing
         it, so compiled kernels are reusable across launches and
         chunks (each chunk's params carry its private Memory.view) *)
      if (Array.get mems mi).D.mo_local then
        let ga = idyn (isrc addr) in
        if fdst then
          fun st ps ->
            let a = ga st in
            st.D.x_addr <- a;
            (match Hashtbl.find_opt st.D.x_local a with
            | Some v -> Array.unsafe_set st.D.xf dst (Value.to_float v)
            | None -> Array.unsafe_set st.D.xf dst 0.);
            k st ps
        else
          fun st ps ->
            let a = ga st in
            st.D.x_addr <- a;
            (match Hashtbl.find_opt st.D.x_local a with
            | Some v -> Array.unsafe_set st.D.xi dst (Value.to_int v)
            | None -> Array.unsafe_set st.D.xi dst 0);
            k st ps
      else (
        match (isrc addr, fdst) with
        | IR ra, true ->
            let cur = ref (-1) in
            fun st ps ->
              let a = Array.unsafe_get st.D.xi ra in
              st.D.x_addr <- a;
              let mem = ps.D.p_env.D.mem in
              let s = locate cur mem a in
              Array.unsafe_set st.D.xf dst
                (Memory.load_float_slot mem ~slot:s ~addr:a);
              k st ps
        | IR ra, false ->
            let cur = ref (-1) in
            fun st ps ->
              let a = Array.unsafe_get st.D.xi ra in
              st.D.x_addr <- a;
              let mem = ps.D.p_env.D.mem in
              let s = locate cur mem a in
              Array.unsafe_set st.D.xi dst
                (Memory.load_int_slot mem ~slot:s ~addr:a);
              k st ps
        | addr, fdst ->
            let ga = idyn addr in
            let cur = ref (-1) in
            if fdst then
              fun st ps ->
                let a = ga st in
                st.D.x_addr <- a;
                let mem = ps.D.p_env.D.mem in
                let s = locate cur mem a in
                Array.unsafe_set st.D.xf dst
                  (Memory.load_float_slot mem ~slot:s ~addr:a);
                k st ps
            else
              fun st ps ->
                let a = ga st in
                st.D.x_addr <- a;
                let mem = ps.D.p_env.D.mem in
                let s = locate cur mem a in
                Array.unsafe_set st.D.xi dst
                  (Memory.load_int_slot mem ~slot:s ~addr:a);
                k st ps)
  | D.DSt { src; addr; mi } ->
      if (Array.get mems mi).D.mo_local then
        let ga = idyn (isrc addr) in
        let vs : D.state -> Value.t =
          match src with
          | D.SFImm f -> fun _ -> Value.F f
          | D.SIImm n -> fun _ -> Value.I n
          | D.SFReg r -> fun st -> Value.F (Array.unsafe_get st.D.xf r)
          | D.SIReg r -> fun st -> Value.I (Array.unsafe_get st.D.xi r)
        in
        fun st ps ->
          let a = ga st in
          st.D.x_addr <- a;
          Hashtbl.replace st.D.x_local a (vs st);
          k st ps
      else (
        match (src, isrc addr) with
        | D.SFReg r, IR ra ->
            let cur = ref (-1) in
            fun st ps ->
              let a = Array.unsafe_get st.D.xi ra in
              st.D.x_addr <- a;
              let mem = ps.D.p_env.D.mem in
              let s = locate cur mem a in
              Memory.store_float_slot mem ~slot:s ~addr:a
                (Array.unsafe_get st.D.xf r);
              k st ps
        | D.SIReg r, IR ra ->
            let cur = ref (-1) in
            fun st ps ->
              let a = Array.unsafe_get st.D.xi ra in
              st.D.x_addr <- a;
              let mem = ps.D.p_env.D.mem in
              let s = locate cur mem a in
              Memory.store_int_slot mem ~slot:s ~addr:a
                (Array.unsafe_get st.D.xi r);
              k st ps
        | (D.SFImm _ | D.SFReg _), addr ->
            let ga = idyn addr and gv = fdyn (fsrc src) in
            let cur = ref (-1) in
            fun st ps ->
              let a = ga st in
              st.D.x_addr <- a;
              let mem = ps.D.p_env.D.mem in
              let s = locate cur mem a in
              Memory.store_float_slot mem ~slot:s ~addr:a (gv st);
              k st ps
        | (D.SIImm _ | D.SIReg _), addr ->
            let ga = idyn addr and gv = idyn (isrc src) in
            let cur = ref (-1) in
            fun st ps ->
              let a = ga st in
              st.D.x_addr <- a;
              let mem = ps.D.p_env.D.mem in
              let s = locate cur mem a in
              Memory.store_int_slot mem ~slot:s ~addr:a (gv st);
              k st ps)
  | D.DAtom { op; addr; src; mi = _ } ->
      let ga = idyn (isrc addr) in
      let gf = fdyn (fsrc src) and gi = idyn (isrc src) in
      let cur = ref (-1) in
      fun st ps ->
        let a = ga st in
        st.D.x_addr <- a;
        let mem = ps.D.p_env.D.mem in
        let s = locate cur mem a in
        (if Memory.slot_is_float mem ~slot:s then
           Memory.store_float_slot mem ~slot:s ~addr:a
             (Exec.fbin op (Memory.load_float_slot mem ~slot:s ~addr:a) (gf st))
         else
           Memory.store_int_slot mem ~slot:s ~addr:a
             (Exec.ibin op (Memory.load_int_slot mem ~slot:s ~addr:a) (gi st)));
        k st ps
  | D.DBra _ | D.DBrc _ | D.DRet ->
      (* control flow is compiled by the block terminator / step
         builders, never as a body op *)
      assert false

(* --- addressing-chain fusion ------------------------------------------ *)

(* The first op of an addressing chain computes the index t with an
   int operator given by a small integer code, branched on inside the
   closure: unlike a reader closure, a branch on a captured immediate
   costs no call and no allocation ([iapp] is a direct application the
   compiler inlines). Operand positions are always preserved — nothing
   commutes. *)

let[@inline always] iapp c p q =
  if c = 0 then p + q
  else if c = 1 then p * q
  else if c = 2 then p - q
  else if c = 3 then if p <= q then p else q
  else if p <= q then q
  else p

(* the int binops with branch-free direct bodies; Div/Rem guard
   against zero and Pow round-trips through float — those stay on the
   unfused path *)
let icode_of (op : Safara_vir.Instr.binop) =
  match op with
  | Safara_vir.Instr.Add -> Some 0
  | Safara_vir.Instr.Mul -> Some 1
  | Safara_vir.Instr.Sub -> Some 2
  | Safara_vir.Instr.Min -> Some 3
  | Safara_vir.Instr.Max -> Some 4
  | _ -> None

(* the chain's first op: t's shape. codes 0=add 1=mul 2=sub 3=min
   4=max *)
type ifirst =
  | IF_rr of int * int * int  (* code, x, y: t = x ⊙ y *)
  | IF_rc of int * int * int  (* code, x, c: t = x ⊙ c *)

let ifirst_of (op : D.dop) : (int * ifirst) option =
  let dec code dst a b =
    match (isrc a, isrc b) with
    | IR x, IR y -> Some (dst, IF_rr (code, x, y))
    | IR x, IC c -> Some (dst, IF_rc (code, x, c))
    | _ -> None
  in
  match op with
  | D.DAddI { dst; a; b } -> dec 0 dst a b
  | D.DMulI { dst; a; b } -> dec 1 dst a b
  | D.DBinI { op; dst; a; b } -> (
      match icode_of op with Some c -> dec c dst a b | None -> None)
  | _ -> None

(* The complete byte-addressing idiom
   [t = x ⊙ y; off = cvt t; a = base + off; ld f <- [a]; mov g <- f]
   — the dominant inner-loop tail in the stencil and seismic kernels
   — collapses into one closure; the trailing register move of the
   loaded value rides along when present, and the store-side variant
   [...; st [a] <- v] fuses the same way. Every register write lands
   in sequential order before any later read (operand reads go
   through the register file after the preceding writes), so
   aliasing is exact even when destinations coincide. *)
let fuse_addr (d : D.t) (ops : D.dop array) (i : int) (body_hi : int) :
    (int * (cl -> cl)) option =
  let glob mi = not (Array.get d.D.d_mems mi).D.mo_local in
  if i + 3 >= body_hi then None
  else
    match ifirst_of ops.(i) with
    | None -> None
    | Some (d1, t_shape) -> (
        match ops.(i + 1) with
        | ( D.DCvtI { dst = c2; src = D.SIReg r }
          | D.DMov { fdst = false; dst = c2; src = D.SIReg r } )
          when r = d1 -> (
            match ops.(i + 2) with
            | D.DAddI { dst = d3; a; b } -> (
                let base =
                  match (isrc a, isrc b) with
                  | IR p, IR q when q = c2 && p <> c2 -> Some p
                  | IR p, IR q when p = c2 && q <> c2 -> Some q
                  | _ -> None
                in
                match (base, ops.(i + 3)) with
                | Some p, D.DLd { fdst = true; dst = dl; addr = D.SIReg ra; mi }
                  when ra = d3 && glob mi -> (
                    let mov =
                      if i + 4 < body_hi then
                        match ops.(i + 4) with
                        | D.DMov { fdst = true; dst = d5; src = D.SFReg r5 }
                          when r5 = dl ->
                            Some d5
                        | _ -> None
                      else None
                    in
                    match (t_shape, mov) with
                    | IF_rr (c1, x, y), Some d5 ->
                        Some
                          ( 5,
                            fun k ->
                              let cur = ref (-1) in
                              fun st ps ->
                                let t =
                                  iapp c1
                                    (Array.unsafe_get st.D.xi x)
                                    (Array.unsafe_get st.D.xi y)
                                in
                                Array.unsafe_set st.D.xi d1 t;
                                Array.unsafe_set st.D.xi c2 t;
                                let a = Array.unsafe_get st.D.xi p + t in
                                Array.unsafe_set st.D.xi d3 a;
                                st.D.x_addr <- a;
                                let mem = ps.D.p_env.D.mem in
                                let s = locate cur mem a in
                                let v =
                                  Memory.load_float_slot mem ~slot:s ~addr:a
                                in
                                Array.unsafe_set st.D.xf dl v;
                                Array.unsafe_set st.D.xf d5 v;
                                k st ps )
                    | IF_rr (c1, x, y), None ->
                        Some
                          ( 4,
                            fun k ->
                              let cur = ref (-1) in
                              fun st ps ->
                                let t =
                                  iapp c1
                                    (Array.unsafe_get st.D.xi x)
                                    (Array.unsafe_get st.D.xi y)
                                in
                                Array.unsafe_set st.D.xi d1 t;
                                Array.unsafe_set st.D.xi c2 t;
                                let a = Array.unsafe_get st.D.xi p + t in
                                Array.unsafe_set st.D.xi d3 a;
                                st.D.x_addr <- a;
                                let mem = ps.D.p_env.D.mem in
                                let s = locate cur mem a in
                                Array.unsafe_set st.D.xf dl
                                  (Memory.load_float_slot mem ~slot:s ~addr:a);
                                k st ps )
                    | IF_rc (c1, x, c0), Some d5 ->
                        Some
                          ( 5,
                            fun k ->
                              let cur = ref (-1) in
                              fun st ps ->
                                let t =
                                  iapp c1 (Array.unsafe_get st.D.xi x) c0
                                in
                                Array.unsafe_set st.D.xi d1 t;
                                Array.unsafe_set st.D.xi c2 t;
                                let a = Array.unsafe_get st.D.xi p + t in
                                Array.unsafe_set st.D.xi d3 a;
                                st.D.x_addr <- a;
                                let mem = ps.D.p_env.D.mem in
                                let s = locate cur mem a in
                                let v =
                                  Memory.load_float_slot mem ~slot:s ~addr:a
                                in
                                Array.unsafe_set st.D.xf dl v;
                                Array.unsafe_set st.D.xf d5 v;
                                k st ps )
                    | IF_rc (c1, x, c0), None ->
                        Some
                          ( 4,
                            fun k ->
                              let cur = ref (-1) in
                              fun st ps ->
                                let t =
                                  iapp c1 (Array.unsafe_get st.D.xi x) c0
                                in
                                Array.unsafe_set st.D.xi d1 t;
                                Array.unsafe_set st.D.xi c2 t;
                                let a = Array.unsafe_get st.D.xi p + t in
                                Array.unsafe_set st.D.xi d3 a;
                                st.D.x_addr <- a;
                                let mem = ps.D.p_env.D.mem in
                                let s = locate cur mem a in
                                Array.unsafe_set st.D.xf dl
                                  (Memory.load_float_slot mem ~slot:s ~addr:a);
                                k st ps ))
                | Some p, D.DSt { src = D.SFReg v; addr = D.SIReg ra; mi }
                  when ra = d3 && glob mi -> (
                    match t_shape with
                    | IF_rr (c1, x, y) ->
                        Some
                          ( 4,
                            fun k ->
                              let cur = ref (-1) in
                              fun st ps ->
                                let t =
                                  iapp c1
                                    (Array.unsafe_get st.D.xi x)
                                    (Array.unsafe_get st.D.xi y)
                                in
                                Array.unsafe_set st.D.xi d1 t;
                                Array.unsafe_set st.D.xi c2 t;
                                let a = Array.unsafe_get st.D.xi p + t in
                                Array.unsafe_set st.D.xi d3 a;
                                st.D.x_addr <- a;
                                let mem = ps.D.p_env.D.mem in
                                let s = locate cur mem a in
                                Memory.store_float_slot mem ~slot:s ~addr:a
                                  (Array.unsafe_get st.D.xf v);
                                k st ps )
                    | IF_rc (c1, x, c0) ->
                        Some
                          ( 4,
                            fun k ->
                              let cur = ref (-1) in
                              fun st ps ->
                                let t =
                                  iapp c1 (Array.unsafe_get st.D.xi x) c0
                                in
                                Array.unsafe_set st.D.xi d1 t;
                                Array.unsafe_set st.D.xi c2 t;
                                let a = Array.unsafe_get st.D.xi p + t in
                                Array.unsafe_set st.D.xi d3 a;
                                st.D.x_addr <- a;
                                let mem = ps.D.p_env.D.mem in
                                let s = locate cur mem a in
                                Memory.store_float_slot mem ~slot:s ~addr:a
                                  (Array.unsafe_get st.D.xf v);
                                k st ps ))
                | _ -> None)
            | _ -> None)
        | _ -> None)

(* --- basic blocks and superop fusion --------------------------------- *)

let build_blocks (d : D.t) : block array =
  let ops = d.D.d_ops in
  let n = Array.length ops in
  if n = 0 then [||]
  else begin
    (* leaders: entry, every branch target, every successor of a
       control-flow op — branch targets land on block boundaries, so
       fusion never spans a join point *)
    let leader = Array.make (n + 1) false in
    leader.(0) <- true;
    Array.iteri
      (fun i op ->
        match op with
        | D.DBra t ->
            leader.(t) <- true;
            leader.(i + 1) <- true
        | D.DBrc { target; _ } ->
            leader.(target) <- true;
            leader.(i + 1) <- true
        | D.DRet -> leader.(i + 1) <- true
        | _ -> ())
      ops;
    let blk_of = Array.make (n + 1) (-1) in
    let nblocks = ref 0 in
    for i = 0 to n - 1 do
      if leader.(i) then begin
        blk_of.(i) <- !nblocks;
        incr nblocks
      end
    done;
    (* falling off the end of the code ends the thread *)
    blk_of.(n) <- -1;
    let starts = Array.make (!nblocks + 1) n in
    let bi = ref 0 in
    for i = 0 to n - 1 do
      if leader.(i) then begin
        starts.(!bi) <- i;
        incr bi
      end
    done;
    let build_block b =
      let lo = starts.(b) and hi = starts.(b + 1) in
      let body_hi, term =
        match ops.(hi - 1) with
        | D.DBra t ->
            let tb = blk_of.(t) in
            (hi - 1, fun (_ : D.state) (_ : D.params) -> tb)
        | D.DRet -> (hi - 1, fun (_ : D.state) (_ : D.params) -> -1)
        | D.DBrc { pred; if_true; target } ->
            let tb = blk_of.(target) and fb = blk_of.(hi) in
            let on_true, on_false = if if_true then (tb, fb) else (fb, tb) in
            let term : cl =
              match pred with
              | D.SIReg r ->
                  fun st _ ->
                    if Array.unsafe_get st.D.xi r <> 0 then on_true
                    else on_false
              | D.SFReg r ->
                  fun st _ ->
                    if Array.unsafe_get st.D.xf r <> 0. then on_true
                    else on_false
              | D.SIImm v ->
                  let tgt = if v <> 0 then on_true else on_false in
                  fun _ _ -> tgt
              | D.SFImm f ->
                  let tgt = if f <> 0. then on_true else on_false in
                  fun _ _ -> tgt
            in
            (hi - 1, term)
        | _ ->
            let fb = blk_of.(hi) in
            (hi, fun (_ : D.state) (_ : D.params) -> fb)
      in
      (* fuse the straight-line body into the terminator so executing
         the block is one call; an addressing chain shares a single
         closure body *)
      let rec chain i : cl =
        if i >= body_hi then term
        else
          match fuse_addr d ops i body_hi with
          | Some (consumed, mk) -> mk (chain (i + consumed))
          | None -> build_op d ops.(i) (chain (i + 1))
      in
      let run = chain lo in
      (* static per-block counter deltas: every class a memory op
         lands in is decided at decode time ([mo_local] is static),
         so the reference engine's per-op increments collapse to one
         add per field per block *)
      let loads = ref 0 and stores = ref 0 in
      let atomics = ref 0 and spills = ref 0 in
      for i = lo to hi - 1 do
        match ops.(i) with
        | D.DLd { mi; _ } ->
            if d.D.d_mems.(mi).D.mo_local then incr spills else incr loads
        | D.DSt { mi; _ } ->
            if d.D.d_mems.(mi).D.mo_local then incr spills else incr stores
        | D.DAtom _ -> incr atomics
        | _ -> ()
      done;
      {
        b_run = run;
        b_instr = hi - lo;
        b_mem = !loads + !stores + !atomics + !spills;
        b_loads = !loads;
        b_stores = !stores;
        b_atomics = !atomics;
        b_spills = !spills;
      }
    in
    Array.init !nblocks build_block
  end

let blocks t =
  match t.t_blocks with
  | Some b -> b
  | None ->
      let b = build_blocks t.t_d in
      t.t_blocks <- Some b;
      b

let compile (d : D.t) : t =
  let t = { t_d = d; t_blocks = None; t_steps = None } in
  ignore (blocks t : block array);
  t

(* --- drivers ---------------------------------------------------------- *)

let run_thread t st ps (cnt : D.counters) ~fuel =
  let blocks = blocks t in
  if Array.length blocks > 0 then begin
    let rec go b fuel =
      if b >= 0 then begin
        let blk = Array.unsafe_get blocks b in
        let fuel = fuel - blk.b_instr in
        if fuel < 0 then failwith "interp: fuel exhausted";
        cnt.D.c_instructions <- cnt.D.c_instructions + blk.b_instr;
        if blk.b_mem <> 0 then begin
          cnt.D.c_loads <- cnt.D.c_loads + blk.b_loads;
          cnt.D.c_stores <- cnt.D.c_stores + blk.b_stores;
          cnt.D.c_atomics <- cnt.D.c_atomics + blk.b_atomics;
          cnt.D.c_spill_ops <- cnt.D.c_spill_ops + blk.b_spills
        end;
        go (blk.b_run st ps) fuel
      end
    in
    go 0 fuel
  end

let steps t =
  match t.t_steps with
  | Some s -> s
  | None ->
      let d = t.t_d in
      let ops = d.D.d_ops in
      let n = Array.length ops in
      let s =
        Array.init n (fun pc ->
            match ops.(pc) with
            | D.DNop ->
                let next = pc + 1 in
                fun (_ : D.state) (_ : D.params) -> next
            | D.DBra t ->
                fun (_ : D.state) (_ : D.params) -> t
            | D.DRet -> fun (_ : D.state) (_ : D.params) -> n
            | D.DBrc { pred; if_true; target } -> (
                let fall = pc + 1 in
                let on_true, on_false =
                  if if_true then (target, fall) else (fall, target)
                in
                match pred with
                | D.SIReg r ->
                    fun st _ ->
                      if Array.unsafe_get st.D.xi r <> 0 then on_true
                      else on_false
                | D.SFReg r ->
                    fun st _ ->
                      if Array.unsafe_get st.D.xf r <> 0. then on_true
                      else on_false
                | D.SIImm v ->
                    let tgt = if v <> 0 then on_true else on_false in
                    fun _ _ -> tgt
                | D.SFImm f ->
                    let tgt = if f <> 0. then on_true else on_false in
                    fun _ _ -> tgt)
            | op ->
                let next = pc + 1 in
                build_op d op (fun _ _ -> next))
      in
      t.t_steps <- Some s;
      s

(* --- per-domain compile cache ----------------------------------------- *)

(* Compiling allocates a closure per op, so launching the same kernel
   repeatedly (measurement loops, per-chunk work) must not recompile.
   The cache is domain-local: compiled closures are immutable and
   could be shared, but both forms are filled lazily and a per-domain
   instance keeps those writes unsynchronized. Keyed by physical kernel
   identity — compiled artifacts are interned per compile, so [==] is
   exactly "same compiled kernel". *)
let cache_limit = 64

let cache : (K.t * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cached (k : K.t) : t =
  let c = Domain.DLS.get cache in
  match List.find_opt (fun (k', _) -> k' == k) !c with
  | Some (_, t) -> t
  | None ->
      let t = { t_d = D.decode k; t_blocks = None; t_steps = None } in
      let rest = if List.length !c >= cache_limit then [] else !c in
      c := (k, t) :: rest;
      t

(* The blocks are built here, on the calling domain, so a block-parallel
   launch that hands [t] to other domains never has them race to fill
   it. *)
let of_kernel (k : K.t) : t =
  let t = cached k in
  ignore (blocks t : block array);
  t

let steps_of_kernel (k : K.t) =
  let t = cached k in
  (t.t_d, steps t)
