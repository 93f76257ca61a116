(* Closure-threaded execution engine.

   [of_kernel] turns a decoded op array into OCaml closures once per
   kernel: every op becomes a closure with its operands resolved at
   compile time (register indices and immediates are captured, so the
   hot path never re-inspects a [Decode.src]), and each basic block's
   straight-line run is chained into one block closure in
   continuation-passing style — executing a block is a single indirect
   call that tail-calls through its ops and returns the index of the
   next block. There is no per-instruction dispatch [match], per-op
   counter increment or per-op fuel decrement in the inner loop:
   counters become one static delta per block, fuel one subtraction
   per block.

   There is one closure family: every op is its own [build_op] closure
   — the same closure the timing model's [steps] run — and the
   terminator is a plain branch on its predicate register.

   Each closure body is the semantics of one decoded op ({!Decode.dop})
   with the operand [match] hoisted to compile time, converting across
   register halves exactly like the boxed reference walker's
   [Value.to_*]; the differential suite holds the two engines to
   bit-identical memory, counters and timing stats.

   The timing model charges costs per instruction, so [steps] exposes
   the same closures in per-pc form: a step closure performs one op and
   returns the next pc, which is how {!Timing}'s machine model runs on
   threaded execution. *)

module D = Decode
module I = Safara_vir.Instr
module K = Safara_vir.Kernel
module V = Safara_vir.Vreg

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

(* what a functional run needs beyond the decoded ops *)
type func = {
  f_blocks : block array;
  f_zero : int array;  (** rids a thread may read before writing them *)
}

type t = {
  t_d : D.t;
  mutable t_func : func option;
      (** block form, built by [of_kernel] on the calling domain before
          it hands [t] out *)
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

(* --- basic blocks ------------------------------------------------------ *)

let build_blocks (d : D.t) : block array =
  let ops = d.D.d_ops in
  let n = Array.length ops in
  if n = 0 then [||]
  else begin
    (* leaders: entry, every branch target, every successor of a
       control-flow op — branch targets land on block boundaries, so
       a block closure never spans a join point *)
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
      (* chain the straight-line body into the terminator so executing
         the block is one call *)
      let rec chain i : cl =
        if i >= body_hi then term else build_op d ops.(i) (chain (i + 1))
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

(* --- registers a thread may read before writing ----------------------- *)

(* A def in the entry prefix (the straightline run before the first
   label or branch) executes unconditionally before any later op, so a
   rid whose first def sits there — strictly before its first use —
   can never expose a stale value, and the per-thread reset need not
   zero it. Compiled kernels define everything up front, so this is
   usually the empty set and the reset touches no registers. Only
   functional runs need it: the timing model zeroes each warp's whole
   register prefix instead. *)
let zero_regs (d : D.t) : int array =
  let code = d.D.d_kernel.K.code in
  let nregs = d.D.d_nregs in
  let entry_end =
    let stop = ref (Array.length code) in
    (try
       Array.iteri
         (fun i instr ->
           match instr with
           | I.Label _ | I.Bra _ | I.Brc _ ->
               stop := i;
               raise Exit
           | _ -> ())
         code
     with Exit -> ());
    !stop
  in
  let first_def = Array.make nregs max_int in
  let first_use = Array.make nregs max_int in
  Array.iteri
    (fun i instr ->
      I.iter_uses
        (fun (r : V.t) ->
          if first_use.(r.V.rid) = max_int then first_use.(r.V.rid) <- i)
        instr;
      I.iter_defs
        (fun (r : V.t) ->
          if first_def.(r.V.rid) = max_int then first_def.(r.V.rid) <- i)
        instr)
    code;
  let zero = ref [] in
  for r = nregs - 1 downto 0 do
    let safe = first_def.(r) < entry_end && first_def.(r) < first_use.(r) in
    if not safe then zero := r :: !zero
  done;
  Array.of_list !zero

let func t =
  match t.t_func with
  | Some f -> f
  | None ->
      let f = { f_blocks = build_blocks t.t_d; f_zero = zero_regs t.t_d } in
      t.t_func <- Some f;
      f

(* --- drivers ---------------------------------------------------------- *)

let run_thread t (st : D.state) ps (cnt : D.counters) ~fuel =
  let { f_blocks = blocks; f_zero = zero } = func t in
  for i = 0 to Array.length zero - 1 do
    let r = Array.unsafe_get zero i in
    Array.unsafe_set st.D.xf r 0.;
    Array.unsafe_set st.D.xi r 0
  done;
  if Hashtbl.length st.D.x_local > 0 then Hashtbl.reset st.D.x_local;
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
      let t = { t_d = D.decode k; t_func = None; t_steps = None } in
      let rest = if List.length !c >= cache_limit then [] else !c in
      c := (k, t) :: rest;
      t

(* The block form is built here, on the calling domain, so a
   block-parallel launch that hands [t] to other domains never has them
   race to fill it. *)
let of_kernel (k : K.t) : t =
  let t = cached k in
  ignore (func t : func);
  t

let steps_of_kernel (k : K.t) =
  let t = cached k in
  (t.t_d, steps t)
