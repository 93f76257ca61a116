module I = Safara_vir.Instr
module V = Safara_vir.Vreg
module K = Safara_vir.Kernel
module M = Safara_gpu.Memspace
module T = Safara_ir.Types
module D = Decode

type stats = {
  cycles : float;
  warps : int;
  instructions : int;
  transactions : int;
  issue_stall : float;
}

let issue_cost (lat : Safara_gpu.Latency.table) instr =
  ignore lat;
  match instr with
  | I.Bin { op = I.Div; dst; _ } when T.is_float dst.V.rty -> 8.
  | I.Bin { op = I.Pow; _ } -> 16.
  | I.Una { op = I.Sqrt | I.Exp | I.Log | I.Sin | I.Cos; _ } -> 4.
  | I.Bin { dst; _ } when T.is_64bit dst.V.rty -> 2.
  | _ -> 1.

let result_latency (lat : Safara_gpu.Latency.table) instr =
  let alu = float_of_int (Safara_gpu.Latency.arithmetic_latency lat `Alu) in
  match instr with
  | I.Bin { op = I.Div; dst; _ } when T.is_float dst.V.rty ->
      float_of_int (Safara_gpu.Latency.arithmetic_latency lat `Fdiv)
  | I.Bin { op = I.Pow; _ } | I.Una { op = I.Sqrt | I.Exp | I.Log | I.Sin | I.Cos; _ }
    ->
      float_of_int (Safara_gpu.Latency.arithmetic_latency lat `Special)
  | I.Bin { op = I.Mul | I.Div | I.Rem; dst; _ } when T.is_integer dst.V.rty ->
      float_of_int (Safara_gpu.Latency.arithmetic_latency lat `Mul)
  | I.Bin { dst; _ } when T.is_64bit dst.V.rty ->
      float_of_int (Safara_gpu.Latency.arithmetic_latency lat `F64)
  | _ -> alu

(* Resident-set layout shared by both engines. *)
let block_coords ~gx ~gy b = (b mod gx, b / gx mod gy, b / (gx * gy))

let lane0_coords ~bx ~by ~warp_size w =
  let lin = w * warp_size in
  (lin mod bx, lin / bx mod by, lin / (bx * by))

(* --- cache model: recency windows over 128-byte segments --------------
   A segment re-touched within the last [l1_segments] distinct touches
   hits the per-SMX read-only/L1 path; within [l2_segments] (this SM's
   share of L2) it hits L2; otherwise it goes to DRAM. This is what
   makes re-loading a value fetched one iteration ago cheap on real
   hardware — and therefore what limits the benefit of replacing
   coalesced re-loads with registers (paper Fig 7). Both engines
   share it. *)

type tier = L1 | L2 | Dram

let tier_index = function L1 -> 0 | L2 -> 1 | Dram -> 2
let tier_pipe_factor = function L1 -> 0.1 | L2 -> 0.25 | Dram -> 1.0

(* Segment numbers are dense small integers, so they hash to
   themselves: consecutive segments land in consecutive buckets, with
   no call into the runtime's generic hash. *)
module Segs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (seg : int) = seg land max_int
end)

(* A fresh cache for one resident set, as the function
   [touch_tier ~ro addr]: it records a touch of [addr]'s segment and
   returns the tier that served it. *)
let cache_model (arch : Safara_gpu.Arch.t) =
  let seg_bytes = arch.Safara_gpu.Arch.mem_segment_bytes in
  let l1_segments = max 16 (arch.Safara_gpu.Arch.read_only_cache_bytes / seg_bytes) in
  let l2_segments =
    max l1_segments
      (arch.Safara_gpu.Arch.l2_bytes / seg_bytes / max 1 arch.Safara_gpu.Arch.num_sms)
  in
  let seg_last = Segs.create 4096 in
  let seg_clock = ref 0 in
  fun ~ro addr ->
    let seg = addr / seg_bytes in
    let age =
      match Segs.find seg_last seg with
      | t -> !seg_clock - t
      | exception Not_found -> max_int
    in
    incr seg_clock;
    Segs.replace seg_last seg !seg_clock;
    if age < l1_segments && ro then L1
    else if age < l2_segments then L2
    else Dram

(* transactions one warp-wide access of [mem] generates *)
let txns (arch : Safara_gpu.Arch.t) (mem : I.mem) =
  M.transactions ~warp_size:arch.Safara_gpu.Arch.warp_size
    ~elem_bytes:mem.I.m_bytes
    ~segment_bytes:arch.Safara_gpu.Arch.mem_segment_bytes mem.I.m_access

let tier_latency arch (latency : Safara_gpu.Latency.table) (mem : I.mem) tier =
  let base =
    match (tier, mem.I.m_space) with
    | _, M.Local -> latency.Safara_gpu.Latency.local_latency
    | _, M.Shared -> latency.Safara_gpu.Latency.shared_latency
    | _, (M.Constant | M.Param) ->
        Safara_gpu.Latency.memory_latency latency mem.I.m_space mem.I.m_access
    | L1, M.Read_only -> latency.Safara_gpu.Latency.read_only_latency
    | L1, _ | L2, _ -> latency.Safara_gpu.Latency.l2_hit_latency
    | Dram, _ -> latency.Safara_gpu.Latency.global_latency
  in
  float_of_int
    (base
    + (latency.Safara_gpu.Latency.extra_cycles_per_transaction * (txns arch mem - 1)))

(* --- boxed reference engine ------------------------------------------ *)
(* The original per-instruction walker with an O(warps) scheduler scan,
   kept as the oracle for the differential suite and the [bench sim]
   baseline. Selected via [Decode.engine := Decode.Reference]. *)

type warp = {
  w_regs : Value.t array;
  w_ready : float array;  (** per-rid operand availability, in cycles *)
  w_local : (int, Value.t) Hashtbl.t;
  w_cta : int * int * int;
  w_lane0 : int * int * int;
  w_sched : int;  (** scheduler this warp is statically assigned to *)
  mutable w_pc : int;
  mutable w_free : float;  (** earliest cycle this warp can issue *)
  mutable w_done : bool;
  mutable w_last : float;  (** completion time of the latest result *)
}

let simulate_resident_set_ref ~arch ~latency ~prog ~env ~grid ~blocks_per_sm
    (k : K.t) =
  let code = k.K.code in
  let labels = K.label_map k in
  let nregs = K.num_regs k in
  let gx, gy, gz = grid in
  let bx, by, bz = k.K.block in
  let total_blocks = gx * gy * gz in
  let nblocks = min blocks_per_sm (max 1 total_blocks) in
  let threads_per_block = bx * by * bz in
  let warp_size = arch.Safara_gpu.Arch.warp_size in
  let warps_per_block = (threads_per_block + warp_size - 1) / warp_size in
  let warp_counter = ref 0 in
  let warps =
    List.concat_map
      (fun b ->
        List.init warps_per_block (fun w ->
            let id = !warp_counter in
            incr warp_counter;
            {
              w_regs = Array.make nregs (Value.I 0);
              w_ready = Array.make nregs 0.;
              w_local = Hashtbl.create 4;
              w_cta = block_coords ~gx ~gy b;
              w_lane0 = lane0_coords ~bx ~by ~warp_size w;
              w_sched = id mod max 1 arch.Safara_gpu.Arch.issue_width;
              w_pc = 0;
              w_free = 0.;
              w_done = false;
              w_last = 0.;
            }))
      (List.init nblocks Fun.id)
  in
  let warps = Array.of_list warps in
  let mem_busy = ref 0. in
  (* Kepler statically partitions resident warps among its schedulers
     (issue_width of them); a warp can only issue on its own
     scheduler's port, so low occupancy leaves schedulers idle *)
  let nports = max 1 arch.Safara_gpu.Arch.issue_width in
  let issue_ports = Array.make nports 0. in
  let issue_step = 1. in
  let instructions = ref 0 in
  let transactions = ref 0 in
  let issue_stall = ref 0. in
  let txns = txns arch in
  let touch_tier = cache_model arch in
  let tier_latency = tier_latency arch latency in
  (* one simulation step for warp [w]: execute its next instruction *)
  let step (w : warp) =
    let instr = code.(w.w_pc) in
    let read (r : V.t) = w.w_regs.(r.V.rid) in
    let write (r : V.t) v = w.w_regs.(r.V.rid) <- v in
    let operand op = Value.of_operand op read in
    let op_ready =
      List.fold_left (fun acc (r : V.t) -> Float.max acc w.w_ready.(r.V.rid)) 0.
        (I.uses instr)
    in
    (match instr with
    | I.Label _ ->
        w.w_pc <- w.w_pc + 1
    | _ ->
        incr instructions;
        let port = w.w_sched in
        let want = Float.max w.w_free op_ready in
        let issue = Float.max want issue_ports.(port) in
        issue_stall := !issue_stall +. (issue -. want);
        issue_ports.(port) <- issue +. issue_step;
        let next = ref (w.w_pc + 1) in
        let complete = ref (issue +. 1.) in
        (match instr with
        | I.Label _ -> ()
        | I.Ld { dst; addr; mem; _ } ->
            let a = Value.to_int (read addr) in
            (if mem.I.m_space = M.Local then
               write dst (Option.value (Hashtbl.find_opt w.w_local a) ~default:(Value.I 0))
             else write dst (Memory.load env.Interp.mem ~addr:a));
            let tier =
              if mem.I.m_space = M.Local then L1
              else touch_tier ~ro:(mem.I.m_space = M.Read_only) a
            in
            let n = txns mem in
            transactions := !transactions + n;
            let start = Float.max issue !mem_busy in
            mem_busy :=
              start
              +. (float_of_int n
                 *. arch.Safara_gpu.Arch.mem_cycles_per_transaction
                 *. tier_pipe_factor tier);
            let ready = start +. tier_latency mem tier in
            w.w_ready.(dst.V.rid) <- ready;
            complete := ready
        | I.St { src; addr; mem; _ } ->
            let a = Value.to_int (read addr) in
            (if mem.I.m_space = M.Local then Hashtbl.replace w.w_local a (operand src)
             else Memory.store env.Interp.mem ~addr:a (operand src));
            let tier =
              if mem.I.m_space = M.Local then L1
              else
                (* stores allocate in L2, never in the read-only path *)
                match touch_tier ~ro:false a with L1 -> L2 | t -> t
            in
            let n = txns mem in
            transactions := !transactions + n;
            let start = Float.max issue !mem_busy in
            mem_busy :=
              start
              +. (float_of_int n
                 *. arch.Safara_gpu.Arch.mem_cycles_per_transaction
                 *. tier_pipe_factor tier);
            (* stores retire without blocking the warp *)
            complete := issue +. 1.
        | I.Atom { op; addr; src; mem; _ } ->
            let a = Value.to_int (read addr) in
            let v = operand src in
            Memory.rmw env.Interp.mem ~addr:a (fun old ->
                Exec.eval_bin op
                  (match old with Value.F _ -> T.F64 | _ -> T.I64)
                  old v);
            (* atomics serialize: charge a full round trip on the pipe *)
            let start = Float.max issue !mem_busy in
            let n = max 2 (txns mem) in
            transactions := !transactions + n;
            mem_busy :=
              start +. (float_of_int n *. arch.Safara_gpu.Arch.mem_cycles_per_transaction);
            complete := issue +. 1.
        | I.Ldp { dst; param } ->
            write dst (Interp.param_value env prog param);
            let ready =
              issue
              +. float_of_int
                   (Safara_gpu.Latency.memory_latency latency M.Param M.Invariant)
            in
            w.w_ready.(dst.V.rid) <- ready;
            complete := ready
        | I.Mov { dst; src } ->
            write dst (operand src);
            w.w_ready.(dst.V.rid) <- issue +. 1.
        | I.Bin { op; dst; a; b } ->
            write dst (Exec.eval_bin op dst.V.rty (operand a) (operand b));
            let ready = issue +. result_latency latency instr in
            w.w_ready.(dst.V.rid) <- ready;
            complete := issue +. issue_cost latency instr
        | I.Una { op; dst; a } ->
            write dst (Exec.eval_una op dst.V.rty (operand a));
            let ready = issue +. result_latency latency instr in
            w.w_ready.(dst.V.rid) <- ready;
            complete := issue +. issue_cost latency instr
        | I.Cvt { dst; src } ->
            write dst (Exec.convert dst.V.rty (read src));
            w.w_ready.(dst.V.rid) <- issue +. result_latency latency instr
        | I.Setp { cmp; dst; a; b } ->
            write dst (Value.B (Exec.eval_cmp cmp (operand a) (operand b)));
            w.w_ready.(dst.V.rid) <- issue +. result_latency latency instr
        | I.Spec { dst; sp } ->
            let tx, ty, tz = w.w_lane0 and cx, cy, cz = w.w_cta in
            let v =
              match sp with
              | I.Tid I.X -> tx
              | I.Tid I.Y -> ty
              | I.Tid I.Z -> tz
              | I.Ctaid I.X -> cx
              | I.Ctaid I.Y -> cy
              | I.Ctaid I.Z -> cz
              | I.Ntid I.X -> bx
              | I.Ntid I.Y -> by
              | I.Ntid I.Z -> bz
              | I.Nctaid I.X -> gx
              | I.Nctaid I.Y -> gy
              | I.Nctaid I.Z -> gz
            in
            write dst (Value.I v);
            w.w_ready.(dst.V.rid) <- issue +. 1.
        | I.Bra target -> next := Hashtbl.find labels target
        | I.Brc { pred; if_true; target } ->
            if Value.to_bool (read pred) = if_true then
              next := Hashtbl.find labels target
        | I.Ret ->
            w.w_done <- true);
        w.w_pc <- !next;
        w.w_free <- Float.max (issue +. 1.) (Float.min !complete (issue +. 8.));
        (* a warp stalls fully only when a later instruction needs the
           result; the scoreboard handles that via w_ready. w_free just
           models the issue pipeline. *)
        w.w_last <- Float.max w.w_last !complete);
    if w.w_pc >= Array.length code then w.w_done <- true
  in
  (* earliest time the warp's next instruction can actually issue:
     both the warp pipeline and the instruction's operands *)
  let issueable (w : warp) =
    if w.w_pc >= Array.length code then w.w_free
    else
      let instr = code.(w.w_pc) in
      List.fold_left
        (fun acc (r : V.t) -> Float.max acc w.w_ready.(r.V.rid))
        w.w_free (I.uses instr)
  in
  let remaining () = Array.exists (fun w -> not w.w_done) warps in
  while remaining () do
    (* the warp whose next instruction can issue earliest: processing
       events in nondecreasing issue order keeps the shared issue port
       honest *)
    let best = ref None and best_key = ref infinity in
    Array.iter
      (fun w ->
        if not w.w_done then begin
          let key = issueable w in
          if key < !best_key then begin
            best := Some w;
            best_key := key
          end
        end)
      warps;
    match !best with None -> () | Some w -> step w
  done;
  let cycles =
    Array.fold_left (fun acc w -> Float.max acc (Float.max w.w_last w.w_free)) 0. warps
  in
  {
    cycles = Float.max cycles !mem_busy;
    warps = Array.length warps;
    instructions = !instructions;
    transactions = !transactions;
    issue_stall = !issue_stall;
  }

(* --- threaded engine ---------------------------------------------------- *)
(* Same machine model on the threaded engine: each op's semantics run
   through its pre-compiled per-pc Threaded.steps closure, per-pc
   costs/latencies are precomputed from the original instructions (so
   every charged float is identical to the reference), and the
   scheduler picks the next warp from a binary min-heap instead of
   scanning all warps each step. The cost bookkeeping reads only the
   decoded op and the state the closure left behind, which is what
   keeps the two engines' stats bit-identical. *)

(* [Float.max]/[Float.min] are out-of-line calls on boxed floats
   without flambda; these inline. They agree with them on the finite,
   nonnegative times of the model (they differ only on NaN and on the
   sign of zero). The Reference engine keeps [Float.max], so the
   Reference ≡ Threaded check pins the agreement bit for bit. *)
let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] fmin (a : float) b = if a <= b then a else b

(* heap order on (key, warp id) over parallel arrays *)
let[@inline] before (hkey : float array) (hwid : int array) i j =
  let ki = Array.unsafe_get hkey i and kj = Array.unsafe_get hkey j in
  ki < kj || (ki = kj && Array.unsafe_get hwid i < Array.unsafe_get hwid j)

let[@inline] swap (hkey : float array) (hwid : int array) i j =
  let k = Array.unsafe_get hkey i and w = Array.unsafe_get hwid i in
  Array.unsafe_set hkey i (Array.unsafe_get hkey j);
  Array.unsafe_set hwid i (Array.unsafe_get hwid j);
  Array.unsafe_set hkey j k;
  Array.unsafe_set hwid j w

type dwarp = {
  dw_id : int;
  dw_st : D.state;
  dw_ready : float array;  (** per-rid operand availability, in cycles *)
  dw_sched : int;
  mutable dw_pc : int;
  mutable dw_free : float;
  mutable dw_done : bool;
  mutable dw_last : float;
}

let simulate_resident_set_thr ~arch ~latency ~prog ~env ~grid ~blocks_per_sm
    (k : K.t) =
  let th = Threaded.of_kernel k in
  let d = Threaded.decoded th in
  let steps = Threaded.steps th in
  let ops = d.D.d_ops in
  let code = k.K.code in
  let n = Array.length ops in
  let gx, gy, gz = grid in
  let bx, by, bz = k.K.block in
  let total_blocks = gx * gy * gz in
  let nblocks = min blocks_per_sm (max 1 total_blocks) in
  let threads_per_block = bx * by * bz in
  let warp_size = arch.Safara_gpu.Arch.warp_size in
  let warps_per_block = (threads_per_block + warp_size - 1) / warp_size in
  (* Per-pc static timing, computed once from the original instruction
     stream so the charged numbers are bit-identical to the reference
     engine's per-step calls. *)
  let icost = Array.map (issue_cost latency) code in
  let rlat = Array.map (result_latency latency) code in
  (* per-mem-op tables, indexed by the decode-time [mi] *)
  let nmems = Array.length d.D.d_mems in
  let m_txns = Array.make nmems 0 in
  let m_lat = Array.make (nmems * 3) 0. in  (* [mi*3 + tier] *)
  let m_pipe = Array.make (nmems * 3) 0. in
  let mem_cpt = arch.Safara_gpu.Arch.mem_cycles_per_transaction in
  for mi = 0 to nmems - 1 do
    let mem = d.D.d_mems.(mi).D.mo_mem in
    let nt = txns arch mem in
    m_txns.(mi) <- nt;
    List.iter
      (fun tier ->
        let ti = (mi * 3) + tier_index tier in
        m_lat.(ti) <- tier_latency arch latency mem tier;
        m_pipe.(ti) <- float_of_int nt *. mem_cpt *. tier_pipe_factor tier)
      [ L1; L2; Dram ]
  done;
  let ldp_ready =
    float_of_int (Safara_gpu.Latency.memory_latency latency M.Param M.Invariant)
  in
  let touch_tier = cache_model arch in
  let ps = D.make_params d ~env ~prog in
  let warp_counter = ref 0 in
  let warps =
    Array.concat
      (List.map
        (fun b ->
          Array.init warps_per_block (fun w ->
              let id = !warp_counter in
              incr warp_counter;
              let st = D.make_state d in
              let tid = lane0_coords ~bx ~by ~warp_size w in
              let cta = block_coords ~gx ~gy b in
              D.set_specials st ~tid ~cta ~ntid:(bx, by, bz)
                ~nctaid:(gx, gy, gz);
              {
                dw_id = id;
                dw_st = st;
                dw_ready = Array.make d.D.d_nregs 0.;
                dw_sched = id mod max 1 arch.Safara_gpu.Arch.issue_width;
                dw_pc = 0;
                dw_free = 0.;
                dw_done = false;
                dw_last = 0.;
              }))
        (List.init nblocks Fun.id))
  in
  let nwarps = Array.length warps in
  let mem_busy = ref 0. in
  let nports = max 1 arch.Safara_gpu.Arch.issue_width in
  let issue_ports = Array.make nports 0. in
  let issue_step = 1. in
  let instructions = ref 0 in
  let transactions = ref 0 in
  let issue_stall = ref 0. in
  (* The scheduler: a binary min-heap of live warps keyed by
     (issueable, warp id). The lexicographic order reproduces the
     reference engine's first-strict-minimum scan exactly, and since
     ids are unique it is total, so which warp steps next never
     depends on the heap's layout. *)
  let hkey = Array.make (max 1 nwarps) infinity in
  let hwid = Array.make (max 1 nwarps) 0 in
  let hsize = ref 0 in
  (* [hkey.(i) <- issueable w]: the earliest time the warp's next
     instruction can issue (written in place; returning it would box
     it) *)
  let set_key i (w : dwarp) =
    let f = w.dw_free in
    if w.dw_pc >= n then hkey.(i) <- f
    else begin
      let uses = d.D.d_uses.(w.dw_pc) in
      let acc = ref f in
      for u = 0 to Array.length uses - 1 do
        let r = w.dw_ready.(uses.(u)) in
        if r > !acc then acc := r
      done;
      hkey.(i) <- !acc
    end
  in
  let step (w : dwarp) =
    let pc = w.dw_pc in
    (match ops.(pc) with
    | D.DNop -> w.dw_pc <- pc + 1
    | op ->
        incr instructions;
        let uses = d.D.d_uses.(pc) in
        let op_ready = ref 0. in
        for i = 0 to Array.length uses - 1 do
          let r = w.dw_ready.(uses.(i)) in
          if r > !op_ready then op_ready := r
        done;
        let port = w.dw_sched in
        let want = fmax w.dw_free !op_ready in
        let issue = fmax want issue_ports.(port) in
        issue_stall := !issue_stall +. (issue -. want);
        issue_ports.(port) <- issue +. issue_step;
        let st = w.dw_st in
        let next = (Array.unsafe_get steps pc) st ps in
        let complete = ref (issue +. 1.) in
        (match op with
        | D.DNop | D.DRet -> ()
        | D.DLd { dst; mi; _ } ->
            let a = st.D.x_addr in
            let mo = d.D.d_mems.(mi) in
            let tier =
              if mo.D.mo_local then L1 else touch_tier ~ro:mo.D.mo_ro a
            in
            let ti = (mi * 3) + tier_index tier in
            transactions := !transactions + m_txns.(mi);
            let start = fmax issue !mem_busy in
            mem_busy := start +. m_pipe.(ti);
            let ready = start +. m_lat.(ti) in
            w.dw_ready.(dst) <- ready;
            complete := ready
        | D.DSt { mi; _ } ->
            let a = st.D.x_addr in
            let mo = d.D.d_mems.(mi) in
            let tier =
              if mo.D.mo_local then L1
              else
                (* stores allocate in L2, never in the read-only path *)
                match touch_tier ~ro:false a with L1 -> L2 | t -> t
            in
            let ti = (mi * 3) + tier_index tier in
            transactions := !transactions + m_txns.(mi);
            let start = fmax issue !mem_busy in
            mem_busy := start +. m_pipe.(ti)
            (* stores retire without blocking the warp *)
        | D.DAtom { mi; _ } ->
            (* atomics serialize: charge a full round trip on the pipe *)
            let start = fmax issue !mem_busy in
            let nt = max 2 m_txns.(mi) in
            transactions := !transactions + nt;
            mem_busy := start +. (float_of_int nt *. mem_cpt)
        | D.DLdp { dst; _ } ->
            let ready = issue +. ldp_ready in
            w.dw_ready.(dst) <- ready;
            complete := ready
        | D.DMov { dst; _ } | D.DSpec { dst; _ } ->
            w.dw_ready.(dst) <- issue +. 1.
        | D.DAddF { dst; _ } | D.DSubF { dst; _ } | D.DMulF { dst; _ }
        | D.DAddI { dst; _ } | D.DMulI { dst; _ }
        | D.DBinF { dst; _ } | D.DBinI { dst; _ } | D.DBinB { dst; _ }
        | D.DUnaF { dst; _ } | D.DNegI { dst; _ } | D.DNot { dst; _ } ->
            w.dw_ready.(dst) <- issue +. rlat.(pc);
            complete := issue +. icost.(pc)
        | D.DCvtF { dst; _ } | D.DCvtI { dst; _ } | D.DCvtB { dst; _ }
        | D.DSetpF { dst; _ } | D.DSetpI { dst; _ } ->
            w.dw_ready.(dst) <- issue +. rlat.(pc)
        | D.DBra _ | D.DBrc _ -> ());
        w.dw_pc <- next;
        w.dw_free <- fmax (issue +. 1.) (fmin !complete (issue +. 8.));
        w.dw_last <- fmax w.dw_last !complete);
    if w.dw_pc >= n then w.dw_done <- true
  in
  let sift_up i0 =
    let i = ref i0 in
    while !i > 0 && before hkey hwid !i ((!i - 1) / 2) do
      swap hkey hwid !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let sift_down i0 =
    let size = !hsize and i = ref i0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= size then sinking := false
      else begin
        let c = if l + 1 < size && before hkey hwid (l + 1) l then l + 1 else l in
        if before hkey hwid c !i then begin
          swap hkey hwid !i c;
          i := c
        end
        else sinking := false
      end
    done
  in
  Array.iter
    (fun w ->
      let i = !hsize in
      set_key i w;
      hwid.(i) <- w.dw_id;
      incr hsize;
      sift_up i)
    warps;
  (* The root warp steps, and its new key sifts down from the root: a
     warp's key only changes when it steps itself (dw_free and dw_ready
     are per-warp). While it still orders before both children, that
     costs two comparisons and the warp steps again — where a pop and a push would have handed it
     straight back. A finished warp leaves the heap. *)
  while !hsize > 0 do
    let w = warps.(hwid.(0)) in
    step w;
    if w.dw_done then begin
      decr hsize;
      hkey.(0) <- hkey.(!hsize);
      hwid.(0) <- hwid.(!hsize)
    end
    else set_key 0 w;
    sift_down 0
  done;
  let cycles =
    Array.fold_left (fun acc w -> fmax acc (fmax w.dw_last w.dw_free)) 0. warps
  in
  {
    cycles = fmax cycles !mem_busy;
    warps = nwarps;
    instructions = !instructions;
    transactions = !transactions;
    issue_stall = !issue_stall;
  }

let simulate_resident_set ~arch ~latency ~prog ~env ~grid ~blocks_per_sm k =
  match !D.engine with
  | D.Reference ->
      simulate_resident_set_ref ~arch ~latency ~prog ~env ~grid ~blocks_per_sm
        k
  | D.Threaded ->
      simulate_resident_set_thr ~arch ~latency ~prog ~env ~grid ~blocks_per_sm
        k
