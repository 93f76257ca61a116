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

(* The recency table: each segment's clock at its last touch, by open
   addressing with linear probing over two int arrays, so a touch is
   one probe sequence that reads the old stamp and writes the new one
   in place. Segment numbers are dense small integers, which identity
   hashing would pile into runs of adjacent slots; a multiplicative
   hash (the top bits of [seg * odd constant]) spreads them. The table
   starts small and doubles at half load. *)
type cache = {
  seg_bytes : int;
  l1_segments : int;
  l2_segments : int;
  mutable keys : int array;  (** segment numbers; [no_seg] marks a free slot *)
  mutable stamps : int array;  (** clock at the slot's last touch *)
  mutable shift : int;  (** 63 - log2 (capacity) *)
  mutable count : int;
  mutable clock : int;
}

(* [addr / seg_bytes] never yields [min_int] *)
let no_seg = min_int
let hash_mul = 0x4F1BBCDCBFA53E0B
let initial_bits = 8

(* A fresh cache for one resident set. *)
let cache_model (arch : Safara_gpu.Arch.t) =
  let seg_bytes = arch.Safara_gpu.Arch.mem_segment_bytes in
  let l1_segments = max 16 (arch.Safara_gpu.Arch.read_only_cache_bytes / seg_bytes) in
  let l2_segments =
    max l1_segments
      (arch.Safara_gpu.Arch.l2_bytes / seg_bytes / max 1 arch.Safara_gpu.Arch.num_sms)
  in
  {
    seg_bytes;
    l1_segments;
    l2_segments;
    keys = Array.make (1 lsl initial_bits) no_seg;
    stamps = Array.make (1 lsl initial_bits) 0;
    shift = 63 - initial_bits;
    count = 0;
    clock = 0;
  }

(* the slot holding [seg], or the free slot where it belongs *)
let[@inline] probe keys shift seg =
  let mask = Array.length keys - 1 in
  let i = ref ((seg * hash_mul) lsr shift) in
  while
    let k = Array.unsafe_get keys !i in
    k <> seg && k <> no_seg
  do
    i := (!i + 1) land mask
  done;
  !i

let grow c =
  let keys = c.keys and stamps = c.stamps in
  let cap = 2 * Array.length keys in
  let shift = c.shift - 1 in
  let keys' = Array.make cap no_seg and stamps' = Array.make cap 0 in
  Array.iteri
    (fun j seg ->
      if seg <> no_seg then begin
        let i = probe keys' shift seg in
        keys'.(i) <- seg;
        stamps'.(i) <- stamps.(j)
      end)
    keys;
  c.keys <- keys';
  c.stamps <- stamps';
  c.shift <- shift

(* Record a touch of [addr]'s segment and return the tier that served
   it. *)
let touch c ~ro addr =
  let seg = addr / c.seg_bytes in
  let keys = c.keys in
  let i = probe keys c.shift seg in
  let clock = c.clock in
  let age =
    if Array.unsafe_get keys i = seg then clock - Array.unsafe_get c.stamps i
    else max_int
  in
  c.clock <- clock + 1;
  Array.unsafe_set c.stamps i (clock + 1);
  if age = max_int then begin
    Array.unsafe_set keys i seg;
    c.count <- c.count + 1;
    if 2 * c.count > Array.length keys then grow c
  end;
  if age < c.l1_segments && ro then L1
  else if age < c.l2_segments then L2
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
  let cache = cache_model arch in
  let touch_tier ~ro a = touch cache ~ro a in
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
(* Same machine model on the threaded engine. Each op's semantics run
   through its pre-compiled per-pc {!Threaded.steps} closure; what the
   model charges for it comes from a static per-pc record built from
   the original instructions, so every charged float is computed the
   way the reference engine computes it. The scheduler picks the next
   warp from a binary min-heap instead of scanning all warps each step.

   The state a step touches is unboxed: per-warp pc, [free] and [last]
   live in flat arrays indexed by warp, the scoreboards in one float
   array, and the memory-pipe and stall accumulators in local variables
   of the one loop that updates them. A step allocates nothing.

   Labels ([DNop]) are skipped when a warp advances, so a warp's pc is
   always at a real instruction or past the end. A label step would
   touch no shared state and leave the warp's key at its next real
   instruction unchanged, so skipping them leaves the order of the real
   steps — and so the stats — as the reference engine's. *)

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

(* The sinking entry's path: which child is smaller is as likely one
   way as the other, so it is computed without a branch ([before] as
   0/1 arithmetic), and only the decision to stop sinking branches. *)
let sift_down hkey hwid size i0 =
  let i = ref i0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= size then sinking := false
    else begin
      let c =
        if l + 1 < size then
          let kr = Array.unsafe_get hkey (l + 1) and kl = Array.unsafe_get hkey l in
          l
          + (Bool.to_int (kr < kl)
            lor (Bool.to_int (kr = kl)
                land Bool.to_int
                       (Array.unsafe_get hwid (l + 1) < Array.unsafe_get hwid l)))
        else l
      in
      if before hkey hwid c !i then begin
        swap hkey hwid !i c;
        i := c
      end
      else sinking := false
    end
  done

(* what a step charges, by the op's kind in the static record: a
   register write (ALU, conversions, moves, specials, [Ldp]; branches
   and [Ret] write the sink slot), or one of the three memory ops *)
let k_reg = 0
let k_ld = 1
let k_st = 2
let k_atom = 3

(* fields of the per-pc int record *)
let rs = 6
let o_kind = 0
let o_dst = 1
let o_mi = 2
let o_u0 = 3
let o_u1 = 4
let o_skip = 5

(* Warp register files and scoreboards, kept per domain and reused by
   the next run: they are most of what a run would otherwise allocate.
   A run takes its domain's set out of the slot and puts it back when it
   returns, so two threads of one domain never share one (the second
   makes its own). A state keeps the [x_zero] of the kernel it was made
   for; timing zeroes the whole register prefix instead and never calls
   [Decode.reset_state]. *)
type warp_files = { mutable wf_states : D.state array; mutable wf_ready : float array }

let warp_files : warp_files option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_warp_files () =
  let slot = Domain.DLS.get warp_files in
  match !slot with
  | Some wf ->
      slot := None;
      wf
  | None -> { wf_states = [||]; wf_ready = [||] }

(* [nwarps] states with fresh registers ([nregs] of them zeroed) and a
   zeroed scoreboard of [len] slots *)
let prepare_warp_files wf (d : D.t) ~nwarps ~len =
  let nregs = d.D.d_nregs in
  if Array.length wf.wf_states < nwarps then
    wf.wf_states <-
      Array.init nwarps (fun w ->
          if w < Array.length wf.wf_states then wf.wf_states.(w)
          else D.make_state d);
  for w = 0 to nwarps - 1 do
    let st = wf.wf_states.(w) in
    if Array.length st.D.xf < nregs then wf.wf_states.(w) <- D.make_state d
    else begin
      Array.fill st.D.xf 0 nregs 0.;
      Array.fill st.D.xi 0 nregs 0;
      if Hashtbl.length st.D.x_local > 0 then Hashtbl.reset st.D.x_local;
      st.D.x_addr <- 0
    end
  done;
  if Array.length wf.wf_ready < len then wf.wf_ready <- Array.make len 0.
  else Array.fill wf.wf_ready 0 len 0.

let simulate_resident_set_thr ~arch ~latency ~prog ~env ~grid ~blocks_per_sm
    (k : K.t) =
  let d, steps = Threaded.steps_of_kernel k in
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
  let nregs = d.D.d_nregs in
  (* a warp's scoreboard: its registers, then [sink] (written by ops
     that write no register) and [zero] (never written: the readiness
     of a missing operand) *)
  let sink = nregs and zero = nregs + 1 in
  let stride = nregs + 2 in
  let ldp_ready =
    float_of_int (Safara_gpu.Latency.memory_latency latency M.Param M.Invariant)
  in
  (* The static per-pc record, [rs] ints at [pc * rs] in [si] and two
     floats at [2 * pc] in [sf]: kind, written register ([sink] when
     none), memory descriptor, the two operand registers ([zero] when
     missing), the first real instruction at or after [pc] (for pcs up
     to [n]); result latency ([ready = issue + lat]) and completion
     ([complete = issue + cost]). One record is a line or two of
     memory, where separate arrays would be one each. *)
  let si = Array.make ((n + 1) * rs) 0 in
  let sf = Array.make (2 * n) 0. in
  let set_reg pc r ~lat ~cost =
    si.((pc * rs) + o_dst) <- r;
    sf.(2 * pc) <- lat;
    sf.((2 * pc) + 1) <- cost
  in
  for pc = 0 to n - 1 do
    let at = pc * rs in
    si.(at + o_kind) <- k_reg;
    set_reg pc sink ~lat:0. ~cost:1.;
    (match ops.(pc) with
    | D.DLd { dst = r; mi; _ } ->
        si.(at + o_kind) <- k_ld;
        si.(at + o_dst) <- r;
        si.(at + o_mi) <- mi
    | D.DSt { mi; _ } ->
        si.(at + o_kind) <- k_st;
        si.(at + o_mi) <- mi
    | D.DAtom { mi; _ } ->
        si.(at + o_kind) <- k_atom;
        si.(at + o_mi) <- mi
    | D.DLdp { dst = r; _ } -> set_reg pc r ~lat:ldp_ready ~cost:ldp_ready
    | D.DMov { dst = r; _ } | D.DSpec { dst = r; _ } ->
        set_reg pc r ~lat:1. ~cost:1.
    | D.DAddF { dst = r; _ } | D.DSubF { dst = r; _ } | D.DMulF { dst = r; _ }
    | D.DAddI { dst = r; _ } | D.DMulI { dst = r; _ }
    | D.DBinF { dst = r; _ } | D.DBinI { dst = r; _ } | D.DBinB { dst = r; _ }
    | D.DUnaF { dst = r; _ } | D.DNegI { dst = r; _ } | D.DNot { dst = r; _ } ->
        set_reg pc r
          ~lat:(result_latency latency code.(pc))
          ~cost:(issue_cost latency code.(pc))
    | D.DCvtF { dst = r; _ } | D.DCvtI { dst = r; _ } | D.DCvtB { dst = r; _ }
    | D.DSetpF { dst = r; _ } | D.DSetpI { dst = r; _ } ->
        set_reg pc r ~lat:(result_latency latency code.(pc)) ~cost:1.
    | D.DNop | D.DBra _ | D.DBrc _ | D.DRet -> ());
    (* an instruction reads at most two registers *)
    si.(at + o_u0) <- zero;
    si.(at + o_u1) <- zero;
    I.iter_uses
      (fun (r : V.t) ->
        let slot = if si.(at + o_u0) = zero then o_u0 else o_u1 in
        si.(at + slot) <- r.V.rid)
      code.(pc)
  done;
  si.((n * rs) + o_skip) <- n;
  for pc = n - 1 downto 0 do
    si.((pc * rs) + o_skip) <-
      (match ops.(pc) with D.DNop -> si.(((pc + 1) * rs) + o_skip) | _ -> pc)
  done;
  let entry = si.(o_skip) in
  (* per-mem-op tables, indexed by the decode-time [mi] *)
  let nmems = Array.length d.D.d_mems in
  let m_txns = Array.make nmems 0 in
  let m_local = Array.map (fun mo -> mo.D.mo_local) d.D.d_mems in
  let m_ro = Array.map (fun mo -> mo.D.mo_ro) d.D.d_mems in
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
  let cache = cache_model arch in
  let ps = D.make_params d ~env ~prog in
  let nwarps = nblocks * warps_per_block in
  let nports = max 1 arch.Safara_gpu.Arch.issue_width in
  let wf = take_warp_files () in
  prepare_warp_files wf d ~nwarps ~len:(nwarps * stride);
  let sts = wf.wf_states and ready = wf.wf_ready in
  for id = 0 to nwarps - 1 do
    D.set_specials sts.(id)
      ~tid:(lane0_coords ~bx ~by ~warp_size (id mod warps_per_block))
      ~cta:(block_coords ~gx ~gy (id / warps_per_block))
      ~ntid:(bx, by, bz) ~nctaid:(gx, gy, gz)
  done;
  let port = Array.init nwarps (fun id -> id mod nports) in
  let pcs = Array.make nwarps entry in
  let free = Array.make nwarps 0. in
  let last = Array.make nwarps 0. in
  let issue_ports = Array.make nports 0. in
  (* The scheduler: a binary min-heap of live warps keyed by
     (issueable, warp id), where issueable is the earliest cycle the
     warp's next instruction can issue: the later of its [free] and its
     operands' readiness. The lexicographic order reproduces the
     reference engine's first-strict-minimum scan exactly, and since
     ids are unique it is total, so which warp steps next never depends
     on the heap's layout. Every warp starts at key 0, so warps in id
     order already form a heap. *)
  let hkey = Array.make (max 1 nwarps) 0. in
  let hwid = Array.make (max 1 nwarps) 0 in
  let hsize = ref 0 in
  if entry < n then
    for w = 0 to nwarps - 1 do
      hwid.(w) <- w;
      incr hsize
    done;
  let mem_busy = ref 0. and issue_stall = ref 0. in
  let instructions = ref 0 and transactions = ref 0 in
  (* The root warp steps at its key, and its new key sifts down from
     the root: a warp's key only changes when it steps itself ([free]
     and its scoreboard are per-warp). While it still orders before
     both children, that costs two comparisons and the warp steps again
     — where a pop and a push would have handed it straight back. A
     finished warp leaves the heap. *)
  while !hsize > 0 do
    let w = Array.unsafe_get hwid 0 in
    let want = Array.unsafe_get hkey 0 in
    let pc = Array.unsafe_get pcs w in
    incr instructions;
    let p = Array.unsafe_get port w in
    let issue = fmax want (Array.unsafe_get issue_ports p) in
    issue_stall := !issue_stall +. (issue -. want);
    Array.unsafe_set issue_ports p (issue +. 1.);
    let st = Array.unsafe_get sts w in
    let next = (Array.unsafe_get steps pc) st ps in
    let base = w * stride in
    let at = pc * rs in
    let complete = ref (issue +. 1.) in
    let kd = Array.unsafe_get si (at + o_kind) in
    if kd = k_reg then begin
      Array.unsafe_set ready
        (base + Array.unsafe_get si (at + o_dst))
        (issue +. Array.unsafe_get sf (2 * pc));
      complete := issue +. Array.unsafe_get sf ((2 * pc) + 1)
    end
    else begin
      let mi = Array.unsafe_get si (at + o_mi) in
      let start = fmax issue !mem_busy in
      if kd = k_atom then begin
        (* atomics serialize: charge a full round trip on the pipe *)
        let nt = max 2 (Array.unsafe_get m_txns mi) in
        transactions := !transactions + nt;
        mem_busy := start +. (float_of_int nt *. mem_cpt)
      end
      else begin
        (* stores allocate in L2, never in the read-only path *)
        let tier =
          if Array.unsafe_get m_local mi then tier_index L1
          else
            tier_index
              (touch cache ~ro:(kd = k_ld && Array.unsafe_get m_ro mi)
                 st.D.x_addr)
        in
        let ti = (mi * 3) + tier in
        transactions := !transactions + Array.unsafe_get m_txns mi;
        mem_busy := start +. Array.unsafe_get m_pipe ti;
        if kd = k_ld then begin
          let r = start +. Array.unsafe_get m_lat ti in
          Array.unsafe_set ready (base + Array.unsafe_get si (at + o_dst)) r;
          complete := r
        end
        (* stores retire without blocking the warp *)
      end
    end;
    let c = !complete in
    let f = fmax (issue +. 1.) (fmin c (issue +. 8.)) in
    Array.unsafe_set free w f;
    Array.unsafe_set last w (fmax (Array.unsafe_get last w) c);
    let pc' = Array.unsafe_get si ((next * rs) + o_skip) in
    Array.unsafe_set pcs w pc';
    if pc' >= n then begin
      decr hsize;
      Array.unsafe_set hkey 0 (Array.unsafe_get hkey !hsize);
      Array.unsafe_set hwid 0 (Array.unsafe_get hwid !hsize)
    end
    else begin
      let at' = pc' * rs in
      let r0 = Array.unsafe_get ready (base + Array.unsafe_get si (at' + o_u0)) in
      let r1 = Array.unsafe_get ready (base + Array.unsafe_get si (at' + o_u1)) in
      let key = if r0 > f then r0 else f in
      Array.unsafe_set hkey 0 (if r1 > key then r1 else key)
    end;
    sift_down hkey hwid !hsize 0
  done;
  Domain.DLS.get warp_files := Some wf;
  let cycles = ref 0. in
  for w = 0 to nwarps - 1 do
    cycles := fmax !cycles (fmax last.(w) free.(w))
  done;
  {
    cycles = fmax !cycles !mem_busy;
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
