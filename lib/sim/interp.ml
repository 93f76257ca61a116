module I = Safara_vir.Instr
module V = Safara_vir.Vreg
module K = Safara_vir.Kernel
module Pool = Safara_engine.Pool

type env = Decode.env = { scalars : (string * Value.t) list; mem : Memory.t }

type counters = Decode.counters = {
  mutable c_instructions : int;
  mutable c_loads : int;
  mutable c_stores : int;
  mutable c_atomics : int;
  mutable c_spill_ops : int;
}

let fresh_counters = Decode.fresh_counters
let null_counters = Decode.null_counters

let max_steps_per_thread = ref 10_000_000

let param_value env prog name =
  Decode.resolve_param env prog (Decode.parse_param name)

(* --- boxed reference walker ------------------------------------------ *)
(* The original Value.t-based interpreter, kept as the semantic oracle:
   the differential suite runs every workload through both engines and
   [bench sim] measures the threaded engine's speedup against this one.
   Selected via [Decode.engine := Decode.Reference]. *)

let run_kernel_ref ~counters ~prog ~env ~grid (k : K.t) =
  let code = k.K.code in
  let labels = K.label_map k in
  let nregs = K.num_regs k in
  let gx, gy, gz = grid in
  let bx, by, bz = k.K.block in
  let regs = Array.make nregs (Value.I 0) in
  (* per-thread local memory for spill slots *)
  let local = Hashtbl.create 4 in
  let run_thread ~cta:(cx, cy, cz) ~tid:(tx, ty, tz) =
    Array.fill regs 0 nregs (Value.I 0);
    Hashtbl.reset local;
    let read r = regs.(r.V.rid) in
    let write r v = regs.(r.V.rid) <- v in
    let operand op = Value.of_operand op read in
    let pc = ref 0 in
    let steps = ref 0 in
    let n = Array.length code in
    while !pc < n do
      incr steps;
      if !steps > !max_steps_per_thread then failwith "interp: fuel exhausted";
      counters.c_instructions <- counters.c_instructions + 1;
      let next = ref (!pc + 1) in
      (match code.(!pc) with
      | I.Label _ -> ()
      | I.Ld { dst; addr; mem; _ } ->
          let a = Value.to_int (read addr) in
          if mem.I.m_space = Safara_gpu.Memspace.Local then begin
            counters.c_spill_ops <- counters.c_spill_ops + 1;
            write dst
              (Option.value (Hashtbl.find_opt local a) ~default:(Value.I 0))
          end
          else begin
            counters.c_loads <- counters.c_loads + 1;
            write dst (Memory.load env.mem ~addr:a)
          end
      | I.St { src; addr; mem; _ } ->
          let a = Value.to_int (read addr) in
          if mem.I.m_space = Safara_gpu.Memspace.Local then begin
            counters.c_spill_ops <- counters.c_spill_ops + 1;
            Hashtbl.replace local a (operand src)
          end
          else begin
            counters.c_stores <- counters.c_stores + 1;
            Memory.store env.mem ~addr:a (operand src)
          end
      | I.Ldp { dst; param } -> write dst (param_value env prog param)
      | I.Mov { dst; src } -> write dst (operand src)
      | I.Bin { op; dst; a; b } ->
          write dst (Exec.eval_bin op dst.V.rty (operand a) (operand b))
      | I.Una { op; dst; a } -> write dst (Exec.eval_una op dst.V.rty (operand a))
      | I.Cvt { dst; src } -> write dst (Exec.convert dst.V.rty (read src))
      | I.Setp { cmp; dst; a; b } ->
          write dst (Value.B (Exec.eval_cmp cmp (operand a) (operand b)))
      | I.Bra target -> (
          match Hashtbl.find_opt labels target with
          | Some i -> next := i
          | None -> failwith ("interp: unknown label " ^ target))
      | I.Brc { pred; if_true; target } ->
          if Value.to_bool (read pred) = if_true then (
            match Hashtbl.find_opt labels target with
            | Some i -> next := i
            | None -> failwith ("interp: unknown label " ^ target))
      | I.Spec { dst; sp } ->
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
          write dst (Value.I v)
      | I.Atom { op; addr; src; _ } ->
          counters.c_atomics <- counters.c_atomics + 1;
          let a = Value.to_int (read addr) in
          let v = operand src in
          Memory.rmw env.mem ~addr:a (fun old ->
              Exec.eval_bin op
                (match old with Value.F _ -> Safara_ir.Types.F64 | _ -> Safara_ir.Types.I64)
                old v)
      | I.Ret -> next := n);
      pc := !next
    done
  in
  for cz = 0 to gz - 1 do
    for cy = 0 to gy - 1 do
      for cx = 0 to gx - 1 do
        for tz = 0 to bz - 1 do
          for ty = 0 to by - 1 do
            for tx = 0 to bx - 1 do
              run_thread ~cta:(cx, cy, cz) ~tid:(tx, ty, tz)
            done
          done
        done
      done
    done
  done

(* --- threaded engine -------------------------------------------------- *)

(* Per-domain pool of decode states keyed by the decoded kernel
   (physical identity): repeated launches and per-chunk workers reuse
   the register arrays instead of allocating fresh ones. Correct to
   reuse without re-zeroing because [reset_state] already restores
   the only observable state a previous thread could leak (the
   [d_zero] registers and local memory) — the same invariant the
   sequential walk relies on between threads. *)
let state_pool_limit = 64

let state_pool : (Decode.t * Decode.state) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let pooled_state (d : Decode.t) =
  let c = Domain.DLS.get state_pool in
  match List.find_opt (fun (d', _) -> d' == d) !c with
  | Some (_, st) -> st
  | None ->
      let st = Decode.make_state d in
      let rest = if List.length !c >= state_pool_limit then [] else !c in
      c := (d, st) :: rest;
      st

let run_kernel_thr ~counters ~prog ~env ~grid (k : K.t) =
  let th = Threaded.of_kernel k in
  let d = Threaded.decoded th in
  let st = pooled_state d in
  let ps = Decode.make_params d ~env ~prog in
  let gx, gy, gz = grid in
  let bx, by, bz = k.K.block in
  Decode.set_launch st ~ntid:(bx, by, bz) ~nctaid:(gx, gy, gz);
  (* fuel is one subtraction per block here, so no fuel-free special
     case is needed: straightline kernels can't trip the budget *)
  let budget = !max_steps_per_thread in
  for cz = 0 to gz - 1 do
    for cy = 0 to gy - 1 do
      for cx = 0 to gx - 1 do
        for tz = 0 to bz - 1 do
          for ty = 0 to by - 1 do
            for tx = 0 to bx - 1 do
              Decode.reset_state st;
              Decode.set_thread st ~tx ~ty ~tz ~cx ~cy ~cz;
              Threaded.run_thread th st ps counters ~fuel:budget
            done
          done
        done
      done
    done
  done

(* --- block-parallel engine -------------------------------------------- *)

type mode = Sequential of Blockpar.reason option | Parallel of { chunks : int }

(* Granularity cost model for the parallel path. A launch whose total
   estimated work (instructions × threads per block × blocks) is below
   [parallel_threshold] runs serially — chunk setup, queue wakeups
   and cross-domain cache traffic would swamp it. Above it, chunks
   are sized to at least [parallel_min_chunk_ops] estimated ops each,
   so huge pools can't shred a moderate launch into overhead. Both
   are calibrated on `bench sim` (see docs/BENCHMARKS.md). They are
   refs only so tests and the `bench sim` bit-identity gate can force
   the parallel path open on small launches. *)
let parallel_threshold = ref 500_000
let parallel_min_chunk_ops = ref 250_000

let estimated_ops ~grid (k : K.t) =
  let gx, gy, gz = grid in
  let bx, by, bz = k.K.block in
  Array.length k.K.code * (bx * by * bz) * (gx * gy * gz)

let add_counters ~into (c : counters) =
  into.c_instructions <- into.c_instructions + c.c_instructions;
  into.c_loads <- into.c_loads + c.c_loads;
  into.c_stores <- into.c_stores + c.c_stores;
  into.c_atomics <- into.c_atomics + c.c_atomics;
  into.c_spill_ops <- into.c_spill_ops + c.c_spill_ops

(* Fan the grid's thread-blocks across the pool in contiguous chunks.
   Only called on kernels {!Blockpar} proved block-disjoint, so chunks
   may share [env.mem]'s store: each gets a private {!Memory.view}
   (its own last-hit cursors), a private register file, and a private
   counter record. Within a chunk blocks run in ascending linear order
   and threads in the same thread-major order as the sequential walk,
   so per-cell store sequences — and therefore final memory — are
   identical by disjointness, and the integer counter sums are
   identical because addition is associative and commutative (they are
   still merged in chunk order for good measure). An undo journal is
   single-domain, so a fan-out under one is refused. The memory is
   forced ({!run_kernel_m} did it), so no chunk fills a page: the
   table the chunks share is read-only. *)
let run_kernel_par ~counters ~prog ~env ~grid ~pool (k : K.t) =
  if Memory.undo_active env.mem then
    invalid_arg "Interp.run_kernel: no block-parallel launch under an undo journal";
  let th = Threaded.of_kernel k in
  let d = Threaded.decoded th in
  let n = Array.length d.Decode.d_ops in
  let gx, gy, gz = grid in
  let bx, by, bz = k.K.block in
  let nblocks = gx * gy * gz in
  let budget = !max_steps_per_thread in
  (* resolve every parameter slot up front (the parallel_for mutex
     publishes the arrays to the workers), so chunks share one params
     record read-only instead of re-resolving per chunk; if a slot is
     unbound, fall back to private per-chunk records and let the lazy
     fault fire only for threads that actually read it *)
  let ps0 = Decode.make_params d ~env ~prog in
  let shared_params = Decode.resolve_all d ps0 in
  let min_chunk =
    max 1 (!parallel_min_chunk_ops / max 1 (n * bx * by * bz))
  in
  let chunk_counters =
    Pool.parallel_for pool ~min_chunk ~n:nblocks (fun ~lo ~hi ->
        let cnt = fresh_counters () in
        let env_c = { env with mem = Memory.view env.mem } in
        let st = pooled_state d in
        let ps =
          if shared_params then { ps0 with Decode.p_env = env_c }
          else Decode.make_params d ~env:env_c ~prog
        in
        Decode.set_launch st ~ntid:(bx, by, bz) ~nctaid:(gx, gy, gz);
        for b = lo to hi - 1 do
          (* invert the sequential walk's cz-outer / cx-inner nesting *)
          let cx = b mod gx in
          let cy = b / gx mod gy in
          let cz = b / (gx * gy) in
          for tz = 0 to bz - 1 do
            for ty = 0 to by - 1 do
              for tx = 0 to bx - 1 do
                Decode.reset_state st;
                Decode.set_thread st ~tx ~ty ~tz ~cx ~cy ~cz;
                Threaded.run_thread th st ps cnt ~fuel:budget
              done
            done
          done
        done;
        cnt)
  in
  List.iter (fun c -> add_counters ~into:counters c) chunk_counters;
  List.length chunk_counters

let run_kernel_seq ~counters ~prog ~env ~grid k =
  match !Decode.engine with
  | Decode.Reference -> run_kernel_ref ~counters ~prog ~env ~grid k
  | Decode.Threaded -> run_kernel_thr ~counters ~prog ~env ~grid k

let run_kernel_m ?(counters = null_counters) ?pool ?verdict ~prog ~env ~grid
    (k : K.t) =
  (* a functional run touches most of its arrays: produce them whole *)
  Memory.force env.mem;
  let gx, gy, gz = grid in
  let nblocks = gx * gy * gz in
  match pool with
  | Some pool
    when !Decode.engine = Decode.Threaded
         && Pool.size pool > 1 && nblocks > 1 -> (
      let v =
        match verdict with
        | Some v -> v
        | None -> Blockpar.analyze ~prog k
      in
      match v with
      | Blockpar.Block_parallel ->
          let est = estimated_ops ~grid k in
          if est < !parallel_threshold then begin
            run_kernel_seq ~counters ~prog ~env ~grid k;
            Sequential
              (Some
                 (Blockpar.Below_threshold
                    { est_ops = est; threshold = !parallel_threshold }))
          end
          else
            let chunks = run_kernel_par ~counters ~prog ~env ~grid ~pool k in
            Parallel { chunks }
      | Blockpar.Serial r ->
          run_kernel_seq ~counters ~prog ~env ~grid k;
          Sequential (Some r))
  | _ ->
      run_kernel_seq ~counters ~prog ~env ~grid k;
      Sequential None

let run_kernel ?counters ?pool ?verdict ~prog ~env ~grid (k : K.t) =
  ignore (run_kernel_m ?counters ?pool ?verdict ~prog ~env ~grid k : mode)
