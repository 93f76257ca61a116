module E = Safara_ir.Expr
module K = Safara_vir.Kernel

type kernel_time = {
  kt_name : string;
  kt_grid : int * int * int;
  kt_block : int * int * int;
  kt_regs : int;
  kt_occupancy : float;
  kt_blocks_per_sm : int;
  kt_waves : int;
  kt_cycles_per_wave : float;
  kt_ms : float;
  kt_instructions : int;
  kt_transactions : int;
}

type program_time = { ptk : kernel_time list; total_ms : float }

let launch_overhead_ms = 0.005

let rec eval_int ~env (e : E.t) =
  match e with
  | E.Int_lit (n, _) -> n
  | E.Float_lit (f, _) -> int_of_float f
  | E.Var v -> (
      match List.assoc_opt v.E.vname env with
      | Some value -> Value.to_int value
      | None -> failwith ("launch: unbound parameter " ^ v.E.vname))
  | E.Binop (op, a, b) -> (
      let x = eval_int ~env a and y = eval_int ~env b in
      match op with
      | E.Add -> x + y
      | E.Sub -> x - y
      | E.Mul -> x * y
      | E.Div -> if y = 0 then 0 else x / y
      | E.Mod -> if y = 0 then 0 else x mod y
      | E.Min -> min x y
      | E.Max -> max x y
      | E.Eq -> if x = y then 1 else 0
      | E.Ne -> if x <> y then 1 else 0
      | E.Lt -> if x < y then 1 else 0
      | E.Le -> if x <= y then 1 else 0
      | E.Gt -> if x > y then 1 else 0
      | E.Ge -> if x >= y then 1 else 0
      | E.And -> if x <> 0 && y <> 0 then 1 else 0
      | E.Or -> if x <> 0 || y <> 0 then 1 else 0)
  | E.Unop (E.Neg, a) -> -eval_int ~env a
  | E.Unop (E.Not, a) -> if eval_int ~env a = 0 then 1 else 0
  | E.Cast (_, a) -> eval_int ~env a
  | E.Load _ -> failwith "launch: array load in a launch bound"
  | E.Call _ -> failwith "launch: call in a launch bound"

let cdiv a b = (a + b - 1) / b

let grid_of ~env (k : K.t) =
  let axis a =
    match
      List.find_opt (fun (m : K.axis_map) -> m.K.ax = a) k.K.axes
    with
    | None -> 1
    | Some m ->
        let lo = eval_int ~env m.K.ax_lo and hi = eval_int ~env m.K.ax_hi in
        let trip = max 0 (hi - lo + 1) in
        max 1 (cdiv trip m.K.ax_vector)
  in
  (axis Safara_vir.Instr.X, axis Safara_vir.Instr.Y, axis Safara_vir.Instr.Z)

let run_functional_m ?counters ?pool ~prog ~env kernels =
  List.map
    (fun (k : K.t) ->
      let grid = grid_of ~env:env.Interp.scalars k in
      (k.K.kname, Interp.run_kernel_m ?counters ?pool ~prog ~env ~grid k))
    kernels

let run_functional ?counters ?pool ~prog ~env kernels =
  ignore
    (run_functional_m ?counters ?pool ~prog ~env kernels
      : (string * Interp.mode) list)

let time_kernel ~arch ~latency ~prog ~env ~report (k : K.t) =
  let grid = grid_of ~env:env.Interp.scalars k in
  let gx, gy, gz = grid in
  let total_blocks = gx * gy * gz in
  let occ =
    Safara_gpu.Occupancy.calculate arch
      {
        Safara_gpu.Occupancy.threads_per_block = K.threads_per_block k;
        regs_per_thread = report.Safara_ptxas.Assemble.regs_used;
        shared_bytes_per_block = k.K.shared_bytes;
      }
  in
  let blocks_per_sm =
    (* a grid smaller than one full wave leaves SMs under-filled no
       matter what the register limit allows *)
    min
      (max 1 occ.Safara_gpu.Occupancy.blocks_per_sm)
      (max 1 (cdiv total_blocks arch.Safara_gpu.Arch.num_sms))
  in
  let stats =
    Memory.with_undo env.Interp.mem (fun () ->
        Timing.simulate_resident_set ~arch ~latency ~prog ~env ~grid
          ~blocks_per_sm k)
  in
  let capacity = blocks_per_sm * arch.Safara_gpu.Arch.num_sms in
  let waves = max 1 (cdiv total_blocks capacity) in
  (* trailing waves are partial: scale time by the fractional wave
     count rather than the ceiling *)
  let waves_f = Float.max 1.0 (float_of_int total_blocks /. float_of_int capacity) in
  let cycles = stats.Timing.cycles *. waves_f in
  let ms =
    (cycles /. (float_of_int arch.Safara_gpu.Arch.clock_mhz *. 1000.))
    +. launch_overhead_ms
  in
  {
    kt_name = k.K.kname;
    kt_grid = grid;
    kt_block = k.K.block;
    kt_regs = report.Safara_ptxas.Assemble.regs_used;
    kt_occupancy = occ.Safara_gpu.Occupancy.occupancy;
    kt_blocks_per_sm = blocks_per_sm;
    kt_waves = waves;
    kt_cycles_per_wave = stats.Timing.cycles;
    kt_ms = ms;
    kt_instructions = stats.Timing.instructions;
    kt_transactions = stats.Timing.transactions;
  }

let time_program ~arch ~latency ~prog ~env pairs =
  let ptk =
    List.map (fun (k, report) -> time_kernel ~arch ~latency ~prog ~env ~report k) pairs
  in
  { ptk; total_ms = List.fold_left (fun acc kt -> acc +. kt.kt_ms) 0. ptk }

let pp_kernel_time ppf kt =
  let gx, gy, gz = kt.kt_grid in
  Format.fprintf ppf
    "%s: grid(%d,%d,%d) regs=%d occ=%.0f%% waves=%d cyc/wave=%.0f %.3f ms"
    kt.kt_name gx gy gz kt.kt_regs
    (100. *. kt.kt_occupancy)
    kt.kt_waves kt.kt_cycles_per_wave kt.kt_ms
