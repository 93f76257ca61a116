(* Simulator tests: memory, functional interpreter against OCaml
   references, launch geometry, and timing-model behaviours (occupancy
   helps, coalescing matters, bandwidth bound). *)

open Safara_sim
module V = Value

let arch = Safara_gpu.Arch.kepler_k20xm
let latency = Safara_gpu.Latency.kepler

let test_memory_roundtrip () =
  let m = Memory.create () in
  Memory.alloc m ~name:"x" ~elem:Safara_ir.Types.F64 ~length:8;
  Memory.alloc m ~name:"y" ~elem:Safara_ir.Types.I32 ~length:4;
  let bx = Memory.base m "x" in
  Memory.store m ~addr:(bx + 16) (V.F 3.5);
  Alcotest.(check (float 0.)) "load back" 3.5
    (V.to_float (Memory.load m ~addr:(bx + 16)));
  Alcotest.(check (float 0.)) "via data view" 3.5 (Memory.float_data m "x").(2);
  let by = Memory.base m "y" in
  Memory.store m ~addr:(by + 8) (V.I 42);
  Alcotest.(check int) "int cell" 42 (Memory.int_data m "y").(2)

let test_memory_wild_address () =
  let m = Memory.create () in
  Memory.alloc m ~name:"x" ~elem:Safara_ir.Types.F64 ~length:2;
  Alcotest.(check bool) "wild address rejected" true
    (try
       ignore (Memory.load m ~addr:7);
       false
     with Invalid_argument _ -> true)

let test_memory_copy_isolated () =
  let m = Memory.create () in
  Memory.alloc m ~name:"x" ~elem:Safara_ir.Types.F64 ~length:4;
  (Memory.float_data m "x").(0) <- 1.0;
  let m2 = Memory.copy m in
  (Memory.float_data m2 "x").(0) <- 9.0;
  Alcotest.(check (float 0.)) "original untouched" 1.0 (Memory.float_data m "x").(0)

(* --- end-to-end interpreter checks --------------------------------- *)

let compile_pipeline src =
  let prog = Safara_lang.Frontend.compile src in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let kernels =
    List.map
      (fun r ->
        let k = Codegen_helper.compile_region ~arch prog r in
        let k, _, report = Safara_ptxas.Assemble.assemble ~arch k in
        (k, report))
      prog.Safara_ir.Program.regions
  in
  (prog, kernels)

let test_interp_saxpy () =
  let src =
    {|
param int n;
param double alpha;
in double x[n];
double y[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(128)
  for (i = 0; i <= n - 1; i++) {
    y[i] = alpha * x[i] + y[i];
  }
}
|}
  in
  let n = 1000 in
  let prog, kernels = compile_pipeline src in
  let mem = Memory.create () in
  Memory.alloc_program mem ~env:[ ("n", n) ] prog;
  let x = Memory.float_data mem "x" and y = Memory.float_data mem "y" in
  Array.iteri (fun i _ -> x.(i) <- float_of_int i) x;
  Array.iteri (fun i _ -> y.(i) <- 1.0) y;
  let env =
    { Interp.scalars = [ ("n", V.I n); ("alpha", V.F 2.0) ]; mem }
  in
  Launch.run_functional ~prog ~env (List.map fst kernels);
  let ok = ref true in
  Array.iteri (fun i v -> if v <> (2.0 *. float_of_int i) +. 1.0 then ok := false) y;
  Alcotest.(check bool) "saxpy correct" true !ok

let test_interp_multi_kernel () =
  (* two regions in sequence: the second consumes the first's output *)
  let src =
    {|
param int n;
in double x[n];
double t[n];
double y[n];
#pragma acc kernels name(square)
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= n - 1; i++) {
    t[i] = x[i] * x[i];
  }
}
#pragma acc kernels name(shift)
{
  #pragma acc loop gang vector(64)
  for (i = 1; i <= n - 1; i++) {
    y[i] = t[i] - t[i-1];
  }
}
|}
  in
  let n = 128 in
  let prog, kernels = compile_pipeline src in
  let mem = Memory.create () in
  Memory.alloc_program mem ~env:[ ("n", n) ] prog;
  let x = Memory.float_data mem "x" in
  Array.iteri (fun i _ -> x.(i) <- float_of_int i) x;
  let env = { Interp.scalars = [ ("n", V.I n) ]; mem } in
  Launch.run_functional ~prog ~env (List.map fst kernels);
  let y = Memory.float_data mem "y" in
  (* y[i] = i^2 - (i-1)^2 = 2i - 1 *)
  Alcotest.(check (float 0.)) "y[5]" 9.0 y.(5);
  Alcotest.(check (float 0.)) "y[100]" 199.0 y.(100)

let test_interp_reduction () =
  let src =
    {|
param int n;
in double x[n];
double r[1];
#pragma acc kernels
{
  double sum = 0.0;
  #pragma acc loop gang vector(128) reduction(+:sum)
  for (i = 0; i <= n - 1; i++) {
    sum += x[i];
  }
  r[0] = sum;
}
|}
  in
  let n = 1000 in
  let prog, kernels = compile_pipeline src in
  let mem = Memory.create () in
  Memory.alloc_program mem ~env:[ ("n", n) ] prog;
  let x = Memory.float_data mem "x" in
  Array.iteri (fun i _ -> x.(i) <- 1.0) x;
  let env = { Interp.scalars = [ ("n", V.I n) ]; mem } in
  Launch.run_functional ~prog ~env (List.map fst kernels);
  Alcotest.(check (float 0.001)) "sum" (float_of_int n)
    (Memory.float_data mem "r").(0)

let test_interp_guard_boundary () =
  (* trip count not a multiple of the vector length: guarded threads
     must not write out of range *)
  let src =
    {|
param int n;
double a[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(128)
  for (i = 0; i <= n - 1; i++) {
    a[i] = 7.0;
  }
}
|}
  in
  let n = 100 in
  let prog, kernels = compile_pipeline src in
  let mem = Memory.create () in
  Memory.alloc_program mem ~env:[ ("n", n) ] prog;
  let env = { Interp.scalars = [ ("n", V.I n) ]; mem } in
  Launch.run_functional ~prog ~env (List.map fst kernels);
  Alcotest.(check (float 0.)) "all written" (7.0 *. float_of_int n)
    (Memory.checksum mem "a")

(* --- launch --------------------------------------------------------- *)

let test_grid_geometry () =
  let src =
    {|
param int n;
double a[n][n];
#pragma acc kernels
{
  #pragma acc loop gang vector(4)
  for (j = 0; j <= n - 1; j++) {
    #pragma acc loop gang vector(32)
    for (i = 0; i <= n - 1; i++) {
      a[j][i] = 1.0;
    }
  }
}
|}
  in
  let prog, kernels = compile_pipeline src in
  ignore prog;
  let k = fst (List.hd kernels) in
  let grid = Launch.grid_of ~env:[ ("n", V.I 100) ] k in
  (* x: ceil(100/32) = 4; y: ceil(100/4) = 25 *)
  Alcotest.(check (list int)) "grid" [ 4; 25; 1 ]
    (let x, y, z = grid in
     [ x; y; z ])

let test_eval_int () =
  let e = Safara_lang.Parser.parse_expr "(n + 63) / 64" in
  let rec lower = function
    | Safara_lang.Ast.Int n -> Safara_ir.Expr.int n
    | Safara_lang.Ast.Var v -> Safara_ir.Expr.var v
    | Safara_lang.Ast.Bin (op, a, b) -> Safara_ir.Expr.Binop (op, lower a, lower b)
    | _ -> failwith "unsupported"
  in
  Alcotest.(check int) "ceil div" 2 (Launch.eval_int ~env:[ ("n", V.I 100) ] (lower e))

(* --- timing behaviours ---------------------------------------------- *)

let streaming_src =
  {|
param int n;
in double x[n];
double y[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(128)
  for (i = 0; i <= n - 1; i++) {
    y[i] = x[i] * 2.0;
  }
}
|}

let time_with_regs ~regs src n =
  let prog, kernels = compile_pipeline src in
  let k, report = List.hd kernels in
  let report = { report with Safara_ptxas.Assemble.regs_used = regs } in
  let mem = Memory.create () in
  Memory.alloc_program mem ~env:[ ("n", n) ] prog;
  let env = { Interp.scalars = [ ("n", V.I n) ]; mem } in
  Launch.time_kernel ~arch ~latency ~prog ~env ~report k

let test_occupancy_hides_latency () =
  (* same kernel, artificially raised register count -> lower occupancy
     -> more cycles per wave x more waves *)
  let t32 = time_with_regs ~regs:32 streaming_src 65536 in
  let t200 = time_with_regs ~regs:200 streaming_src 65536 in
  Alcotest.(check bool) "occupancy drop costs time" true
    (t200.Launch.kt_ms > t32.Launch.kt_ms);
  Alcotest.(check bool) "occupancy reported" true
    (t200.Launch.kt_occupancy < t32.Launch.kt_occupancy)

let test_uncoalesced_slower () =
  let coalesced =
    {|
param int n;
in double b[n][n];
double a[n][n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang
  for (j = 0; j <= n - 1; j++) {
    #pragma acc loop gang vector(128)
    for (i = 0; i <= n - 1; i++) {
      a[j][i] = b[j][i];
    }
  }
}
|}
  in
  let transposed =
    {|
param int n;
in double b[n][n];
double a[n][n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang
  for (j = 0; j <= n - 1; j++) {
    #pragma acc loop gang vector(128)
    for (i = 0; i <= n - 1; i++) {
      a[j][i] = b[i][j];
    }
  }
}
|}
  in
  let time src =
    let prog, kernels = compile_pipeline src in
    let k, report = List.hd kernels in
    let mem = Memory.create () in
    Memory.alloc_program mem ~env:[ ("n", 256) ] prog;
    let env = { Interp.scalars = [ ("n", V.I 256) ]; mem } in
    Launch.time_kernel ~arch ~latency ~prog ~env ~report k
  in
  let tc = time coalesced and tu = time transposed in
  Alcotest.(check bool) "transposed read slower" true
    (tu.Launch.kt_ms > 1.2 *. tc.Launch.kt_ms);
  Alcotest.(check bool) "more transactions" true
    (tu.Launch.kt_transactions > tc.Launch.kt_transactions)

let test_timing_counts_waves () =
  let small = time_with_regs ~regs:32 streaming_src 4096 in
  let large = time_with_regs ~regs:32 streaming_src (16 * 65536) in
  Alcotest.(check bool) "more waves for bigger grids" true
    (large.Launch.kt_waves > small.Launch.kt_waves)

let test_fewer_memops_faster () =
  (* the same computation with a redundant load removed is faster *)
  let redundant =
    {|
param int n;
in double b[n][n];
double a[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= n - 1; i++) {
    a[i] = b[i][0] * b[i][0] + b[i][0];
  }
}
|}
  in
  let cached =
    {|
param int n;
in double b[n][n];
double a[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(64)
  for (i = 0; i <= n - 1; i++) {
    double t = b[i][0];
    a[i] = t * t + t;
  }
}
|}
  in
  let time src =
    let prog, kernels = compile_pipeline src in
    let k, report = List.hd kernels in
    let mem = Memory.create () in
    Memory.alloc_program mem ~env:[ ("n", 4096) ] prog;
    let env = { Interp.scalars = [ ("n", V.I 4096) ]; mem } in
    Launch.time_kernel ~arch ~latency ~prog ~env ~report k
  in
  Alcotest.(check bool) "cached version faster" true
    ((time cached).Launch.kt_ms < (time redundant).Launch.kt_ms)

(* --- differential: both execution engines ----------------------------- *)
(* The closure-threaded compiler is only a performance change: on every
   workload it must produce the same array bits, the same functional
   counters and the same timing statistics as the boxed reference
   walker. *)

let engine_snapshot profile (w : Safara_suites.Workload.t) eng =
  Decode.with_engine eng (fun () ->
      let c =
        Safara_core.Compiler.compile_src profile w.Safara_suites.Workload.source
      in
      let env = Safara_suites.Workload.prepare c w in
      let counters = Interp.fresh_counters () in
      List.iter
        (fun (k, _) ->
          let grid = Launch.grid_of ~env:env.Interp.scalars k in
          Interp.run_kernel ~counters ~prog:c.Safara_core.Compiler.c_prog ~env
            ~grid k)
        c.Safara_core.Compiler.c_kernels;
      let sums =
        List.map
          (fun (a : Safara_ir.Array_info.t) ->
            ( a.Safara_ir.Array_info.name,
              Int64.bits_of_float
                (Memory.checksum env.Interp.mem a.Safara_ir.Array_info.name) ))
          c.Safara_core.Compiler.c_prog.Safara_ir.Program.arrays
      in
      let cnt =
        ( counters.Interp.c_instructions,
          counters.Interp.c_loads,
          counters.Interp.c_stores,
          counters.Interp.c_atomics,
          counters.Interp.c_spill_ops )
      in
      let timing =
        Safara_core.Compiler.time c (Safara_suites.Workload.prepare c w)
      in
      (sums, cnt, timing))

let check_engines_agree profile (w : Safara_suites.Workload.t) () =
  let w = Suite_workloads.shrink w in
  let r_sums, r_cnt, r_time = engine_snapshot profile w Decode.Reference in
  let t_sums, t_cnt, t_time = engine_snapshot profile w Decode.Threaded in
  List.iter2
    (fun (arr, r) (_, t) ->
      if r <> t then
        Alcotest.fail
          (Printf.sprintf "%s: array %s differs between reference and threaded"
             w.Safara_suites.Workload.id arr))
    r_sums t_sums;
  if r_cnt <> t_cnt then
    Alcotest.fail
      (Printf.sprintf "%s: functional counters differ under threaded"
         w.Safara_suites.Workload.id);
  (* [compare] rather than [=] so identical NaNs would still agree *)
  if compare r_time t_time <> 0 then
    Alcotest.fail
      (Printf.sprintf "%s: timing stats differ under threaded"
         w.Safara_suites.Workload.id)

let test_decode_unknown_label () =
  let k =
    {
      Safara_vir.Kernel.kname = "bad";
      params = [];
      code = [| Safara_vir.Instr.Bra "nowhere"; Safara_vir.Instr.Ret |];
      block = (1, 1, 1);
      axes = [];
      shared_bytes = 0;
    }
  in
  match Decode.decode k with
  | exception Decode.Error d ->
      Alcotest.(check string) "diagnostic code" "SAF021" d.Safara_diag.Diagnostic.code
  | _ -> Alcotest.fail "expected Decode.Error for unknown label"

(* --- memory: sorted-array resolution ---------------------------------- *)

let test_memory_many_allocs () =
  let m = Memory.create () in
  let names = List.init 40 (fun i -> Printf.sprintf "a%d" i) in
  List.iteri
    (fun i name ->
      let elem = if i mod 2 = 0 then Safara_ir.Types.F64 else Safara_ir.Types.I32 in
      Memory.alloc m ~name ~elem ~length:(3 + (i mod 5)))
    names;
  (* first and last element of every allocation resolve to it *)
  List.iteri
    (fun i name ->
      let elem_bytes = if i mod 2 = 0 then 8 else 4 in
      let length = 3 + (i mod 5) in
      let first = Memory.base m name in
      let last = first + ((length - 1) * elem_bytes) in
      if i mod 2 = 0 then begin
        Memory.store m ~addr:last (V.F (float_of_int i));
        Alcotest.(check (float 0.))
          (name ^ " last cell") (float_of_int i)
          (V.to_float (Memory.load m ~addr:last))
      end
      else begin
        Memory.store m ~addr:first (V.I i);
        Alcotest.(check int) (name ^ " first cell") i
          (V.to_int (Memory.load m ~addr:first))
      end)
    names

let test_memory_gap_rejected () =
  let m = Memory.create () in
  (* 24-byte allocations padded to 256: addresses in the padding gap
     are wild even though they sit between two live bases *)
  Memory.alloc m ~name:"x" ~elem:Safara_ir.Types.F64 ~length:3;
  Memory.alloc m ~name:"y" ~elem:Safara_ir.Types.F64 ~length:3;
  let bx = Memory.base m "x" in
  let wild = bx + 24 in
  Alcotest.(check bool) "gap address rejected" true
    (try
       ignore (Memory.load m ~addr:wild);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "below-heap address rejected" true
    (try
       ignore (Memory.load m ~addr:(bx - 1));
       false
     with Invalid_argument _ -> true)

let test_memory_duplicate_name () =
  let m = Memory.create () in
  Memory.alloc m ~name:"x" ~elem:Safara_ir.Types.F64 ~length:2;
  Alcotest.(check bool) "duplicate alloc rejected" true
    (try
       Memory.alloc m ~name:"x" ~elem:Safara_ir.Types.I32 ~length:2;
       false
     with Invalid_argument _ -> true)

let test_memory_alternating_arrays () =
  (* streaming from one array into another alternates resolutions;
     the two-entry last-hit cache must not confuse the slots *)
  let m = Memory.create () in
  Memory.alloc m ~name:"src" ~elem:Safara_ir.Types.F64 ~length:64;
  Memory.alloc m ~name:"dst" ~elem:Safara_ir.Types.F64 ~length:64;
  Memory.alloc m ~name:"aux" ~elem:Safara_ir.Types.I32 ~length:64;
  let bs = Memory.base m "src"
  and bd = Memory.base m "dst"
  and ba = Memory.base m "aux" in
  for i = 0 to 63 do
    Memory.store m ~addr:(bs + (8 * i)) (V.F (float_of_int i))
  done;
  for i = 0 to 63 do
    let v = Memory.load m ~addr:(bs + (8 * i)) in
    Memory.store m ~addr:(bd + (8 * i)) (V.F (2. *. V.to_float v));
    Memory.store m ~addr:(ba + (4 * i)) (V.I i)
  done;
  Alcotest.(check (float 0.)) "dst mid" 42.
    (V.to_float (Memory.load m ~addr:(bd + (8 * 21))));
  Alcotest.(check int) "aux mid" 21 (V.to_int (Memory.load m ~addr:(ba + (4 * 21))))

(* --- block-parallel engine ------------------------------------------ *)

let with_pool size f =
  let pool = Safara_engine.Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Safara_engine.Pool.shutdown pool) (fun () ->
      f pool)

(* final memory + summed counters + per-kernel modes of a functional
   run on the threaded engine, sequential ([jobs = 1]: no pool) or
   block-parallel *)
let parallel_snapshot profile (w : Safara_suites.Workload.t) ~jobs =
  Decode.with_engine Decode.Threaded @@ fun () ->
  let run pool =
    let c =
      Safara_core.Compiler.compile_src profile w.Safara_suites.Workload.source
    in
    let env = Safara_suites.Workload.prepare c w in
    let counters = Interp.fresh_counters () in
    let modes = Safara_core.Compiler.run_functional_m ~counters ?pool c env in
    let grids =
      List.map
        (fun (k, _) -> Launch.grid_of ~env:env.Interp.scalars k)
        c.Safara_core.Compiler.c_kernels
    in
    let sums =
      List.map
        (fun (a : Safara_ir.Array_info.t) ->
          ( a.Safara_ir.Array_info.name,
            Int64.bits_of_float
              (Memory.checksum env.Interp.mem a.Safara_ir.Array_info.name) ))
        c.Safara_core.Compiler.c_prog.Safara_ir.Program.arrays
    in
    let cnt =
      ( counters.Interp.c_instructions,
        counters.Interp.c_loads,
        counters.Interp.c_stores,
        counters.Interp.c_atomics,
        counters.Interp.c_spill_ops )
    in
    (sums, cnt, List.combine modes grids)
  in
  if jobs <= 1 then run None else with_pool jobs (fun pool -> run (Some pool))

let check_parallel_agrees profile (w : Safara_suites.Workload.t) () =
  let w = Suite_workloads.shrink w in
  let s_sums, s_cnt, _ = parallel_snapshot profile w ~jobs:1 in
  let p_sums, p_cnt, p_modes = parallel_snapshot profile w ~jobs:4 in
  List.iter2
    (fun (name, s) (_, p) ->
      if s <> p then
        Alcotest.fail
          (Printf.sprintf "%s: array %s differs between -j 1 and -j 4"
             w.Safara_suites.Workload.id name))
    s_sums p_sums;
  if s_cnt <> p_cnt then
    Alcotest.fail
      (Printf.sprintf "%s: summed counters differ at -j 4"
         w.Safara_suites.Workload.id);
  (* with a parallel pool every multi-block launch must either run
     block-parallel or carry an explicit fallback reason (single-block
     grids skip the prover: there is nothing to fan out) *)
  List.iter
    (fun ((kname, mode), (gx, gy, gz)) ->
      match mode with
      | Interp.Parallel _ | Interp.Sequential (Some _) -> ()
      | Interp.Sequential None ->
          if gx * gy * gz > 1 then
            Alcotest.fail
              (Printf.sprintf "%s/%s: no block-parallel decision was made"
                 w.Safara_suites.Workload.id kname))
    p_modes

let saxpy_src =
  {|
param int n;
in double x[n];
double y[n];
#pragma acc kernels name(saxpy)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    y[i] = 2.0 * x[i] + y[i];
  }
}
|}

let test_blockpar_saxpy_parallel () =
  let n = 1000 in
  let prog, kernels = compile_pipeline saxpy_src in
  let k = fst (List.hd kernels) in
  (match Blockpar.analyze ~prog k with
  | Blockpar.Block_parallel -> ()
  | Blockpar.Serial r ->
      Alcotest.fail ("saxpy judged serial: " ^ Blockpar.reason_message r));
  let mem = Memory.create () in
  Memory.alloc_program mem ~env:[ ("n", n) ] prog;
  let x = Memory.float_data mem "x" in
  Array.iteri (fun i _ -> x.(i) <- float_of_int i) x;
  let env = { Interp.scalars = [ ("n", V.I n) ]; mem } in
  let grid = Launch.grid_of ~env:env.Interp.scalars k in
  (* the launch is provable but small: pin both granularity knobs so
     the test exercises the parallel path itself, not the cost model's
     opinion of a 1000-element toy *)
  let saved_t = !Interp.parallel_threshold
  and saved_c = !Interp.parallel_min_chunk_ops in
  Interp.parallel_threshold := 0;
  Interp.parallel_min_chunk_ops := 1;
  let mode =
    Fun.protect
      ~finally:(fun () ->
        Interp.parallel_threshold := saved_t;
        Interp.parallel_min_chunk_ops := saved_c)
      (fun () ->
        with_pool 4 (fun pool -> Interp.run_kernel_m ~pool ~prog ~env ~grid k))
  in
  (match mode with
  | Interp.Parallel { chunks } ->
      Alcotest.(check bool) "fanned into several chunks" true (chunks > 1)
  | Interp.Sequential _ -> Alcotest.fail "saxpy did not run block-parallel");
  let y = Memory.float_data mem "y" in
  let ok = ref true in
  Array.iteri (fun i v -> if v <> 2.0 *. float_of_int i then ok := false) y;
  Alcotest.(check bool) "parallel saxpy result correct" true !ok

(* A timing run builds a kernel's step closures only; a block-parallel
   functional run of the same kernel right after it must still build
   the block closures before its chunks start, and match the serial
   run. *)
let test_blockpar_after_timing () =
  let n = 1000 in
  let prog, kernels = compile_pipeline saxpy_src in
  let k, report = List.hd kernels in
  let fresh () =
    let mem = Memory.create () in
    Memory.alloc_program mem ~env:[ ("n", n) ] prog;
    Array.iteri
      (fun i _ -> (Memory.float_data mem "x").(i) <- float_of_int i)
      (Memory.float_data mem "x");
    { Interp.scalars = [ ("n", V.I n) ]; mem }
  in
  let grid = Launch.grid_of ~env:[ ("n", V.I n) ] k in
  Decode.with_engine Decode.Threaded @@ fun () ->
  let env = fresh () in
  ignore (Launch.time_kernel ~arch ~latency ~prog ~env ~report k : Launch.kernel_time);
  let saved_t = !Interp.parallel_threshold
  and saved_c = !Interp.parallel_min_chunk_ops in
  Interp.parallel_threshold := 0;
  Interp.parallel_min_chunk_ops := 1;
  let mode =
    Fun.protect
      ~finally:(fun () ->
        Interp.parallel_threshold := saved_t;
        Interp.parallel_min_chunk_ops := saved_c)
      (fun () ->
        with_pool 4 (fun pool -> Interp.run_kernel_m ~pool ~prog ~env ~grid k))
  in
  (match mode with
  | Interp.Parallel { chunks } ->
      Alcotest.(check bool) "fanned into several chunks" true (chunks > 1)
  | Interp.Sequential _ -> Alcotest.fail "saxpy did not run block-parallel");
  let serial = fresh () in
  Interp.run_kernel ~prog ~env:serial ~grid k;
  Alcotest.(check (array (float 0.))) "y: parallel after timing = serial"
    (Memory.float_data serial.Interp.mem "y")
    (Memory.float_data env.Interp.mem "y")

let test_blockpar_refuses_cross_block () =
  (* recurrence across the gang-distributed index: the write y[i] and
     the read y[i-1] are one apart, so a block could consume a cell
     another block produces — must be refused and still match the
     boxed reference walker exactly *)
  let src =
    {|
param int n;
in double x[n];
double y[n];
#pragma acc kernels name(scan)
{
  #pragma acc loop gang vector(32)
  for (i = 1; i <= n - 1; i++) {
    y[i] = y[i-1] + x[i];
  }
}
|}
  in
  let n = 500 in
  let prog, kernels = compile_pipeline src in
  let k = fst (List.hd kernels) in
  (match Blockpar.analyze ~prog k with
  | Blockpar.Serial (Blockpar.Blocking_dep _) -> ()
  | Blockpar.Block_parallel ->
      Alcotest.fail "cross-block recurrence was judged block-parallel"
  | Blockpar.Serial r ->
      Alcotest.fail ("unexpected reason: " ^ Blockpar.reason_message r));
  let run ~eng ~pool =
    Decode.with_engine eng (fun () ->
        let mem = Memory.create () in
        Memory.alloc_program mem ~env:[ ("n", n) ] prog;
        let x = Memory.float_data mem "x" in
        Array.iteri (fun i _ -> x.(i) <- 1.0) x;
        let env = { Interp.scalars = [ ("n", V.I n) ]; mem } in
        let grid = Launch.grid_of ~env:env.Interp.scalars k in
        let mode = Interp.run_kernel_m ?pool ~prog ~env ~grid k in
        (mode, Int64.bits_of_float (Memory.checksum mem "y")))
  in
  let ref_mode, ref_sum = run ~eng:Decode.Reference ~pool:None in
  Alcotest.(check bool) "reference walk is sequential" true
    (ref_mode = Interp.Sequential None);
  let par_mode, par_sum =
    with_pool 4 (fun pool -> run ~eng:Decode.Threaded ~pool:(Some pool))
  in
  (match par_mode with
  | Interp.Sequential (Some (Blockpar.Blocking_dep _)) -> ()
  | _ -> Alcotest.fail "pooled run did not fall back with the dep reason");
  Alcotest.(check int64 ) "fallback matches the reference walker" ref_sum
    par_sum

let test_blockpar_atomics_fall_back () =
  let src =
    {|
param int n;
in double x[n];
double s[1];
#pragma acc kernels name(total)
{
  double sum = 0.0;
  #pragma acc loop gang vector(32) reduction(+:sum)
  for (i = 0; i <= n - 1; i++) {
    sum += x[i];
  }
  s[0] = sum;
}
|}
  in
  let prog, kernels = compile_pipeline src in
  let k = fst (List.hd kernels) in
  match Blockpar.analyze ~prog k with
  | Blockpar.Serial (Blockpar.Atomics 1) -> ()
  | Blockpar.Block_parallel -> Alcotest.fail "reduction judged block-parallel"
  | Blockpar.Serial r ->
      Alcotest.fail ("unexpected reason: " ^ Blockpar.reason_message r)

let test_blockpar_unmapped_write_refused () =
  (* a write outside the grid-mapped loop executes in *every* block,
     and the race detector is silent about it (no common nest with the
     loop's refs, and [self_output_race] only judges writes inside the
     parallel loop) — the block-parallel pass must still refuse it,
     via the every-write-pinned-by-every-axis condition *)
  let src =
    {|
param int n;
double y[n];
#pragma acc kernels name(edge)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    y[i] = 1.0;
  }
  y[0] = 2.0;
}
|}
  in
  let prog, kernels = compile_pipeline src in
  let k = fst (List.hd kernels) in
  match Blockpar.analyze ~prog k with
  | Blockpar.Serial (Blockpar.Unproven_write _) -> ()
  | Blockpar.Block_parallel ->
      Alcotest.fail "unmapped boundary write was judged block-parallel"
  | Blockpar.Serial r ->
      Alcotest.fail ("unexpected reason: " ^ Blockpar.reason_message r)

(* --- parallel granularity cost model -------------------------------- *)

let costmodel_src =
  {|
param int n;
in double x[n];
double y[n];
#pragma acc kernels name(tiny)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    y[i] = 2.0 * x[i];
  }
}
|}

let costmodel_mode ~threshold ~n =
  let prog, kernels = compile_pipeline costmodel_src in
  let k = fst (List.hd kernels) in
  let mem = Memory.create () in
  Memory.alloc_program mem ~env:[ ("n", n) ] prog;
  let env = { Interp.scalars = [ ("n", V.I n) ]; mem } in
  let grid = Launch.grid_of ~env:env.Interp.scalars k in
  let saved_t = !Interp.parallel_threshold
  and saved_c = !Interp.parallel_min_chunk_ops in
  Interp.parallel_threshold := threshold;
  Interp.parallel_min_chunk_ops := 1;
  Fun.protect
    ~finally:(fun () ->
      Interp.parallel_threshold := saved_t;
      Interp.parallel_min_chunk_ops := saved_c)
    (fun () ->
      let mode =
        with_pool 4 (fun pool -> Interp.run_kernel_m ~pool ~prog ~env ~grid k)
      in
      (mode, Interp.estimated_ops ~grid k))

let test_costmodel_small_launch_serial () =
  (* provably block-parallel, but far below the default threshold: the
     cost model must refuse the pool and say why *)
  let mode, est = costmodel_mode ~threshold:500_000 ~n:256 in
  match mode with
  | Interp.Sequential (Some (Blockpar.Below_threshold { est_ops; threshold }))
    ->
      Alcotest.(check int) "reported estimate" est est_ops;
      Alcotest.(check int) "reported threshold" 500_000 threshold
  | Interp.Parallel _ ->
      Alcotest.fail "tiny launch went parallel despite the threshold"
  | Interp.Sequential r ->
      Alcotest.fail
        ("tiny launch fell back for the wrong reason: "
        ^
        match r with
        | None -> "no reason"
        | Some r -> Blockpar.reason_message r)

let test_costmodel_zero_threshold_parallel () =
  (* same launch with the threshold disabled goes block-parallel *)
  match fst (costmodel_mode ~threshold:0 ~n:256) with
  | Interp.Parallel { chunks } ->
      Alcotest.(check bool) "several chunks" true (chunks > 1)
  | Interp.Sequential _ ->
      Alcotest.fail "launch stayed serial with a zero threshold"

let test_costmodel_estimate_scales () =
  (* the estimate is linear in the grid: twice the blocks, twice the
     estimated ops *)
  let prog, kernels = compile_pipeline costmodel_src in
  ignore prog;
  let k = fst (List.hd kernels) in
  let e1 = Interp.estimated_ops ~grid:(4, 1, 1) k in
  let e2 = Interp.estimated_ops ~grid:(8, 1, 1) k in
  Alcotest.(check int) "linear in blocks" (2 * e1) e2

(* --- threaded engine: superop fusion boundaries ---------------------- *)
(* Hand-built register-only kernels drive the closure compiler's fusion
   paths directly against an unfused walk of the same kernel's per-pc
   step closures, comparing final register files bit-for-bit and the
   fused instruction count against the number of steps walked. The
   shapes are chosen to straddle fusion boundaries: labels inside
   would-be fused runs, branches landing between dependent ops, and
   compares feeding the conditional branch that ends a block. *)

let vreg rid rty = { Safara_vir.Vreg.rid; rty }
let freg rid = vreg rid Safara_ir.Types.F64
let ireg rid = vreg rid Safara_ir.Types.I32
let preg rid = vreg rid Safara_ir.Types.Bool

let regonly_kernel name code =
  {
    Safara_vir.Kernel.kname = name;
    params = [];
    code;
    block = (1, 1, 1);
    axes = [];
    shared_bytes = 0;
  }

(* fresh state and params for one thread of a parameterless kernel *)
let regonly_thread th =
  let d = Threaded.decoded th in
  let prog = Safara_ir.Program.make "t" [] in
  let env = { Decode.scalars = []; mem = Memory.create () } in
  let st = Decode.make_state d in
  Decode.reset_state st;
  (st, Decode.make_params d ~env ~prog)

(* run one thread through the fused block closures and once more by
   walking the unfused per-pc step closures (the timing model's view of
   the same kernel); both register halves must match and the fused
   instruction count must equal the number of steps walked. Returns
   (float regs, int regs, instructions). *)
let check_regonly_agree k =
  let name = k.Safara_vir.Kernel.kname in
  let th = Threaded.compile (Decode.decode k) in
  let f_st, f_ps = regonly_thread th in
  let cnt = Decode.fresh_counters () in
  Threaded.run_thread th f_st f_ps cnt ~fuel:max_int;
  let s_st, s_ps = regonly_thread th in
  let steps = Threaded.steps th in
  let rec walk pc taken =
    if pc >= Array.length steps then taken
    else walk (steps.(pc) s_st s_ps) (taken + 1)
  in
  let taken = walk 0 0 in
  Alcotest.(check (array (float 0.)))
    (name ^ ": float registers") s_st.Decode.xf f_st.Decode.xf;
  Alcotest.(check (array int))
    (name ^ ": int registers") s_st.Decode.xi f_st.Decode.xi;
  Alcotest.(check int)
    (name ^ ": instructions") taken cnt.Decode.c_instructions;
  (f_st.Decode.xf, f_st.Decode.xi, cnt.Decode.c_instructions)

let test_fusion_loop_with_dependent_chain () =
  (* a loop whose body is a fusable dependent float pair, an int
     increment, and a compare feeding the back-edge: exercises the
     generic pair fuser, a block whose last body op writes the branch
     predicate, and the label op at the loop head *)
  let module I = Safara_vir.Instr in
  let k =
    regonly_kernel "chainloop"
      [|
        I.Mov { dst = freg 1; src = I.FImm 0.0 };
        I.Mov { dst = freg 2; src = I.FImm 1.5 };
        I.Mov { dst = ireg 3; src = I.Imm 0 };
        I.Label "loop";
        I.Bin { op = I.Mul; dst = freg 2; a = I.Reg (freg 2); b = I.FImm 1.0000001 };
        I.Bin { op = I.Add; dst = freg 1; a = I.Reg (freg 1); b = I.Reg (freg 2) };
        I.Bin { op = I.Add; dst = ireg 3; a = I.Reg (ireg 3); b = I.Imm 1 };
        I.Setp { cmp = I.Lt; dst = preg 4; a = I.Reg (ireg 3); b = I.Imm 40 };
        I.Brc { pred = preg 4; if_true = true; target = "loop" };
        I.Ret;
      |]
  in
  let xf, xi, n = check_regonly_agree k in
  (* both walks must also match a direct OCaml evaluation bit-for-bit *)
  let acc = ref 0.0 and t = ref 1.5 in
  for _ = 1 to 40 do
    t := !t *. 1.0000001;
    acc := !acc +. !t
  done;
  Alcotest.(check int) "accumulator bits" 0
    (Int64.compare (Int64.bits_of_float !acc) (Int64.bits_of_float xf.(1)));
  Alcotest.(check int) "trip count" 40 xi.(3);
  (* 3 preamble ops + 40 × 6-op loop body (the label counts as an
     instruction, exactly like the reference walker) + Ret *)
  Alcotest.(check int) "instructions" (3 + (40 * 6) + 1) n

let test_fusion_branch_into_straightline () =
  (* the entry jump lands *between* two dependent float ops: the
     closure compiler must break the would-be fused run at the block
     leader rather than fusing across it *)
  let module I = Safara_vir.Instr in
  let k =
    regonly_kernel "midjump"
      [|
        I.Mov { dst = freg 1; src = I.FImm 1.0 };
        I.Mov { dst = freg 2; src = I.FImm 10.0 };
        I.Bra "mid";
        I.Label "top";
        I.Bin { op = I.Mul; dst = freg 1; a = I.Reg (freg 1); b = I.FImm 3.0 };
        I.Label "mid";
        I.Bin { op = I.Add; dst = freg 2; a = I.Reg (freg 2); b = I.Reg (freg 1) };
        I.Bin { op = I.Add; dst = ireg 3; a = I.Reg (ireg 3); b = I.Imm 1 };
        I.Setp { cmp = I.Lt; dst = preg 4; a = I.Reg (ireg 3); b = I.Imm 3 };
        I.Brc { pred = preg 4; if_true = true; target = "top" };
        I.Ret;
      |]
  in
  let xf, xi, _ = check_regonly_agree k in
  (* entry skips the multiply once: f2 = 10+1, then 2 round trips
     through "top": f1 = 3 then 9, f2 = 11+3 = 14 then 14+9 = 23 *)
  Alcotest.(check (float 0.)) "f1" 9.0 xf.(1);
  Alcotest.(check (float 0.)) "f2" 23.0 xf.(2);
  Alcotest.(check int) "loop counter" 3 xi.(3)

let test_fusion_unop_chain () =
  (* dependent unary chains exercise the compile-time unop
     specialization (sqrt of a product, scaled) on both fusion sides *)
  let module I = Safara_vir.Instr in
  let k =
    regonly_kernel "unops"
      [|
        I.Mov { dst = freg 1; src = I.FImm 2.25 };
        I.Bin { op = I.Mul; dst = freg 2; a = I.Reg (freg 1); b = I.FImm 4.0 };
        I.Una { op = I.Sqrt; dst = freg 3; a = I.Reg (freg 2) };
        I.Una { op = I.Floor; dst = freg 4; a = I.Reg (freg 3) };
        I.Bin { op = I.Sub; dst = freg 5; a = I.Reg (freg 3); b = I.Reg (freg 4) };
        I.Una { op = I.Neg; dst = freg 6; a = I.Reg (freg 5) };
        I.Ret;
      |]
  in
  let xf, _, _ = check_regonly_agree k in
  Alcotest.(check (float 0.)) "sqrt of product" 3.0 xf.(3);
  Alcotest.(check (float 0.)) "floor" 3.0 xf.(4);
  Alcotest.(check (float 0.)) "negated fraction" 0.0 xf.(6)

let test_fusion_addressing_chain_source () =
  (* addressing arithmetic as generated from real array code, on both
     engines with counters: a small strided gather with 64-bit offsets
     (dependent pairs only), and the same gather under [small], whose
     32-bit offsets give the full idiom the addressing-chain fuser
     collapses — scale, convert, base add, then a store, or a load
     whose value is copied into the conditionally assigned scalar
     (the copy is the chain's fifth op) *)
  let gather =
    {|
param int n;
in double b[n][n];
double y[n];
#pragma acc kernels name(gather)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    y[i] = b[i][2] * 2.0 + b[i][3];
  }
}
|}
  and gather_small =
    {|
param int n;
in double b[n][n];
double y[n];
#pragma acc kernels name(gather) small(b, y)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    double t = 1.0;
    if (i > 0) {
      t = b[i][2];
    }
    y[i] = t * 2.0 + b[i][3];
  }
}
|}
  in
  let n = 64 in
  let snapshot src eng =
    Decode.with_engine eng (fun () ->
        let prog, kernels = compile_pipeline src in
        let mem = Memory.create () in
        Memory.alloc_program mem ~env:[ ("n", n) ] prog;
        let b = Memory.float_data mem "b" in
        Array.iteri (fun i _ -> b.(i) <- float_of_int (i mod 97)) b;
        let env = { Interp.scalars = [ ("n", V.I n) ]; mem } in
        let counters = Interp.fresh_counters () in
        List.iter
          (fun (k, _) ->
            let grid = Launch.grid_of ~env:env.Interp.scalars k in
            Interp.run_kernel ~counters ~prog ~env ~grid k)
          kernels;
        ( Int64.bits_of_float (Memory.checksum mem "y"),
          ( counters.Interp.c_instructions,
            counters.Interp.c_loads,
            counters.Interp.c_stores ) ))
  in
  List.iter
    (fun (name, src) ->
      let r_sum, r_cnt = snapshot src Decode.Reference in
      let t_sum, t_cnt = snapshot src Decode.Threaded in
      Alcotest.(check int64) (name ^ ": threaded checksum") r_sum t_sum;
      Alcotest.(check bool) (name ^ ": threaded counters") true (r_cnt = t_cnt))
    [ ("gather", gather); ("gather small", gather_small) ]

let test_memory_view_cursors () =
  let m = Memory.create () in
  Memory.alloc m ~name:"a" ~elem:Safara_ir.Types.F64 ~length:8;
  Memory.alloc m ~name:"b" ~elem:Safara_ir.Types.F64 ~length:8;
  let v1 = Memory.view m and v2 = Memory.view m in
  let ba = Memory.base m "a" and bb = Memory.base m "b" in
  (* payloads are shared: a store through one view is visible in every
     other view and in the root *)
  Memory.store v1 ~addr:(ba + 16) (V.F 7.5);
  Alcotest.(check (float 0.)) "store via view visible in root" 7.5
    (V.to_float (Memory.load m ~addr:(ba + 16)));
  (* interleaved resolution through different arrays: each view keeps
     its own last-hit cursors, so alternation stays correct *)
  for i = 0 to 7 do
    Memory.store v1 ~addr:(ba + (8 * i)) (V.F (float_of_int i));
    Memory.store v2 ~addr:(bb + (8 * i)) (V.F (float_of_int (10 * i)))
  done;
  Alcotest.(check (float 0.)) "view 1 stream" 5.0
    (V.to_float (Memory.load v2 ~addr:(ba + 40)));
  Alcotest.(check (float 0.)) "view 2 stream" 50.0
    (V.to_float (Memory.load v1 ~addr:(bb + 40)))

(* --- undo journal ------------------------------------------------------ *)

let float_bits a = Array.map Int64.bits_of_float a

(* a float array with a NaN payload and a negative zero, an int array;
   every write path inside [with_undo], all undone bit for bit *)
let undo_fixture () =
  let m = Memory.create () in
  Memory.alloc m ~name:"f" ~elem:Safara_ir.Types.F64 ~length:6;
  Memory.alloc m ~name:"i" ~elem:Safara_ir.Types.I32 ~length:6;
  let f = Memory.float_data m "f" and i = Memory.int_data m "i" in
  f.(0) <- Int64.float_of_bits 0x7ff8_0000_dead_beefL;
  f.(1) <- -0.0;
  f.(2) <- 1.5;
  f.(3) <- Float.infinity;
  Array.iteri (fun k _ -> i.(k) <- (k * 7) - 3) i;
  (m, float_bits f, Array.copy i)

let check_restored m fbits ints =
  Alcotest.(check (array int64)) "float cells bit-identical" fbits
    (float_bits (Memory.float_data m "f"));
  Alcotest.(check (array int)) "int cells identical" ints
    (Memory.int_data m "i")

let write_everything m =
  let bf = Memory.base m "f" and bi = Memory.base m "i" in
  let v = Memory.view m in
  Memory.store m ~addr:bf (V.F 2.0);
  Memory.store m ~addr:(bf + 8) (V.F 0.0);
  Memory.store v ~addr:(bf + 16) (V.F (-7.25));
  let sf = Memory.find_slot m ~near:(-1) ~addr:bf and si = Memory.find_slot m ~near:(-1) ~addr:bi in
  (* enough writes to grow the journal's buffers several times *)
  for k = 1 to 300 do
    Memory.store_int_slot m ~slot:si ~addr:(bi + (4 * (4 + (k mod 2)))) k
  done;
  (* the same cell twice: the older value must win the rollback *)
  Memory.store_float_slot m ~slot:sf ~addr:(bf + 24) 3.0;
  Memory.store_float_slot v ~slot:sf ~addr:(bf + 24) 4.0;
  Memory.store_int_slot m ~slot:sf ~addr:(bf + 32) 9;
  Memory.store_int_slot v ~slot:si ~addr:bi 100;
  Memory.store_float_slot m ~slot:si ~addr:(bi + 4) 6.0;
  Memory.rmw m ~addr:(bi + 8) (fun old -> V.I (V.to_int old + 1000));
  Memory.rmw v ~addr:(bf + 40) (fun old -> V.F (V.to_float old +. 1.0));
  Memory.store v ~addr:(bi + 20) (V.I (-1))

let test_undo_restores () =
  let m, fbits, ints = undo_fixture () in
  let seen =
    Memory.with_undo m (fun () ->
        Alcotest.(check bool) "journal active" true (Memory.undo_active m);
        write_everything m;
        (Array.copy (Memory.float_data m "f"), Array.copy (Memory.int_data m "i")))
  in
  (* the writes did land while the journal ran *)
  let f, i = seen in
  Alcotest.(check (float 0.)) "float written" 4.0 f.(3);
  Alcotest.(check int) "rmw written" (ints.(2) + 1000) i.(2);
  Alcotest.(check int) "float store into int cell" 6 i.(1);
  Alcotest.(check bool) "journal closed" false (Memory.undo_active m);
  check_restored m fbits ints;
  (* the journal's buffers are reused: a second round undoes too *)
  ignore (Memory.with_undo m (fun () -> write_everything m));
  check_restored m fbits ints

let test_undo_on_raise () =
  let m, fbits, ints = undo_fixture () in
  (match
     Memory.with_undo m (fun () ->
         write_everything m;
         failwith "boom")
   with
  | () -> Alcotest.fail "the exception was swallowed"
  | exception Failure msg -> Alcotest.(check string) "re-raised" "boom" msg);
  Alcotest.(check bool) "journal closed" false (Memory.undo_active m);
  check_restored m fbits ints

let test_undo_rejects_nesting () =
  let m, fbits, ints = undo_fixture () in
  let nested =
    Memory.with_undo m (fun () ->
        write_everything m;
        match Memory.with_undo (Memory.view m) (fun () -> ()) with
        | () -> false
        | exception Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "nested journal rejected" true nested;
  check_restored m fbits ints

(* a block-parallel launch under a journal would write the store from
   several domains at once: refused, and memory is still restored *)
let test_undo_refuses_fanout () =
  let prog, kernels = compile_pipeline saxpy_src in
  let k = fst (List.hd kernels) in
  let n = 1000 in
  let mem = Memory.create () in
  Memory.alloc_program mem ~env:[ ("n", n) ] prog;
  let x = Memory.float_data mem "x" in
  Array.iteri (fun i _ -> x.(i) <- float_of_int i) x;
  let before = float_bits (Memory.float_data mem "y") in
  let env = { Interp.scalars = [ ("n", V.I n) ]; mem } in
  let grid = Launch.grid_of ~env:env.Interp.scalars k in
  let saved_t = !Interp.parallel_threshold
  and saved_c = !Interp.parallel_min_chunk_ops in
  Interp.parallel_threshold := 0;
  Interp.parallel_min_chunk_ops := 1;
  let refused =
    Fun.protect
      ~finally:(fun () ->
        Interp.parallel_threshold := saved_t;
        Interp.parallel_min_chunk_ops := saved_c)
      (fun () ->
        with_pool 4 (fun pool ->
            Decode.with_engine Decode.Threaded (fun () ->
                match
                  Memory.with_undo mem (fun () ->
                      Interp.run_kernel ~pool ~prog ~env ~grid k)
                with
                | () -> false
                | exception Invalid_argument _ -> true)))
  in
  Alcotest.(check bool) "fan-out under a journal rejected" true refused;
  Alcotest.(check (array int64)) "y untouched" before
    (float_bits (Memory.float_data mem "y"))

(* [Compiler.time] runs each kernel on the caller's env and must hand
   it back bit-identical, under both engines; timing it again then
   gives the same result *)
let test_time_restores_env () =
  List.iter
    (fun (w : Safara_suites.Workload.t) ->
      let w = Suite_workloads.shrink w in
      let id = w.Safara_suites.Workload.id in
      let c =
        Safara_core.Compiler.compile_src Safara_core.Compiler.Full
          w.Safara_suites.Workload.source
      in
      let env = Safara_suites.Workload.prepare c w in
      let snapshot () =
        List.map
          (fun (a : Safara_ir.Array_info.t) ->
            let name = a.Safara_ir.Array_info.name in
            if Safara_ir.Types.is_float a.Safara_ir.Array_info.elem then
              float_bits (Memory.float_data env.Interp.mem name)
            else Array.map Int64.of_int (Memory.int_data env.Interp.mem name))
          c.Safara_core.Compiler.c_prog.Safara_ir.Program.arrays
      in
      let before = snapshot () in
      List.iter
        (fun e ->
          Decode.with_engine e (fun () ->
              let t1 = Safara_core.Compiler.time c env in
              Alcotest.(check (list (array int64)))
                (Printf.sprintf "%s: env restored (%s)" id
                   (Decode.engine_name e))
                before (snapshot ());
              let t2 = Safara_core.Compiler.time c env in
              Alcotest.(check bool)
                (Printf.sprintf "%s: timing repeats (%s)" id
                   (Decode.engine_name e))
                true
                (compare t1 t2 = 0)))
        [ Decode.Reference; Decode.Threaded ])
    Safara_suites.Registry.all

(* --- page-lazy memory ---------------------------------------------- *)

(* The serial fills [Workload.prepare] used before its pages were
   produced lazily: the oracle of the page filler's jump-ahead. *)
let serial_lcg_float seed n =
  let state = ref (seed land 0x3fffffff) in
  Array.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3fffffff;
      0.5 +. (float_of_int !state *. 0x1p-30))

let serial_lcg_int seed ~bound n =
  let state = ref ((seed * 31) land 0x3fffffff) in
  Array.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3fffffff;
      !state mod bound)

(* 3000 cells: five full pages and a partial sixth of 440 *)
let lazy_n = 3000

let lazy_workload =
  Safara_suites.Workload.make ~id:"lazy" ~title:"lazy" ~description:""
    ~suite:Safara_suites.Workload.Spec ~scalars:[ ("n", V.I lazy_n) ] ~seed:7
    {|
param int n;
in double x[n];
in int k[n];
double y[n];
#pragma acc kernels name(gather)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    y[i] = x[k[i]];
  }
}
|}

let lazy_prepare () =
  let c =
    Safara_core.Compiler.compile_src Safara_core.Compiler.Base
      lazy_workload.Safara_suites.Workload.source
  in
  (c, (Safara_suites.Workload.prepare c lazy_workload).Interp.mem)

(* the arrays in program order: seeds step by 977, and the int
   array's values stay below min(1024, n) *)
let lazy_oracle () =
  ( float_bits (serial_lcg_float 7 lazy_n),
    serial_lcg_int (7 + 977) ~bound:1024 lazy_n,
    float_bits (serial_lcg_float (7 + 1954) lazy_n) )

let lazy_contents m =
  ( float_bits (Memory.float_data m "x"),
    Memory.int_data m "k",
    float_bits (Memory.float_data m "y") )

let test_lazy_fill_matches_serial () =
  let _, m = lazy_prepare () in
  let ox, ok, _ = lazy_oracle () in
  Alcotest.(check int) "nothing filled yet" 0 (Memory.cells_filled m);
  let bx = Memory.base m "x" and bk = Memory.base m "k" in
  List.iter
    (fun i ->
      Alcotest.(check int64)
        (Printf.sprintf "x[%d]" i) ox.(i)
        (Int64.bits_of_float (V.to_float (Memory.load m ~addr:(bx + (8 * i)))));
      Alcotest.(check int)
        (Printf.sprintf "k[%d]" i) ok.(i)
        (V.to_int (Memory.load m ~addr:(bk + (4 * i)))))
    [ 0; 511; 512; lazy_n - 1 ];
  (* pages 0, 1 and the partial last one, of x and of k *)
  Alcotest.(check int) "only the touched pages filled"
    (2 * (512 + 512 + 440))
    (Memory.cells_filled m);
  Alcotest.(check int) "cells reserved" (3 * lazy_n) (Memory.cells m);
  (* forcing produces the untouched pages 2-4 in one run, and y whole *)
  Alcotest.(check bool) "every cell equals the serial loop" true
    (lazy_contents m = lazy_oracle ());
  Alcotest.(check int) "forced" (3 * lazy_n) (Memory.cells_filled m)

let raises_wild f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg ->
      let sub = "wild address" in
      let n = String.length sub in
      let rec at i =
        i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1))
      in
      at 0

let test_lazy_padding_wild () =
  let m = Memory.create () in
  let fill lo hi = Memory.F (Array.make (hi - lo) 1.0) in
  (* 513 doubles: a full page, a one-cell page, then 248 bytes of
     padding up to the next 256-byte boundary *)
  Memory.alloc m ~fill ~name:"a" ~elem:Safara_ir.Types.F64 ~length:513;
  Memory.alloc m ~fill ~name:"b" ~elem:Safara_ir.Types.F64 ~length:3;
  let ba = Memory.base m "a" and bb = Memory.base m "b" in
  Alcotest.(check int) "b after the padding" (ba + 4352) bb;
  List.iter
    (fun addr ->
      Alcotest.(check bool)
        (Printf.sprintf "a+%d is wild" (addr - ba))
        true
        (raises_wild (fun () -> Memory.load m ~addr)))
    [ ba + 4104; ba + 4351; bb + 24; ba - 8 ];
  Alcotest.(check bool) "a slot lookup in the padding is wild" true
    (raises_wild (fun () -> Memory.find_slot m ~near:(-1) ~addr:(ba + 4200)));
  Alcotest.(check int) "a wild address fills no page" 0 (Memory.cells_filled m);
  Alcotest.(check (float 0.)) "last cell resolves" 1.0
    (V.to_float (Memory.load m ~addr:(ba + (512 * 8))))

let test_lazy_near_hint () =
  let _, m = lazy_prepare () in
  let ox, ok, _ = lazy_oracle () in
  let bx = Memory.base m "x" and bk = Memory.base m "k" in
  let s0 = Memory.find_slot m ~near:(-1) ~addr:bx in
  (* x's page 3 from page 0's cursor, without a search *)
  let a3 = bx + (8 * 1600) in
  let s3 = Memory.find_slot m ~near:s0 ~addr:a3 in
  Alcotest.(check int) "same slot as a search" (Memory.find_slot m ~near:(-1) ~addr:a3) s3;
  Alcotest.(check int64) "x[1600]" ox.(1600)
    (Int64.bits_of_float (Memory.load_float_slot m ~slot:s3 ~addr:a3));
  Alcotest.(check int) "x's pages 0 and 3 filled" 1024 (Memory.cells_filled m);
  (* an address in another array, or a hint that is no slot, searches *)
  List.iter
    (fun near ->
      let s = Memory.find_slot m ~near ~addr:(bk + (4 * 2999)) in
      Alcotest.(check int) "k[2999]" ok.(2999) (Memory.load_int_slot m ~slot:s ~addr:(bk + (4 * 2999))))
    [ s0; s3; -1; 1_000_000 ];
  Alcotest.(check bool) "x's padding is wild from x's cursor" true
    (raises_wild (fun () -> Memory.find_slot m ~near:s3 ~addr:(bx + (8 * lazy_n))));
  (* slots are renumbered by force: an old cursor is only a hint *)
  Memory.force m;
  List.iter
    (fun near ->
      let s = Memory.find_slot m ~near ~addr:a3 in
      Alcotest.(check int64) "x[1600] forced" ox.(1600)
        (Int64.bits_of_float (Memory.load_float_slot m ~slot:s ~addr:a3)))
    [ s0; s3; 2; -1 ]

let test_lazy_journal_restores_pristine () =
  let _, m = lazy_prepare () in
  let bx = Memory.base m "x" and bk = Memory.base m "k"
  and by = Memory.base m "y" in
  Memory.with_undo m (fun () ->
      (* every write lands in a page nothing has touched *)
      Memory.store m ~addr:(bx + (8 * 2000)) (V.F (-1.0));
      let s = Memory.find_slot m ~near:(-1) ~addr:(bx + (8 * 2600)) in
      Memory.store_float_slot m ~slot:s ~addr:(bx + (8 * 2600)) 42.0;
      Memory.rmw m ~addr:(bk + (4 * 2999)) (fun v -> V.I (V.to_int v + 5));
      let v = Memory.view m in
      let s = Memory.find_slot v ~near:(-1) ~addr:(by + 8) in
      Memory.store_int_slot v ~slot:s ~addr:(by + 8) 7);
  (* x's pages 3 and 5, k's page 5 and y's page 0 *)
  Alcotest.(check int) "the journaled pages stay filled"
    (512 + 440 + 440 + 512)
    (Memory.cells_filled m);
  let _, fresh = lazy_prepare () in
  Alcotest.(check bool) "copy equals a fresh prepare" true
    (lazy_contents (Memory.copy m) = lazy_contents fresh)

let test_lazy_copy_fills_by_force () =
  let m = Memory.create () in
  let calls = ref [] in
  let fill name lo hi =
    calls := (name, lo, hi) :: !calls;
    Memory.F (Array.init (hi - lo) (fun i -> float_of_int (lo + i)))
  in
  Memory.alloc m ~fill:(fill "p") ~name:"p" ~elem:Safara_ir.Types.F64
    ~length:2000;
  Memory.alloc m ~fill:(fill "q") ~name:"q" ~elem:Safara_ir.Types.F32
    ~length:700;
  let bp = Memory.base m "p" in
  Memory.store m ~addr:(bp + (8 * 600)) (V.F (-3.0));
  let log () = List.rev !calls in
  Alcotest.(check (list (triple string int int)))
    "one page filled" [ ("p", 512, 1024) ] (log ());
  let c = Memory.copy m in
  (* the touched page is copied, each untouched run produced once *)
  Alcotest.(check (list (triple string int int)))
    "copy forced the source"
    [ ("p", 512, 1024); ("p", 0, 512); ("p", 1024, 2000); ("q", 0, 700) ]
    (log ());
  Alcotest.(check int) "source forced" (Memory.cells m) (Memory.cells_filled m);
  ignore (Memory.copy m);
  Alcotest.(check int) "a second copy fills nothing" 4 (List.length (log ()));
  let want = Array.init 2000 float_of_int in
  want.(600) <- -3.0;
  Alcotest.(check (array (float 0.))) "copy holds the written page" want
    (Memory.float_data c "p");
  Alcotest.(check (array (float 0.))) "source unchanged" want
    (Memory.float_data m "p")

(* a functional run produces whole arrays before any block runs, so
   block-parallel chunks never fill a page *)
let test_lazy_functional_forces () =
  let c, m = lazy_prepare () in
  let env = { Interp.scalars = lazy_workload.Safara_suites.Workload.scalars; mem = m } in
  with_pool 2 (fun pool -> Safara_core.Compiler.run_functional ~pool c env);
  Alcotest.(check int) "every cell produced" (Memory.cells m)
    (Memory.cells_filled m);
  let ox, ok, _ = lazy_oracle () in
  let y = float_bits (Memory.float_data m "y") in
  Alcotest.(check bool) "y[i] = x[k[i]]" true
    (Array.for_all2 (fun yi ki -> yi = ox.(ki)) y ok)

(* timing reads the same cells whether the image is lazy or whole *)
let test_lazy_timing_identical () =
  List.iter
    (fun id ->
      let w = Safara_suites.Registry.find id in
      let c =
        Safara_core.Compiler.compile_src Safara_core.Compiler.Full
          w.Safara_suites.Workload.source
      in
      let lazy_env = Safara_suites.Workload.prepare c w in
      let forced = Safara_suites.Workload.prepare c w in
      Memory.force forced.Interp.mem;
      let t_lazy = Safara_core.Compiler.time c lazy_env in
      let t_forced = Safara_core.Compiler.time c forced in
      Alcotest.(check bool) (id ^ ": same program_time") true
        (compare t_lazy t_forced = 0);
      let m = lazy_env.Interp.mem in
      Alcotest.(check bool) (id ^ ": lazy image partly filled") true
        (Memory.cells_filled m > 0 && Memory.cells_filled m < Memory.cells m))
    [ "303.ostencil"; "354.cg"; "370.bt"; "SP" ]

let suite =
  [
    Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
    Alcotest.test_case "memory wild address" `Quick test_memory_wild_address;
    Alcotest.test_case "memory copy isolation" `Quick test_memory_copy_isolated;
    Alcotest.test_case "interp saxpy" `Quick test_interp_saxpy;
    Alcotest.test_case "interp multi-kernel" `Quick test_interp_multi_kernel;
    Alcotest.test_case "interp reduction" `Quick test_interp_reduction;
    Alcotest.test_case "interp guard boundary" `Quick test_interp_guard_boundary;
    Alcotest.test_case "grid geometry" `Quick test_grid_geometry;
    Alcotest.test_case "launch eval_int" `Quick test_eval_int;
    Alcotest.test_case "occupancy hides latency" `Quick test_occupancy_hides_latency;
    Alcotest.test_case "uncoalesced slower" `Quick test_uncoalesced_slower;
    Alcotest.test_case "waves scale with grid" `Quick test_timing_counts_waves;
    Alcotest.test_case "fewer memory ops faster" `Quick test_fewer_memops_faster;
    Alcotest.test_case "decode: unknown label is SAF021" `Quick
      test_decode_unknown_label;
    Alcotest.test_case "memory: many allocations resolve" `Quick
      test_memory_many_allocs;
    Alcotest.test_case "memory: padding gaps rejected" `Quick
      test_memory_gap_rejected;
    Alcotest.test_case "memory: duplicate name rejected" `Quick
      test_memory_duplicate_name;
    Alcotest.test_case "memory: alternating arrays" `Quick
      test_memory_alternating_arrays;
    Alcotest.test_case "memory: views share store, not cursors" `Quick
      test_memory_view_cursors;
    Alcotest.test_case "lazy: pages equal the serial fill" `Quick
      test_lazy_fill_matches_serial;
    Alcotest.test_case "lazy: padding after an array is wild" `Quick
      test_lazy_padding_wild;
    Alcotest.test_case "lazy: a cursor's array resolves its next page" `Quick
      test_lazy_near_hint;
    Alcotest.test_case "lazy: journaled writes to new pages undone" `Quick
      test_lazy_journal_restores_pristine;
    Alcotest.test_case "lazy: copy fills only through force" `Quick
      test_lazy_copy_fills_by_force;
    Alcotest.test_case "lazy: a functional run forces the memory" `Quick
      test_lazy_functional_forces;
    Alcotest.test_case "lazy: timing identical on a forced image" `Quick
      test_lazy_timing_identical;
    Alcotest.test_case "undo: every write path restored bit-exactly" `Quick
      test_undo_restores;
    Alcotest.test_case "undo: restored when the body raises" `Quick
      test_undo_on_raise;
    Alcotest.test_case "undo: nested journal rejected" `Quick
      test_undo_rejects_nesting;
    Alcotest.test_case "undo: parallel fan-out rejected" `Quick
      test_undo_refuses_fanout;
    Alcotest.test_case "undo: timing restores the caller's env" `Slow
      test_time_restores_env;
    Alcotest.test_case "blockpar: saxpy proves and runs parallel" `Quick
      test_blockpar_saxpy_parallel;
    Alcotest.test_case "blockpar: parallel run after a timing run" `Quick
      test_blockpar_after_timing;
    Alcotest.test_case "blockpar: cross-block recurrence refused" `Quick
      test_blockpar_refuses_cross_block;
    Alcotest.test_case "blockpar: reduction atomics fall back" `Quick
      test_blockpar_atomics_fall_back;
    Alcotest.test_case "blockpar: unmapped boundary write refused" `Quick
      test_blockpar_unmapped_write_refused;
    Alcotest.test_case "costmodel: small launch stays serial" `Quick
      test_costmodel_small_launch_serial;
    Alcotest.test_case "costmodel: zero threshold goes parallel" `Quick
      test_costmodel_zero_threshold_parallel;
    Alcotest.test_case "costmodel: estimate linear in grid" `Quick
      test_costmodel_estimate_scales;
    Alcotest.test_case "fusion: loop with dependent chain" `Quick
      test_fusion_loop_with_dependent_chain;
    Alcotest.test_case "fusion: branch into straight-line run" `Quick
      test_fusion_branch_into_straightline;
    Alcotest.test_case "fusion: unop chains specialize" `Quick
      test_fusion_unop_chain;
    Alcotest.test_case "fusion: addressing chain via source" `Quick
      test_fusion_addressing_chain_source;
  ]
  @ List.map
      (fun (w : Safara_suites.Workload.t) ->
        Alcotest.test_case
          (w.Safara_suites.Workload.id ^ " engines agree (Full)")
          `Slow
          (check_engines_agree Safara_core.Compiler.Full w))
      Safara_suites.Registry.all
  @ List.map
      (fun (w : Safara_suites.Workload.t) ->
        Alcotest.test_case
          (w.Safara_suites.Workload.id ^ " engines agree (Base)")
          `Slow
          (check_engines_agree Safara_core.Compiler.Base w))
      Safara_suites.Registry.all
  @ List.concat_map
      (fun (w : Safara_suites.Workload.t) ->
        [
          Alcotest.test_case
            (w.Safara_suites.Workload.id
           ^ " parallel ≡ serial (Full, threaded)")
            `Slow
            (check_parallel_agrees Safara_core.Compiler.Full w);
          Alcotest.test_case
            (w.Safara_suites.Workload.id
           ^ " parallel ≡ serial (Base, threaded)")
            `Slow
            (check_parallel_agrees Safara_core.Compiler.Base w);
        ])
      Safara_suites.Registry.all
