module K = Safara_vir.Kernel
module I = Safara_vir.Instr
module P = Safara_ir.Program
module R = Safara_ir.Region
module Dep = Safara_analysis.Dependence
module Legality = Safara_analysis.Legality
module Diag = Safara_diag.Diagnostic

type reason =
  | No_region
  | Atomics of int
  | No_parallel_axis
  | Unproven_write of string
  | Blocking_dep of string
  | Below_threshold of { est_ops : int; threshold : int }

type verdict = Block_parallel | Serial of reason

let reason_message = function
  | No_region -> "no source region with this kernel's name"
  | Atomics n ->
      Printf.sprintf "%d atomic operation%s (reductions serialize)" n
        (if n = 1 then "" else "s")
  | No_parallel_axis -> "no loop is mapped onto the grid"
  | Unproven_write w ->
      Printf.sprintf "write %s is not provably pinned to one block" w
  | Blocking_dep d ->
      Printf.sprintf "dependence %s may cross thread-blocks" d
  | Below_threshold { est_ops; threshold } ->
      Printf.sprintf
        "estimated work (%d ops) is below the parallel threshold (%d)" est_ops
        threshold

(* A kernel may run its thread-blocks concurrently iff every axis the
   codegen mapped onto the grid provably partitions the kernel's store
   footprint: each block then reads what it likes but writes only its
   own slice, so any interleaving of blocks leaves memory — and the
   summed counters — bit-identical to the sequential walk. *)
let analyze ~(prog : P.t) (k : K.t) : verdict =
  let atomics = K.count_instr k ~f:(function I.Atom _ -> true | _ -> false) in
  if atomics > 0 then Serial (Atomics atomics)
  else if k.K.axes = [] then Serial No_parallel_axis
  else
    match
      List.find_opt
        (fun (r : R.t) -> String.equal r.R.rname k.K.kname)
        prog.P.regions
    with
    | None -> Serial No_region
    | Some r -> (
        let axes = List.map (fun (m : K.axis_map) -> m.K.ax_index) k.K.axes in
        match Legality.blocks (Legality.analyze r.R.body) ~axes with
        | Legality.Disjoint -> Block_parallel
        | Legality.Unproven_write a -> Serial (Unproven_write (Dep.ref_name a))
        | Legality.Blocking_dep d ->
            Serial
              (Blocking_dep
                 (Printf.sprintf "%s -> %s" (Dep.ref_name d.Dep.d_src)
                    (Dep.ref_name d.Dep.d_dst))))

let diagnostic k reason =
  Diag.make ~code:"SAF034"
    ~where:(Printf.sprintf "kernel %s" k.K.kname)
    Diag.Note
    (Printf.sprintf
       "kernel is not provably block-parallel (%s); the simulator runs its \
        thread-blocks sequentially"
       (reason_message reason))
