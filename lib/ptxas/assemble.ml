module I = Safara_vir.Instr
module Facts = Safara_vir.Facts

type report = {
  kernel_name : string;
  regs_used : int;
  pred_regs : int;
  spill_bytes : int;
  spill_loads : int;
  spill_stores : int;
  instructions : int;
}

let count_spill_ops code =
  Array.fold_left
    (fun (ld, st) i ->
      match i with
      | I.Ld { note = "spill"; _ } -> (ld + 1, st)
      | I.St { note = "spill"; _ } -> (ld, st + 1)
      | _ -> (ld, st))
    (0, 0) code

let assemble ?max_regs ?facts ~arch (k : Safara_vir.Kernel.t) =
  let cap =
    Option.value max_regs ~default:arch.Safara_gpu.Arch.max_registers_per_thread
  in
  let rec go facts spill_bytes round =
    if round > 16 then failwith "ptxas: spilling did not converge";
    let res = Linear_scan.allocate ~max_regs:cap facts in
    match res.Linear_scan.spilled with
    | [] -> (facts, res, spill_bytes)
    | spilled ->
        let code', bytes = Spill.rewrite ~slot_base:spill_bytes spilled facts in
        go (Facts.make code') (spill_bytes + bytes) (round + 1)
  in
  let facts =
    match facts with
    | Some f -> f
    | None -> Facts.make k.Safara_vir.Kernel.code
  in
  let facts, res, spill_bytes = go facts 0 0 in
  let code = Facts.code facts in
  let spill_loads, spill_stores = count_spill_ops code in
  (* without spills the kernel is handed on as it is *)
  let k' =
    if code == k.Safara_vir.Kernel.code then k
    else { k with Safara_vir.Kernel.code }
  in
  ( k',
    facts,
    {
      kernel_name = k.Safara_vir.Kernel.kname;
      regs_used = res.Linear_scan.regs_used;
      pred_regs = res.Linear_scan.pred_used;
      spill_bytes;
      spill_loads;
      spill_stores;
      instructions = Array.length code;
    } )

let report_line r =
  String.concat ""
    [ "ptxas info: "; r.kernel_name; ": "; string_of_int r.regs_used;
      " registers, "; string_of_int r.pred_regs; " predicates, ";
      string_of_int r.spill_bytes; " bytes spill (";
      string_of_int r.spill_loads; " loads, "; string_of_int r.spill_stores;
      " stores), ";
      string_of_int r.instructions; " instructions" ]

let pp_report ppf r = Format.pp_print_string ppf (report_line r)
