(* A region's kernel as the pipeline's codegen and peephole passes
   leave it, for suites that test one kernel without the rest of the
   tail. *)

let compile_region ~arch prog r =
  let k = Safara_vir.Codegen.compile_region ~arch prog r in
  { k with Safara_vir.Kernel.code = Safara_vir.Peephole.optimize k.Safara_vir.Kernel.code }

(* SAFARA's register feedback spelled out as codegen → peephole →
   assemble: the oracle the pipeline's feedback compile (the tail with
   its dataflow passes disabled) must agree with *)
let feedback ~arch prog r =
  let _, _, report =
    Safara_ptxas.Assemble.assemble ~arch (compile_region ~arch prog r)
  in
  report.Safara_ptxas.Assemble.regs_used
