(* The SAFARA feedback loop under a tight register budget — the
   paper's §III.B.4 running example: with only a handful of registers
   available, the cost model must pick the uncoalesced array b over
   the coalesced array a, and the loop iterates as the feedback
   reports the shrinking headroom.

   Run with: dune exec examples/feedback_loop.exe *)

let fig5 =
  {|
param int jsize;
param int isize;
double a[isize][jsize];
in double b[jsize][isize];
double c[jsize];
double d[jsize];
#pragma acc kernels name(fig5)
{
  #pragma acc loop gang vector(128)
  for (j = 1; j <= jsize - 2; j++) {
    c[j] = b[j][0] + b[j][1];
    d[j] = c[j] * b[j][0];
    #pragma acc loop seq
    for (i = 1; i <= isize - 2; i++) {
      a[i][j] = a[i-1][j] + b[j][i-1] + a[i+1][j] + b[j][i+1];
    }
  }
}
|}

let arch = Safara_gpu.Arch.kepler_k20xm
let latency = Safara_gpu.Latency.kepler

let show_rounds ~reg_cap =
  Printf.printf "\n=== register budget: %d per thread ===\n" reg_cap;
  let config =
    { (Safara_transform.Safara.default_config ~arch) with
      Safara_transform.Safara.reg_cap }
  in
  let prog = Safara_lang.Frontend.compile fig5 in
  let prog = Safara_analysis.Schedule.resolve_program prog in
  let region = List.hd prog.Safara_ir.Program.regions in
  (* what the analysis sees, ranked by the C × L cost model *)
  Printf.printf "candidates (cost = references x latency):\n";
  List.iter
    (fun cand -> Format.printf "  %a@." Safara_analysis.Reuse.pp_candidate cand)
    (Safara_analysis.Reuse.candidates ~arch ~latency prog region);
  (* each round's register count comes from the pipeline's feedback
     compile: codegen, peephole and the assembler *)
  let ctx = Safara_core.Pass.make_ctx ~arch ~latency in
  let feedback p r =
    (snd (Safara_core.Pipeline.feedback ctx p r)).Safara_ptxas.Assemble.regs_used
  in
  let _, rounds =
    Safara_transform.Safara.optimize_region ~config ~feedback ~arch ~latency
      prog region
  in
  Printf.printf "feedback rounds:\n";
  List.iter (fun r -> Format.printf "  %a@." Safara_transform.Safara.pp_round r) rounds

let () =
  print_endline "SAFARA feedback iterations on the paper's Fig-5 program";
  print_endline "--------------------------------------------------------";
  (* paper's running example supposes a ~30-register hardware limit and
     a first compile using 26: SAFARA has 4 registers to spend and must
     choose array b (uncoalesced) over a (coalesced) *)
  show_rounds ~reg_cap:30;
  (* with the real Kepler cap everything fits and several rounds run *)
  show_rounds ~reg_cap:arch.Safara_gpu.Arch.max_registers_per_thread
