module Reuse = Safara_analysis.Reuse

let log_src = Logs.Src.create "safara" ~doc:"SAFARA feedback-loop tracing"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  reg_cap : int;
  policy : Reuse.policy;
  cost_model : [ `Latency_times_count | `Count_only ];
  use_feedback : bool;
  max_rounds : int;
  assumed_free_regs : int;
}

let default_config ~arch =
  {
    reg_cap = arch.Safara_gpu.Arch.max_registers_per_thread;
    policy = Reuse.default_policy;
    cost_model = `Latency_times_count;
    use_feedback = true;
    max_rounds = 8;
    assumed_free_regs = 16;
  }

type round = {
  round_index : int;
  regs_before : int;
  available : int;
  applied : Reuse.candidate list;
  skipped : int;
}

let rank config cands =
  match config.cost_model with
  | `Latency_times_count -> cands (* Reuse already sorts by C × L *)
  | `Count_only ->
      List.stable_sort
        (fun (a : Reuse.candidate) b ->
          compare
            (b.Reuse.c_reads + b.Reuse.c_writes)
            (a.Reuse.c_reads + a.Reuse.c_writes))
        cands

(* greedy selection under the register budget *)
let select budget cands =
  let rec go avail acc skipped = function
    | [] -> (List.rev acc, skipped)
    | (c : Reuse.candidate) :: rest ->
        if c.Reuse.c_regs_needed <= avail then
          go (avail - c.Reuse.c_regs_needed) (c :: acc) skipped rest
        else go avail acc (skipped + 1) rest
  in
  go budget [] 0 cands

(* A round ranks its candidates first and asks for feedback only when
   there is something to choose: a region with no candidates left ends
   the loop without a compile. *)
let optimize_region ?config ~feedback ?candidates ~arch ~latency prog region =
  let config = Option.value config ~default:(default_config ~arch) in
  let candidates =
    Option.value candidates ~default:(fun policy prog region ->
        Reuse.candidates ~policy ~arch ~latency prog region)
  in
  let rec loop region rounds round_index =
    let stop () = (region, List.rev rounds) in
    if round_index > config.max_rounds then stop ()
    else
      match rank config (candidates config.policy prog region) with
      | [] -> stop ()
      | cands ->
          let used = if config.use_feedback then feedback prog region else 0 in
          let available =
            if config.use_feedback then config.reg_cap - used
            else config.assumed_free_regs
          in
          if available <= 0 then stop ()
          else
            let applied, skipped = select available cands in
            if applied = [] then stop ()
            else
              let region' = Scalar_replacement.apply region applied in
              let r =
                { round_index; regs_before = used; available; applied; skipped }
              in
              Log.debug (fun m ->
                  m "%s: %a" region.Safara_ir.Region.rname
                    (fun ppf r ->
                      Format.fprintf ppf "round %d regs=%d available=%d applied=%d skipped=%d"
                        r.round_index r.regs_before r.available (List.length r.applied)
                        r.skipped)
                    r);
              if config.use_feedback then
                loop region' (r :: rounds) (round_index + 1)
              else (region', List.rev (r :: rounds))
  in
  loop region [] 1

let optimize_program ?config ~feedback ?candidates ~arch ~latency prog =
  Scalar_replacement.reset_fresh ();
  let logs = ref [] in
  let regions =
    List.map
      (fun r ->
        let r', rounds =
          optimize_region ?config ~feedback ?candidates ~arch ~latency prog r
        in
        logs := (r.Safara_ir.Region.rname, rounds) :: !logs;
        r')
      prog.Safara_ir.Program.regions
  in
  ({ prog with Safara_ir.Program.regions = regions }, List.rev !logs)

let pp_round ppf r =
  Format.fprintf ppf "round %d: regs=%d available=%d applied=[%s] skipped=%d"
    r.round_index r.regs_before r.available
    (String.concat "; "
       (List.map
          (fun (c : Reuse.candidate) ->
            Printf.sprintf "%s/%s cost=%d" c.Reuse.c_array
              (Reuse.kind_to_string c.Reuse.c_kind)
              c.Reuse.c_cost)
          r.applied))
    r.skipped
