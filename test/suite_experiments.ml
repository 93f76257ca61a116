(* Regression tests for the experiment harness itself: the table
   generators must keep producing the paper's structure (row counts,
   NA positions, orderings). These use the compile-only experiments;
   the timed figures are pinned by experiments.golden. *)

open Safara_suites

let test_table1_structure () =
  let rows = Experiments.table1 () in
  Alcotest.(check int) "seven hot kernels" 7 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Experiments.rr_kernel ^ " small saves") true
        (r.Experiments.rr_small < r.Experiments.rr_base);
      (match r.Experiments.rr_dim with
      | Some d ->
          Alcotest.(check bool) (r.Experiments.rr_kernel ^ " dim saves more") true
            (d < r.Experiments.rr_small)
      | None -> Alcotest.fail "table I has no NA rows");
      Alcotest.(check bool) (r.Experiments.rr_kernel ^ " saved positive") true
        (r.Experiments.rr_saved > 0))
    rows;
  (* HOT1 is the largest kernel, as in the paper *)
  (match rows with
  | first :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "HOT1 is the register maximum" true
            (r.Experiments.rr_base <= first.Experiments.rr_base))
        rest
  | [] -> Alcotest.fail "empty table");
  (* magnitudes in the paper's neighbourhood *)
  let hot1 = List.hd rows in
  Alcotest.(check bool) "HOT1 base near the paper's 128" true
    (hot1.Experiments.rr_base >= 100 && hot1.Experiments.rr_base <= 200)

let test_table2_structure () =
  let rows = Experiments.table2 () in
  Alcotest.(check int) "ten hot kernels" 10 (List.length rows);
  let na =
    List.filteri (fun _ r -> r.Experiments.rr_dim = None) rows
    |> List.map (fun r -> r.Experiments.rr_kernel)
  in
  Alcotest.(check (list string)) "NA rows as in the paper"
    [ "HOT1"; "HOT3"; "HOT6"; "HOT10" ] na;
  let hot6 = List.nth rows 5 in
  Alcotest.(check int) "HOT6 small saves nothing" hot6.Experiments.rr_base
    hot6.Experiments.rr_small;
  let hot8 = List.nth rows 7 in
  List.iteri
    (fun i r ->
      if i <> 7 then
        Alcotest.(check bool) "HOT8 is the monster" true
          (r.Experiments.rr_base <= hot8.Experiments.rr_base))
    rows

let test_offsets_structure () =
  let rows = Experiments.offsets () in
  Alcotest.(check int) "four configurations" 4 (List.length rows);
  match rows with
  | [ base; small; dim; both ] ->
      (* the paper's 15-scalar story: 3 vz arrays x 5 + value_dz's 5 *)
      Alcotest.(check int) "base loads 4 descriptors" 20 base.Experiments.od_dope_loads;
      Alcotest.(check int) "small does not change descriptor count" 20
        small.Experiments.od_dope_loads;
      Alcotest.(check int) "dim shares one descriptor" 5 dim.Experiments.od_dope_loads;
      Alcotest.(check int) "dim+small too" 5 both.Experiments.od_dope_loads;
      Alcotest.(check bool) "registers fall monotonically to both" true
        (both.Experiments.od_regs < base.Experiments.od_regs
        && dim.Experiments.od_regs < base.Experiments.od_regs
        && small.Experiments.od_regs < base.Experiments.od_regs)
  | _ -> Alcotest.fail "unexpected structure"

let test_average_is_geomean () =
  let rows =
    [ { Experiments.sr_id = "a"; sr_values = [ ("x", 1.0) ] };
      { Experiments.sr_id = "b"; sr_values = [ ("x", 4.0) ] } ]
  in
  let avg = Experiments.average rows in
  Alcotest.(check (float 1e-9)) "geomean(1,4) = 2" 2.0
    (List.assoc "x" avg.Experiments.sr_values)

(* every table [bench all] prints, byte for byte (the bechamel
   microbenchmarks it prints after them are real timings and stay
   out); regenerate like the other goldens in suite_pipeline.ml *)
let test_experiments_golden () =
  let eng = Eval.create ~jobs:2 () in
  let got =
    Fun.protect
      ~finally:(fun () -> Eval.shutdown eng)
      (fun () -> Experiments.report ~eng ~arch:Safara_gpu.Arch.default)
  in
  Suite_pipeline.check_golden "experiments.golden" "evaluation tables" got

let suite =
  [
    Alcotest.test_case "table I structure" `Quick test_table1_structure;
    Alcotest.test_case "table II structure" `Quick test_table2_structure;
    Alcotest.test_case "offsets structure" `Quick test_offsets_structure;
    Alcotest.test_case "average is geometric" `Quick test_average_is_geomean;
    Alcotest.test_case "golden evaluation tables" `Slow test_experiments_golden;
  ]
