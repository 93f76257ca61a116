(* Regression tests for the experiment harness itself: the table
   generators must keep producing the paper's structure (row counts,
   NA positions, orderings), the text and JSON renderings must agree
   with the value they render, and EXPERIMENTS.md must quote the
   golden verbatim. Every test here and in suite_shapes.ml reads the
   one evaluation below. *)

open Safara_suites
module Sjson = Safara_json.Sjson

(* the paper evaluation [bench all] prints, evaluated once per test
   run *)
let evaluation =
  lazy
    (let eng = Eval.create ~jobs:2 () in
     Fun.protect
       ~finally:(fun () -> Eval.shutdown eng)
       (fun () -> Experiments.evaluate ~eng ~arch:Safara_gpu.Arch.default))

let test_table1_structure () =
  let rows = (Lazy.force evaluation).Experiments.table1 in
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
  let rows = (Lazy.force evaluation).Experiments.table2 in
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
  let rows = (Lazy.force evaluation).Experiments.offsets in
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

(* every table [bench all] prints, byte for byte; regenerate like the
   other goldens in suite_pipeline.ml *)
let test_experiments_golden () =
  Suite_pipeline.check_golden "experiments.golden" "evaluation tables"
    (Experiments.to_text (Lazy.force evaluation))

(* a renderer that drops or reorders a field shows up as a cell that
   no longer matches the value *)
let test_json_agrees () =
  let v = Lazy.force evaluation in
  let json = Sjson.parse (Sjson.to_string (Experiments.to_json v)) in
  let rows key expected =
    let got = Sjson.to_list (Sjson.member key json) in
    Alcotest.(check int) (key ^ " rows") (List.length expected) (List.length got);
    List.combine expected got
  in
  let int_opt what expected o =
    match expected with
    | Some d -> Alcotest.(check int) what d (Sjson.to_int (Sjson.member what o))
    | None ->
        Alcotest.(check bool) (what ^ " is null") true (Sjson.member what o = Sjson.Null)
  in
  List.iter
    (fun key ->
      let table =
        if key = "table1" then v.Experiments.table1 else v.Experiments.table2
      in
      List.iter
        (fun ((r : Experiments.reg_row), o) ->
          let int what = Sjson.to_int (Sjson.member what o) in
          Alcotest.(check string) "kernel" r.rr_kernel
            (Sjson.to_str (Sjson.member "kernel" o));
          Alcotest.(check int) "base" r.rr_base (int "base");
          Alcotest.(check int) "small" r.rr_small (int "small");
          int_opt "dim" r.rr_dim o;
          Alcotest.(check int) "saved" r.rr_saved (int "saved");
          int_opt "dim_default_pipeline" r.rr_dim_default o)
        (rows key table))
    [ "table1"; "table2" ];
  List.iter
    (fun ((r : Experiments.speedup_row), o) ->
      Alcotest.(check string) "fig7 id" r.sr_id (Sjson.to_str (Sjson.member "id" o));
      match Sjson.member "values" o with
      | Sjson.Obj values ->
          Alcotest.(check (list (pair string (float 0.))))
            (r.sr_id ^ " fig7 values") r.sr_values
            (List.map (fun (k, n) -> (k, Sjson.to_float n)) values)
      | _ -> Alcotest.fail "fig7 values is not an object")
    (rows "fig7" v.Experiments.fig7)

(* EXPERIMENTS.md quotes measured numbers only inside ```text blocks,
   each a contiguous run of whole lines of experiments.golden *)
let read_lines path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' s

let text_blocks lines =
  let rec outside acc = function
    | [] -> List.rev acc
    | "```text" :: rest -> inside acc [] rest
    | _ :: rest -> outside acc rest
  and inside acc block = function
    | [] -> Alcotest.fail "EXPERIMENTS.md: unterminated ```text block"
    | "```" :: rest -> outside (List.rev block :: acc) rest
    | l :: rest -> inside acc (l :: block) rest
  in
  outside [] lines

let rec is_prefix block lines =
  match (block, lines) with
  | [], _ -> true
  | b :: bs, l :: ls -> String.equal b l && is_prefix bs ls
  | _ :: _, [] -> false

let rec occurs block = function
  | [] -> false
  | _ :: rest as lines -> is_prefix block lines || occurs block rest

let test_experiments_md_quotes_golden () =
  let doc =
    if Sys.file_exists "golden" then "../EXPERIMENTS.md" else "EXPERIMENTS.md"
  in
  let golden = read_lines (Suite_pipeline.golden_path "experiments.golden") in
  let blocks = text_blocks (read_lines doc) in
  Alcotest.(check bool) "EXPERIMENTS.md has measured blocks" true (blocks <> []);
  List.iter
    (fun block ->
      if block = [] || not (occurs block golden) then
        Alcotest.failf "EXPERIMENTS.md block is not an excerpt of experiments.golden:\n%s"
          (String.concat "\n" block))
    blocks

let suite =
  [
    Alcotest.test_case "table I structure" `Quick test_table1_structure;
    Alcotest.test_case "table II structure" `Quick test_table2_structure;
    Alcotest.test_case "offsets structure" `Quick test_offsets_structure;
    Alcotest.test_case "average is geometric" `Quick test_average_is_geomean;
    Alcotest.test_case "golden evaluation tables" `Slow test_experiments_golden;
    Alcotest.test_case "JSON agrees with the evaluation" `Quick test_json_agrees;
    Alcotest.test_case "EXPERIMENTS.md quotes the golden" `Quick
      test_experiments_md_quotes_golden;
  ]
