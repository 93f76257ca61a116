(* Calibration guard: the paper's headline result *shapes* as
   regression tests. If a change to the compiler, the simulator or a
   workload breaks one of these, the reproduction no longer tells the
   paper's story — EXPERIMENTS.md documents each claim.

   The facts are read from the evaluation [bench all] prints
   (Suite_experiments.evaluation), which compiles under the paper's
   pass configuration: the paper's 2016 OpenUH compiler had no
   loop-aware VIR optimizer, and the modern indvar/memmerge passes free
   enough registers on their own that e.g. SAFARA-only no longer
   crosses seismic's occupancy cliff. *)

open Safara_suites

let ev () = Lazy.force Suite_experiments.evaluation

(* the value in column [label] of benchmark [id]'s row *)
let cell rows id label =
  match List.assoc_opt id rows with
  | Some values -> List.assoc label values
  | None -> Alcotest.failf "no row for %s" id

let speedup rows id label =
  cell
    (List.map (fun r -> (r.Experiments.sr_id, r.Experiments.sr_values)) rows)
    id label

let norm rows id label =
  cell
    (List.map (fun r -> (r.Experiments.nr_id, r.Experiments.nr_values)) rows)
    id label

(* Fig 9 staircase: speedups of small / small+dim / full vs base *)
let staircase id =
  let s = speedup (ev ()).Experiments.fig9 id in
  (s "small", s "small+dim", s "small+dim+SAFARA")

(* Figs 11/12: full stack vs the PGI-like compiler, normalized time *)
let full_and_pgi rows id = (norm rows id "OpenUH(SAFARA+clauses)", norm rows id "PGI")

let test_seismic_story () =
  let e = ev () in
  (* Fig 7: SAFARA alone overuses registers and slows the benchmark *)
  Alcotest.(check bool) "SAFARA-only slows seismic" true
    (speedup e.Experiments.fig7 "355.seismic" "SAFARA" < 1.0);
  (* Fig 9: the cumulative clause staircase *)
  let small, clauses, full = staircase "355.seismic" in
  Alcotest.(check bool) "small helps" true (small > 1.0);
  Alcotest.(check bool) "dim helps more" true (clauses > small);
  Alcotest.(check bool) "full stack best" true (full > clauses);
  Alcotest.(check bool) "no more slowdown with clauses" true (full > 1.0);
  (* Figs 11: the full stack beats the PGI-like compiler *)
  let full, pgi = full_and_pgi e.Experiments.fig11 "355.seismic" in
  Alcotest.(check bool) "full beats PGI-like" true (full < pgi)

let test_sp_story () =
  let small, clauses, full = staircase "356.sp" in
  Alcotest.(check bool) "small helps sp" true (small > 1.0);
  Alcotest.(check bool) "dim helps sp more" true (clauses > small);
  Alcotest.(check bool) "full best" true (full >= clauses);
  let full, pgi = full_and_pgi (ev ()).Experiments.fig11 "356.sp" in
  Alcotest.(check bool) "full beats PGI-like" true (full < pgi)

let test_nas_sweep_stars () =
  (* §V.C: the uncoalesced x-sweeps are where SAFARA shines; the paper
     reports up to 2.5x on NAS *)
  let fig12 = (ev ()).Experiments.fig12 in
  let sp = norm fig12 "SP" "OpenUH(base)" /. norm fig12 "SP" "OpenUH(SAFARA)" in
  Alcotest.(check bool) "NAS SP at least 2x" true (sp >= 2.0);
  Alcotest.(check bool) "NAS SP not wildly above the paper" true (sp <= 3.0)

let test_controls_flat () =
  (* EP is compute-bound: nothing should move it beyond noise, in the
     SPEC (352.ep) or the NAS (EP) version *)
  let e = ev () in
  let flat id rows =
    match List.find_opt (fun r -> r.Experiments.sr_id = id) rows with
    | None -> Alcotest.failf "no row for %s" id
    | Some r ->
        List.iter
          (fun (label, s) ->
            if s < 0.95 || s > 1.05 then
              Alcotest.failf "%s moved under %s: %.2fx" id label s)
          r.Experiments.sr_values
  in
  flat "352.ep" e.Experiments.fig7;
  flat "352.ep" e.Experiments.fig9;
  flat "EP" e.Experiments.fig10;
  let ep =
    norm e.Experiments.fig12 "EP" "OpenUH(base)"
    /. norm e.Experiments.fig12 "EP" "OpenUH(SAFARA)"
  in
  if ep < 0.95 || ep > 1.05 then Alcotest.failf "EP moved under SAFARA: %.2fx" ep

let test_nas_clauses_noop () =
  (* Fig 10: static NAS arrays make the clause bars exactly 1.0 *)
  let s = speedup (ev ()).Experiments.fig10 "BT" in
  Alcotest.(check (float 1e-9)) "small is a no-op on BT" 1.0 (s "small");
  Alcotest.(check (float 1e-9)) "dim is a no-op on BT" 1.0 (s "small+dim")

let test_spec_max_near_paper () =
  (* the paper's SPEC maximum is 2.08x; ours must stay in that decade *)
  let best =
    List.fold_left
      (fun acc id ->
        let _, _, full = staircase id in
        Float.max acc full)
      1.0 [ "370.bt"; "314.omriq"; "304.olbm" ]
  in
  Alcotest.(check bool) "SPEC max in the paper's neighbourhood" true
    (best >= 1.5 && best <= 3.2)

let suite =
  [
    Alcotest.test_case "seismic story (Figs 7/9/11)" `Slow test_seismic_story;
    Alcotest.test_case "sp story (Fig 9)" `Slow test_sp_story;
    Alcotest.test_case "NAS sweep stars (Fig 10)" `Slow test_nas_sweep_stars;
    Alcotest.test_case "EP control flat" `Slow test_controls_flat;
    Alcotest.test_case "NAS clauses no-op" `Slow test_nas_clauses_noop;
    Alcotest.test_case "SPEC max near paper" `Slow test_spec_max_near_paper;
  ]
