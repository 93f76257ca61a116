(* Tests for affine analysis, dependence testing, parallelism,
   coalescing and reuse-candidate discovery — including the paper's
   running examples (Fig 3 and Fig 5). *)

open Safara_analysis
module E = Safara_ir.Expr
module S = Safara_ir.Stmt
module M = Safara_gpu.Memspace

let aff ?(indices = [ "i"; "j"; "k" ]) src =
  let ast = Safara_lang.Parser.parse_expr src in
  (* a tiny environment for lowering standalone expressions *)
  let rec lower = function
    | Safara_lang.Ast.Int n -> E.int n
    | Safara_lang.Ast.Var v -> E.var v
    | Safara_lang.Ast.Bin (op, a, b) -> E.Binop (op, lower a, lower b)
    | Safara_lang.Ast.Un (op, a) -> E.Unop (op, lower a)
    | Safara_lang.Ast.Index (a, subs) -> E.Load (a, List.map lower subs)
    | Safara_lang.Ast.Cast (ty, a) -> E.Cast (Safara_lang.Ast.ty_to_dtype ty, lower a)
    | _ -> failwith "unsupported in test helper"
  in
  Affine.analyze ~indices (lower ast)

let test_affine_simple () =
  match aff "i" with
  | Some f ->
      Alcotest.(check int) "coeff i" 1 (Affine.coeff f "i");
      Alcotest.(check int) "const" 0 f.Affine.const
  | None -> Alcotest.fail "i should be affine"

let test_affine_shifted () =
  match aff "2*i - 3" with
  | Some f ->
      Alcotest.(check int) "coeff" 2 (Affine.coeff f "i");
      Alcotest.(check int) "const" (-3) f.Affine.const
  | None -> Alcotest.fail "2*i-3 should be affine"

let test_affine_multi_index () =
  match aff "i + 4*j + 1" with
  | Some f ->
      Alcotest.(check int) "i" 1 (Affine.coeff f "i");
      Alcotest.(check int) "j" 4 (Affine.coeff f "j");
      Alcotest.(check int) "const" 1 f.Affine.const
  | None -> Alcotest.fail "should be affine"

let test_affine_symbolic_rest () =
  (* n is not an index: additive symbolic rest *)
  match aff "i + n" with
  | Some f ->
      Alcotest.(check bool) "has rest" true (f.Affine.rest <> None);
      Alcotest.(check int) "i" 1 (Affine.coeff f "i")
  | None -> Alcotest.fail "i+n should be affine"

let test_affine_rest_canonical () =
  (* n + m and m + n must normalize identically *)
  match (aff "i + n + m", aff "i + m + n") with
  | Some a, Some b -> Alcotest.(check bool) "comparable" true (Affine.comparable a b)
  | _ -> Alcotest.fail "both should be affine"

let test_affine_rejects () =
  Alcotest.(check bool) "i*j" true (aff "i*j" = None);
  Alcotest.(check bool) "i/2" true (aff "i/2" = None);
  Alcotest.(check bool) "a[i]" true (aff "a[i]" = None);
  (* index-free division is a symbolic atom, not a rejection *)
  Alcotest.(check bool) "n/2 ok" true (aff "n/2" <> None)

let test_affine_distance () =
  match (aff "i - 1", aff "i + 1") with
  | Some a, Some b ->
      Alcotest.(check (option int)) "distance" (Some 2) (Affine.distance a b)
  | _ -> Alcotest.fail "affine"

let test_affine_scaled_symbolic () =
  (* (k - t2) * t4 : affine in k only if t4 were constant; it is
     symbolic, so this must be rejected *)
  Alcotest.(check bool) "symbolic*index rejected" true (aff "t4 * (k - 1)" = None)

(* --- dependence ----------------------------------------------------- *)

let body_of src =
  let prog = Safara_lang.Frontend.compile src in
  (List.hd prog.Safara_ir.Program.regions).Safara_ir.Region.body

(* the loop-parallelism verdict on loop [idx] of a region body *)
let parallel body idx =
  List.assoc_opt idx (Legality.verdicts (Legality.analyze body))
  = Some Legality.Parallel

let fig3 =
  {|
param int n;
double a[n];
double b[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(128)
  for (i = 1; i <= n - 2; i++) {
    a[i] = (b[i] + b[i+1]) / 2.0;
  }
}
|}

let test_fig3_input_dependence () =
  (* b[i] and b[i+1]: input dependence with distance 1; no flow dep *)
  let body = body_of fig3 in
  let deps = Dependence.region_deps ~include_input:true body in
  let input_deps =
    List.filter (fun d -> d.Dependence.d_kind = Dependence.Input) deps
  in
  Alcotest.(check int) "one input dep" 1 (List.length input_deps);
  (match input_deps with
  | [ d ] -> (
      match d.Dependence.d_dist with
      | [ Dependence.D 1 ] -> ()
      | [ Dependence.D (-1) ] -> ()
      | dist ->
          Alcotest.fail
            (Format.asprintf "unexpected distance %a"
               (Format.pp_print_list Dependence.pp_distance)
               dist))
  | _ -> ());
  let non_input = List.filter (fun d -> d.Dependence.d_kind <> Dependence.Input) deps in
  Alcotest.(check int) "no non-input deps" 0 (List.length non_input)

let test_fig3_parallel () =
  let body = body_of fig3 in
  Alcotest.(check bool) "loop i parallelizable" true
    (parallel body "i")

let test_fig4_sequentialized () =
  (* after naive scalar replacement (Fig 4), b1 = b2 creates a scalar
     recurrence: the loop must be reported serial *)
  let src =
    {|
param int n;
double a[n];
double b[n];
#pragma acc kernels
{
  double b1 = 0.0;
  double b2 = 0.0;
  for (i = 1; i <= n - 2; i++) {
    b2 = b[i+1];
    a[i] = (b1 + b2) / 2.0;
    b1 = b2;
  }
}
|}
  in
  let body = body_of src in
  Alcotest.(check bool) "fig4 loop is serial" false
    (parallel body "i")

let test_flow_dependence_distance () =
  (* a[i] = a[i-1] + 1: flow dep carried with distance 1 *)
  let src =
    {|
param int n;
double a[n];
#pragma acc kernels
{
  for (i = 1; i <= n - 1; i++) {
    a[i] = a[i-1] + 1.0;
  }
}
|}
  in
  let body = body_of src in
  let deps = Dependence.region_deps body in
  Alcotest.(check bool) "has flow dep" true
    (List.exists
       (fun d ->
         d.Dependence.d_kind = Dependence.Flow
         && d.Dependence.d_dist = [ Dependence.D 1 ])
       deps);
  Alcotest.(check bool) "loop serial" false (parallel body "i")

let test_independent_strided () =
  (* a[2*i] and a[2*i+1] never collide: no dependence *)
  let src =
    {|
param int n;
double a[n];
#pragma acc kernels
{
  for (i = 0; i <= n/2 - 1; i++) {
    a[2*i] = a[2*i+1] + 1.0;
  }
}
|}
  in
  let body = body_of src in
  let deps = Dependence.region_deps body in
  Alcotest.(check int) "no deps" 0 (List.length deps);
  Alcotest.(check bool) "parallelizable" true (parallel body "i")

let test_ziv_independent () =
  (* a[0] and a[1] are distinct cells *)
  let src =
    "param int n;\ndouble a[n];\n#pragma acc kernels\n{ for (i=0;i<n;i++) { a[0] = a[1] + 1.0; } }"
  in
  let deps = Dependence.region_deps (body_of src) in
  Alcotest.(check int) "ziv no dep" 0 (List.length deps)

let test_ziv_dependent () =
  (* a[0] written every iteration: output dep, loop serial *)
  let src =
    "param int n;\ndouble a[n];\n#pragma acc kernels\n{ for (i=0;i<n;i++) { a[0] = 1.0; a[0] = 2.0; } }"
  in
  let body = body_of src in
  let deps = Dependence.region_deps body in
  Alcotest.(check bool) "output dep exists" true
    (List.exists (fun d -> d.Dependence.d_kind = Dependence.Output) deps);
  Alcotest.(check bool) "serial" false (parallel body "i")

let test_2d_distance_vector () =
  (* a[i][j] = a[i-1][j+2]: distance vector (1, -2) *)
  let src =
    {|
param int n;
double a[n][n];
#pragma acc kernels
{
  for (i = 1; i <= n - 1; i++) {
    for (j = 0; j <= n - 3; j++) {
      a[i][j] = a[i-1][j+2] + 1.0;
    }
  }
}
|}
  in
  let deps = Dependence.region_deps (body_of src) in
  Alcotest.(check bool) "distance (1,-2)" true
    (List.exists
       (fun d -> d.Dependence.d_dist = [ Dependence.D 1; Dependence.D (-2) ])
       deps)

let test_guarded_branches_independent () =
  (* writes on opposite branches of the same if cannot conflict *)
  let src =
    {|
param int n;
double a[n];
#pragma acc kernels
{
  for (i = 0; i <= n - 1; i++) {
    if (i % 2 == 0) {
      a[i] = 1.0;
    } else {
      a[i] = 2.0;
    }
  }
}
|}
  in
  let deps = Dependence.region_deps (body_of src) in
  Alcotest.(check int) "no deps across branches" 0 (List.length deps)

let test_reduction_loop_parallel () =
  let src =
    {|
param int n;
in double a[n];
out double r[n];
#pragma acc kernels
{
  double sum = 0.0;
  #pragma acc loop gang vector(128) reduction(+:sum)
  for (i = 0; i <= n - 1; i++) {
    sum += a[i];
  }
  r[0] = sum;
}
|}
  in
  let body = body_of src in
  (* with the reduction clause the loop has no disqualifying recurrence *)
  Alcotest.(check bool) "reduction loop parallel" true
    (parallel body "i")

(* --- schedule resolution ------------------------------------------- *)

let test_schedule_resolution () =
  let src =
    {|
param int n;
double a[n][n];
in double b[n][n];
#pragma acc kernels
{
  for (i = 0; i <= n - 1; i++) {
    for (j = 0; j <= n - 1; j++) {
      a[i][j] = b[i][j] * 2.0;
    }
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let r = Schedule.resolve (List.hd prog.Safara_ir.Program.regions) in
  match r.Safara_ir.Region.body with
  | [ S.For li ] -> (
      Alcotest.(check bool) "outer promoted" true (S.is_parallel_sched li.S.sched);
      match li.S.body with
      | [ S.For lj ] ->
          Alcotest.(check bool) "inner promoted" true (S.is_parallel_sched lj.S.sched)
      | _ -> Alcotest.fail "inner loop missing")
  | _ -> Alcotest.fail "outer loop missing"

let test_schedule_parallel_construct_asserts () =
  (* the same dependence-carrying loop: kernels keeps it sequential,
     parallel promotes it because the user asserted independence *)
  let src kind =
    Printf.sprintf
      "param int n;\ndouble a[n];\n#pragma acc %s\n{ for (i = 1; i <= n - 1; i++) { a[i] = a[i-1] + 1.0; } }"
      kind
  in
  let sched kind =
    let prog = Safara_lang.Frontend.compile (src kind) in
    let r = Schedule.resolve (List.hd prog.Safara_ir.Program.regions) in
    match r.Safara_ir.Region.body with
    | [ S.For l ] -> l.S.sched
    | _ -> Alcotest.fail "loop missing"
  in
  Alcotest.(check bool) "kernels keeps it seq" true (sched "kernels" = S.Seq);
  Alcotest.(check bool) "parallel promotes it" true
    (S.is_parallel_sched (sched "parallel"))

let test_schedule_serial_stays_seq () =
  let src =
    {|
param int n;
double a[n];
#pragma acc kernels
{
  for (i = 1; i <= n - 1; i++) {
    a[i] = a[i-1] + 1.0;
  }
}
|}
  in
  let prog = Safara_lang.Frontend.compile src in
  let r = Schedule.resolve (List.hd prog.Safara_ir.Program.regions) in
  match r.Safara_ir.Region.body with
  | [ S.For l ] -> Alcotest.(check bool) "stays seq" true (l.S.sched = S.Seq)
  | _ -> Alcotest.fail "loop missing"

(* --- mapping & coalescing ------------------------------------------ *)

let fig8_like =
  {|
param int nx;
param int ny;
param int nz;
param double h;
in double b[ny][nx];
double a[ny][nx];
#pragma acc kernels
{
  #pragma acc loop gang vector(2)
  for (j = 1; j <= ny - 2; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i <= nx - 2; i++) {
      a[j][i] = b[j][i] + b[i][j];
    }
  }
}
|}

let region_of src =
  let prog = Safara_lang.Frontend.compile src in
  (prog, Schedule.resolve (List.hd prog.Safara_ir.Program.regions))

let test_mapping_axes () =
  let _, r = region_of fig8_like in
  let m = Mapping.of_region r in
  Alcotest.(check (option string)) "x is inner loop" (Some "i") (Mapping.x_index m);
  let bx, by, bz = m.Mapping.block in
  Alcotest.(check (list int)) "block dims" [ 64; 2; 1 ] [ bx; by; bz ]

let test_coalescing_classes () =
  let prog, r = region_of fig8_like in
  let elem a = Safara_ir.Program.elem_type prog a in
  let classes = Coalescing.classify_in_region ~arch:Safara_gpu.Arch.kepler_k20xm ~elem r in
  let find name subs_str =
    List.find_opt
      (fun ((a, subs), _) ->
        a = name
        && String.concat ","
             (List.map (fun s -> Format.asprintf "%a" E.pp s) subs)
           = subs_str)
      classes
    |> Option.map snd
  in
  (* b[j][i]: i fastest, stride 1, f64 -> coalesced *)
  (match find "b" "j,i" with
  | Some M.Coalesced -> ()
  | Some a -> Alcotest.fail ("b[j][i] should be coalesced, got " ^ M.access_to_string a)
  | None -> Alcotest.fail "b[j][i] not classified");
  (* b[i][j]: i in the slow dimension -> fully scattered *)
  match find "b" "i,j" with
  | Some (M.Uncoalesced n) when n >= 16 -> ()
  | Some a -> Alcotest.fail ("b[i][j] should be scattered, got " ^ M.access_to_string a)
  | None -> Alcotest.fail "b[i][j] not classified"

let test_coalescing_invariant () =
  let src =
    {|
param int n;
in double c[n];
double a[n][n];
#pragma acc kernels
{
  #pragma acc loop gang
  for (j = 0; j <= n - 1; j++) {
    #pragma acc loop vector(128)
    for (i = 0; i <= n - 1; i++) {
      a[j][i] = c[j] * 2.0;
    }
  }
}
|}
  in
  let prog, r = region_of src in
  let elem a = Safara_ir.Program.elem_type prog a in
  let classes = Coalescing.classify_in_region ~arch:Safara_gpu.Arch.kepler_k20xm ~elem r in
  match List.find_opt (fun ((a, _), _) -> a = "c") classes with
  | Some (_, M.Invariant) -> ()
  | Some (_, a) -> Alcotest.fail ("c[j] should be invariant, got " ^ M.access_to_string a)
  | None -> Alcotest.fail "c[j] not classified"

let test_coalescing_strided () =
  let src =
    {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(128)
  for (i = 0; i <= n/2 - 1; i++) {
    a[i] = b[2*i];
  }
}
|}
  in
  let prog, r = region_of src in
  let elem a = Safara_ir.Program.elem_type prog a in
  let classes = Coalescing.classify_in_region ~arch:Safara_gpu.Arch.kepler_k20xm ~elem r in
  match List.find_opt (fun ((a, _), _) -> a = "b") classes with
  | Some (_, M.Uncoalesced n) ->
      Alcotest.(check bool) "stride-2 f64 needs >1 txn" true (n > 1 && n <= 32)
  | Some (_, a) ->
      Alcotest.fail ("b[2*i] should be uncoalesced, got " ^ M.access_to_string a)
  | None -> Alcotest.fail "b[2*i] not classified"

(* --- spaces --------------------------------------------------------- *)

let test_spaces () =
  let prog, r = region_of fig8_like in
  let spaces = Spaces.region_spaces ~arch:Safara_gpu.Arch.kepler_k20xm prog r in
  Alcotest.(check bool) "b read-only" true
    (List.assoc "b" spaces = M.Read_only);
  Alcotest.(check bool) "a global" true (List.assoc "a" spaces = M.Global)

let test_spaces_fermi_no_ro () =
  let prog, r = region_of fig8_like in
  let spaces = Spaces.region_spaces ~arch:Safara_gpu.Arch.fermi_like prog r in
  Alcotest.(check bool) "b global on fermi" true (List.assoc "b" spaces = M.Global)

(* --- reuse ---------------------------------------------------------- *)

let fig5 =
  {|
param int jsize;
param int isize;
double a[isize][jsize];
in double b[jsize][isize];
double c[jsize];
double d[jsize];
#pragma acc kernels
{
  #pragma acc loop gang vector(128)
  for (j = 1; j <= jsize - 1; j++) {
    c[j] = b[j][0] + b[j][1];
    d[j] = c[j] * b[j][0];
    #pragma acc loop seq
    for (i = 1; i <= isize - 2; i++) {
      a[i][j] = a[i-1][j] + b[j][i-1] + a[i+1][j] + b[j][i+1];
    }
  }
}
|}

let reuse_candidates src =
  let prog, r = region_of src in
  Reuse.candidates ~arch:Safara_gpu.Arch.kepler_k20xm
    ~latency:Safara_gpu.Latency.kepler prog r

let test_fig5_candidates () =
  let cands = reuse_candidates fig5 in
  (* b[j][i-1], b[j][i+1] form an inter chain on i with span 2 *)
  let b_inter =
    List.find_opt
      (fun c ->
        c.Reuse.c_array = "b"
        && match c.Reuse.c_kind with Reuse.Inter { carrier = "i"; _ } -> true | _ -> false)
      cands
  in
  (match b_inter with
  | Some c -> (
      match c.Reuse.c_kind with
      | Reuse.Inter { span; _ } -> Alcotest.(check int) "b span" 2 span
      | _ -> assert false)
  | None -> Alcotest.fail "b inter-chain not found");
  (* b[j][0] appears twice in the outer body: intra candidate *)
  let b0_intra =
    List.exists
      (fun c -> c.Reuse.c_array = "b" && c.Reuse.c_kind = Reuse.Intra && c.Reuse.c_reads = 2)
      cands
  in
  Alcotest.(check bool) "b[j][0] intra" true b0_intra

let test_fig5_a_chain_exists_but_cheaper () =
  let cands = reuse_candidates fig5 in
  (* a's refs include a write -> rotating chain suppressed; but even the
     a reads are coalesced while b's are scattered, so any b candidate
     must outrank any a candidate *)
  let cost_of array =
    List.fold_left
      (fun acc c -> if c.Reuse.c_array = array then max acc c.Reuse.c_cost else acc)
      0 cands
  in
  Alcotest.(check bool) "b outranks a" true (cost_of "b" > cost_of "a")

let test_fig5_b_uncoalesced () =
  let cands = reuse_candidates fig5 in
  let b =
    List.find
      (fun c ->
        c.Reuse.c_array = "b"
        && match c.Reuse.c_kind with Reuse.Inter _ -> true | _ -> false)
      cands
  in
  match b.Reuse.c_access with
  | M.Uncoalesced _ -> ()
  | a -> Alcotest.fail ("b should be uncoalesced: " ^ M.access_to_string a)

let test_no_inter_on_parallel_loop () =
  (* fig 3: reuse across iterations of a parallel loop must NOT produce
     an inter candidate (paper §III.A.1) *)
  let cands = reuse_candidates fig3 in
  Alcotest.(check bool) "no inter candidates" true
    (List.for_all (fun c -> c.Reuse.c_kind = Reuse.Intra) cands)

let test_inter_on_seq_loop () =
  let src =
    {|
param int n;
in double b[n];
double a[n];
#pragma acc kernels
{
  #pragma acc loop seq
  for (i = 1; i <= n - 2; i++) {
    a[i] = (b[i] + b[i+1]) / 2.0;
  }
}
|}
  in
  let cands = reuse_candidates src in
  Alcotest.(check bool) "inter candidate on seq loop" true
    (List.exists
       (fun c ->
         match c.Reuse.c_kind with
         | Reuse.Inter { carrier = "i"; span = 1 } -> true
         | _ -> false)
       cands)

let test_intra_duplicates () =
  let src =
    {|
param int n;
in double b[n][n];
double a[n];
#pragma acc kernels
{
  #pragma acc loop gang vector(128)
  for (i = 1; i <= n - 2; i++) {
    a[i] = b[i][0] * b[i][0] + b[i][0];
  }
}
|}
  in
  let cands = reuse_candidates src in
  match List.find_opt (fun c -> c.Reuse.c_array = "b") cands with
  | Some c ->
      Alcotest.(check bool) "intra" true (c.Reuse.c_kind = Reuse.Intra);
      Alcotest.(check int) "three reads" 3 c.Reuse.c_reads;
      Alcotest.(check int) "saves two loads" 2 c.Reuse.c_loads_saved
  | None -> Alcotest.fail "duplicate b[i][0] not found"

let test_regs_needed_f64_chain () =
  let cands = reuse_candidates fig5 in
  let b =
    List.find
      (fun c ->
        c.Reuse.c_array = "b"
        && match c.Reuse.c_kind with Reuse.Inter _ -> true | _ -> false)
      cands
  in
  (* span 2 -> 3 rotating scalars, f64 -> 2 regs each = 6 *)
  Alcotest.(check int) "regs needed" 6 b.Reuse.c_regs_needed

let test_cost_ordering_respects_latency () =
  let cands = reuse_candidates fig5 in
  match cands with
  | first :: _ ->
      Alcotest.(check string) "most costly is b" "b" first.Reuse.c_array
  | [] -> Alcotest.fail "no candidates"

let suite =
  [
    Alcotest.test_case "affine simple" `Quick test_affine_simple;
    Alcotest.test_case "affine shifted" `Quick test_affine_shifted;
    Alcotest.test_case "affine multi-index" `Quick test_affine_multi_index;
    Alcotest.test_case "affine symbolic rest" `Quick test_affine_symbolic_rest;
    Alcotest.test_case "affine rest canonicalization" `Quick test_affine_rest_canonical;
    Alcotest.test_case "affine rejections" `Quick test_affine_rejects;
    Alcotest.test_case "affine distance" `Quick test_affine_distance;
    Alcotest.test_case "affine symbolic*index" `Quick test_affine_scaled_symbolic;
    Alcotest.test_case "fig3 input dependence" `Quick test_fig3_input_dependence;
    Alcotest.test_case "fig3 parallelizable" `Quick test_fig3_parallel;
    Alcotest.test_case "fig4 sequentialized by SR" `Quick test_fig4_sequentialized;
    Alcotest.test_case "flow dependence distance" `Quick test_flow_dependence_distance;
    Alcotest.test_case "strided independence" `Quick test_independent_strided;
    Alcotest.test_case "ZIV independent" `Quick test_ziv_independent;
    Alcotest.test_case "ZIV dependent" `Quick test_ziv_dependent;
    Alcotest.test_case "2D distance vector" `Quick test_2d_distance_vector;
    Alcotest.test_case "disjoint branches" `Quick test_guarded_branches_independent;
    Alcotest.test_case "reduction loop parallel" `Quick test_reduction_loop_parallel;
    Alcotest.test_case "schedule auto promotion" `Quick test_schedule_resolution;
    Alcotest.test_case "schedule serial stays seq" `Quick test_schedule_serial_stays_seq;
    Alcotest.test_case "parallel construct asserts independence" `Quick test_schedule_parallel_construct_asserts;
    Alcotest.test_case "mapping axes" `Quick test_mapping_axes;
    Alcotest.test_case "coalescing classes" `Quick test_coalescing_classes;
    Alcotest.test_case "coalescing invariant" `Quick test_coalescing_invariant;
    Alcotest.test_case "coalescing strided" `Quick test_coalescing_strided;
    Alcotest.test_case "memory spaces" `Quick test_spaces;
    Alcotest.test_case "spaces on fermi" `Quick test_spaces_fermi_no_ro;
    Alcotest.test_case "fig5 candidates" `Quick test_fig5_candidates;
    Alcotest.test_case "fig5 cost ranking" `Quick test_fig5_a_chain_exists_but_cheaper;
    Alcotest.test_case "fig5 b uncoalesced" `Quick test_fig5_b_uncoalesced;
    Alcotest.test_case "no inter on parallel loop" `Quick test_no_inter_on_parallel_loop;
    Alcotest.test_case "inter on seq loop" `Quick test_inter_on_seq_loop;
    Alcotest.test_case "intra duplicates" `Quick test_intra_duplicates;
    Alcotest.test_case "rotating regs for f64 chain" `Quick test_regs_needed_f64_chain;
    Alcotest.test_case "cost ordering" `Quick test_cost_ordering_respects_latency;
  ]
