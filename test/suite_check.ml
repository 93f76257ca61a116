(* Static-checker tests: the diagnostics engine, the dependence-based
   race detector (SAF010/SAF011), the VIR verifier (SAF020) and the
   lint passes (SAF030/SAF032/SAF033), plus the whole [Check.run]
   pipeline on every shipped workload. *)

module Diag = Safara_diag.Diagnostic
module Check = Safara_check.Check
module Races = Safara_check.Races
module Lint = Safara_check.Lint
module Verify = Safara_vir.Verify
module I = Safara_vir.Instr
module K = Safara_vir.Kernel
module M = Safara_gpu.Memspace
module T = Safara_ir.Types

let codes diags = List.map (fun d -> d.Diag.code) diags
let has code diags = List.mem code (codes diags)
let errors diags = List.filter (fun d -> d.Diag.severity = Diag.Error) diags

let run_check ?profile ?pressure src =
  Check.run ~file:"t.macc" ?profile ?pressure src

let races_of src =
  let prog, map = Safara_lang.Frontend.compile_with_map ~file:"t.macc" src in
  Races.check_program ~map prog

(* --- race detector: positive and negative cases per class ---------- *)

module Src = Legality_sources

let test_siv_flow_race () =
  let ds = races_of Src.siv_flow in
  Alcotest.(check bool) "SAF010 reported" true (has "SAF010" ds);
  let d = List.find (fun d -> d.Diag.code = "SAF010") ds in
  Alcotest.(check bool) "severity error" true (d.Diag.severity = Diag.Error);
  Alcotest.(check bool)
    "message names distance" true
    (let m = d.Diag.message in
     Str_helpers.contains m "c[i]" && Str_helpers.contains m "distance");
  Alcotest.(check bool) "has seq fix-it" true (d.Diag.hint <> None)

let test_siv_independent () =
  let ds = races_of Src.siv_independent in
  Alcotest.(check (list string)) "no diagnostics" [] (codes ds)

let test_ziv_race () =
  let ds = races_of Src.ziv_race in
  Alcotest.(check bool) "SAF010 on ZIV pair" true (has "SAF010" ds)

let test_ziv_distinct_elements () =
  Alcotest.(check (list string))
    "no diagnostics" [] (codes (races_of Src.ziv_distinct))

let test_miv_race () =
  let ds = races_of Src.miv_race in
  Alcotest.(check bool) "SAF010 reported" true (has "SAF010" ds)

let test_miv_inner_carried_ok () =
  let ds = races_of Src.miv_inner_carried in
  Alcotest.(check (list string)) "no diagnostics" [] (codes ds)

let test_read_read_not_race () =
  let ds = races_of Src.read_read in
  Alcotest.(check (list string)) "no diagnostics" [] (codes ds)

let test_seq_loop_not_reported () =
  let ds = races_of Src.seq_loop in
  Alcotest.(check (list string)) "seq loop never races" [] (codes ds)

let test_scalar_recurrence () =
  let ds = races_of Src.scalar_recurrence in
  Alcotest.(check bool) "SAF011 reported" true (has "SAF011" ds)

let test_declared_reduction_ok () =
  let ds = races_of Src.declared_reduction in
  Alcotest.(check (list string)) "no diagnostics" [] (codes ds)

(* --- VIR verifier on hand-broken kernels --------------------------- *)

let r id ty = { Safara_vir.Vreg.rid = id; rty = ty }

let kernel ?(params = []) code =
  {
    K.kname = "broken";
    params;
    code = Array.of_list code;
    block = (128, 1, 1);
    axes = [];
    shared_bytes = 0;
  }

let gmem = { I.m_space = M.Global; m_access = M.Coalesced; m_bytes = 8 }

let test_verify_clean () =
  let k =
    kernel
      [
        I.Mov { dst = r 0 T.I64; src = I.Imm 7 };
        I.Bin { op = I.Add; dst = r 1 T.I64; a = I.Reg (r 0 T.I64); b = I.Imm 1 };
        I.Ret;
      ]
  in
  Alcotest.(check (list string)) "no faults" [] (codes (Verify.verify k))

let test_verify_use_before_def () =
  let k =
    kernel
      [
        I.Bin { op = I.Add; dst = r 1 T.I64; a = I.Reg (r 0 T.I64); b = I.Imm 1 };
        I.Ret;
      ]
  in
  let ds = Verify.verify k in
  Alcotest.(check bool) "SAF020" true (has "SAF020" ds);
  Alcotest.(check bool)
    "mentions the register" true
    (List.exists
       (fun d -> Str_helpers.contains d.Diag.message "used before definition")
       ds)

let test_verify_def_on_one_path_only () =
  (* r0 defined only when the branch is taken: a use after the join
     must fault *)
  let p = r 9 T.Bool in
  let k =
    kernel
      [
        I.Mov { dst = p; src = I.Imm 1 };
        I.Setp { cmp = I.Eq; dst = p; a = I.Imm 1; b = I.Imm 1 };
        I.Brc { pred = p; if_true = true; target = "skip" };
        I.Mov { dst = r 0 T.I64; src = I.Imm 7 };
        I.Label "skip";
        I.Bin { op = I.Add; dst = r 1 T.I64; a = I.Reg (r 0 T.I64); b = I.Imm 1 };
        I.Ret;
      ]
  in
  Alcotest.(check bool) "SAF020" true (has "SAF020" (Verify.verify k))

let test_verify_bad_branch_target () =
  let k = kernel [ I.Bra "nowhere"; I.Ret ] in
  let ds = Verify.verify k in
  Alcotest.(check bool) "SAF020" true (has "SAF020" ds);
  Alcotest.(check bool)
    "names the label" true
    (List.exists (fun d -> Str_helpers.contains d.Diag.message "nowhere") ds)

let test_verify_fall_off_end () =
  let k = kernel [ I.Mov { dst = r 0 T.I64; src = I.Imm 0 } ] in
  Alcotest.(check bool) "SAF020" true (has "SAF020" (Verify.verify k))

let test_verify_store_to_readonly () =
  let mem = { gmem with I.m_space = M.Read_only } in
  let k =
    kernel
      [
        I.Mov { dst = r 0 T.I64; src = I.Imm 0 };
        I.Mov { dst = r 1 T.F64; src = I.FImm 0.0 };
        I.St { src = I.Reg (r 1 T.F64); addr = r 0 T.I64; mem; note = "a" };
        I.Ret;
      ]
  in
  let ds = Verify.verify k in
  Alcotest.(check bool) "SAF020" true (has "SAF020" ds)

let test_verify_unknown_param () =
  let k =
    kernel ~params:[ K.P_scalar ("n", T.I64) ]
      [ I.Ldp { dst = r 0 T.I64; param = "m" }; I.Ret ]
  in
  Alcotest.(check bool) "SAF020" true (has "SAF020" (Verify.verify k))

let test_verify_width_mismatch () =
  (* 8-byte load into a 32-bit register *)
  let k =
    kernel
      [
        I.Mov { dst = r 0 T.I64; src = I.Imm 0 };
        I.Ld { dst = r 1 T.I32; addr = r 0 T.I64; mem = gmem; note = "a" };
        I.Ret;
      ]
  in
  Alcotest.(check bool) "SAF020" true (has "SAF020" (Verify.verify k))

let test_verify_two_types () =
  (* rid 0 is written as a 32-bit register and read as a 64-bit one:
     one fault, at the first use at the second type *)
  let k =
    kernel
      [
        I.Mov { dst = r 0 T.I32; src = I.Imm 1 };
        I.Mov { dst = r 1 T.I64; src = I.Reg (r 0 T.I64) };
        I.Bin { op = I.Add; dst = r 2 T.I32; a = I.Reg (r 0 T.I32); b = I.Imm 1 };
        I.Ret;
      ]
  in
  Alcotest.(check (list string))
    "one fault" [ "instr 1: register id 0 used at two types (%r0, %rd0)" ]
    (List.map (fun d -> d.Diag.message) (Verify.verify k))

let test_verify_fault_order () =
  (* control flow, then def-before-use, then types, then memory
     spaces; each in instruction order *)
  let k =
    kernel
      [
        I.Label "a";
        I.St
          {
            src = I.Reg (r 0 T.F64);
            addr = r 1 T.I64;
            mem = { gmem with I.m_space = M.Read_only };
            note = "a";
          };
        I.Ldp { dst = r 2 T.I64; param = "nope" };
        I.Mov { dst = r 1 T.I32; src = I.Imm 0 };
        I.Label "a";
        I.Bra "nowhere";
      ]
  in
  Alcotest.(check (list string))
    "order"
    [
      "instr 4: duplicate label a";
      "instr 5: branch to undefined label nowhere";
      "instr 5: kernel has no ret";
      "instr 1: register %fd0 used before definition";
      "instr 1: register %rd1 used before definition";
      "instr 2: ld.param of nope, not a kernel parameter";
      "instr 3: register id 1 used at two types (%rd1, %r1)";
      "instr 1: store to read-only read-only memory";
    ]
    (List.map (fun d -> d.Diag.message) (Verify.verify k))

let test_verify_all_compiled_kernels () =
  (* every kernel the compiler produces for every workload must verify *)
  let arch = Safara_gpu.Arch.kepler_k20xm in
  List.iter
    (fun (w : Safara_suites.Workload.t) ->
      let prog = Safara_lang.Frontend.compile w.Safara_suites.Workload.source in
      let c = Safara_core.Compiler.compile ~arch Safara_core.Compiler.Full prog in
      List.iter
        (fun (k, _) ->
          Alcotest.(check (list string))
            (w.Safara_suites.Workload.id ^ "/" ^ k.K.kname)
            [] (codes (Verify.verify k)))
        c.Safara_core.Compiler.c_kernels)
    Safara_suites.Registry.all

(* --- the verifier against its reference, on mutated kernels ------- *)

(* the kernels every registry workload ships: under the full profile
   on kepler, and under base on fermi, where some spill *)
let registry_kernels =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (w : Safara_suites.Workload.t) ->
            let prog = Safara_lang.Frontend.compile w.Safara_suites.Workload.source in
            List.concat_map
              (fun (arch, profile) ->
                List.map fst
                  (Safara_core.Compiler.compile ~arch profile prog)
                    .Safara_core.Compiler.c_kernels)
              [
                (Safara_gpu.Arch.kepler_k20xm, Safara_core.Compiler.Full);
                (Safara_gpu.Arch.fermi_like, Safara_core.Compiler.Base);
              ])
          Safara_suites.Registry.all))

type mutation =
  | Drop_def
  | Retype
  | Drop_label
  | Dup_label
  | Retarget
  | Store_read_only
  | Drop_ret
  | Bad_param

let mutations =
  [ Drop_def; Retype; Drop_label; Dup_label; Retarget; Store_read_only;
    Drop_ret; Bad_param ]

let mutation_name = function
  | Drop_def -> "dropped def"
  | Retype -> "retyped register"
  | Drop_label -> "removed label"
  | Dup_label -> "duplicated label"
  | Retarget -> "retargeted branch"
  | Store_read_only -> "store to read-only space"
  | Drop_ret -> "dropped ret"
  | Bad_param -> "bad ld.param"

let retype (t : T.dtype) =
  match t with
  | T.I32 -> T.I64
  | T.I64 -> T.I32
  | T.F32 -> T.F64
  | T.F64 -> T.F32
  | T.Bool -> T.I32

(* [k] with one mutation of the given kind at the instruction [pick]
   selects among the ones it applies to; [None] when none does *)
let mutate kind pick (k : K.t) =
  let code = k.K.code in
  let n = Array.length code in
  let where p = List.filter (fun i -> p code.(i)) (List.init n Fun.id) in
  let choose = function [] -> None | l -> Some (List.nth l (pick mod List.length l)) in
  let remove i = Array.append (Array.sub code 0 i) (Array.sub code (i + 1) (n - i - 1)) in
  let replace i ins =
    let c = Array.copy code in
    c.(i) <- ins;
    c
  in
  let labels = List.filter_map (function I.Label l -> Some l | _ -> None) (Array.to_list code) in
  let code' =
    match kind with
    | Drop_def -> Option.map remove (choose (where (fun ins -> I.defs ins <> [])))
    | Retype ->
        Option.map
          (fun i ->
            let d = List.hd (I.defs code.(i)) in
            replace i
              (I.map_regs
                 (fun (r : Safara_vir.Vreg.t) ->
                   if r.Safara_vir.Vreg.rid = d.Safara_vir.Vreg.rid then
                     { r with Safara_vir.Vreg.rty = retype r.Safara_vir.Vreg.rty }
                   else r)
                 code.(i)))
          (choose (where (fun ins -> I.defs ins <> [])))
    | Drop_label -> Option.map remove (choose (where (function I.Label _ -> true | _ -> false)))
    | Dup_label ->
        Option.map
          (fun i ->
            let at = pick / 7 mod (n + 1) in
            Array.concat [ Array.sub code 0 at; [| code.(i) |]; Array.sub code at (n - at) ])
          (choose (where (function I.Label _ -> true | _ -> false)))
    | Retarget ->
        Option.map
          (fun i ->
            let target =
              if pick mod 2 = 0 || labels = [] then "nowhere"
              else List.nth labels (pick / 2 mod List.length labels)
            in
            replace i
              (match code.(i) with
              | I.Brc b -> I.Brc { b with target }
              | _ -> I.Bra target))
          (choose (where (function I.Bra _ | I.Brc _ -> true | _ -> false)))
    | Store_read_only ->
        Option.map
          (fun i ->
            match code.(i) with
            | I.St st ->
                let m_space = List.nth [ M.Read_only; M.Constant; M.Param ] (pick mod 3) in
                replace i (I.St { st with mem = { st.mem with I.m_space } })
            | ins -> replace i ins)
          (choose (where (function I.St _ -> true | _ -> false)))
    | Drop_ret -> Option.map remove (choose (where (function I.Ret -> true | _ -> false)))
    | Bad_param ->
        Option.map
          (fun i ->
            match code.(i) with
            | I.Ldp l -> replace i (I.Ldp { l with param = "no_such_param" })
            | ins -> replace i ins)
          (choose (where (function I.Ldp _ -> true | _ -> false)))
  in
  Option.map (fun code -> { k with K.code }) code'

(* One mutation of a registry kernel never faults two checks at once,
   so a mutant also draws a second mutation half of the time: the
   pairs are what would show two checks reported in the wrong order. *)
let arb_mutant =
  let kernels () = Lazy.force registry_kernels in
  let gen_mutation = QCheck.Gen.(pair (oneofl mutations) (int_bound 10_000)) in
  QCheck.make
    ~print:(fun (ki, ms) ->
      Printf.sprintf "%s: %s" (kernels ()).(ki).K.kname
        (String.concat ", then "
           (List.map
              (fun (kind, pick) ->
                Printf.sprintf "%s at choice %d" (mutation_name kind) pick)
              ms)))
    QCheck.Gen.(
      pair
        (int_bound (Array.length (kernels ()) - 1))
        (list_size (int_range 1 2) gen_mutation))

let prop_verify_matches_reference =
  QCheck.Test.make ~name:"verify: same faults as the reference on mutants"
    ~count:500 arb_mutant (fun (ki, ms) ->
      let k =
        List.fold_left
          (fun k (kind, pick) -> Option.value ~default:k (mutate kind pick k))
          (Lazy.force registry_kernels).(ki)
          ms
      in
      Verify.verify k = Verify_reference.verify k)

(* the property is not vacuous: every mutation class breaks some
   registry kernel, and the two verifiers agree there *)
let test_verify_mutants_fault () =
  List.iter
    (fun kind ->
      let faulted =
        Array.exists
          (fun k ->
            match mutate kind 1 k with
            | None -> false
            | Some k ->
                let got = Verify.verify k in
                Alcotest.(check (list string))
                  (mutation_name kind ^ " on " ^ k.K.kname)
                  (List.map (fun d -> d.Diag.message) (Verify_reference.verify k))
                  (List.map (fun d -> d.Diag.message) got);
                got <> [])
          (Lazy.force registry_kernels)
      in
      Alcotest.(check bool) (mutation_name kind ^ " faults some kernel") true faulted)
    mutations

(* --- lints --------------------------------------------------------- *)

let test_lint_dead_scalar () =
  let ds =
    run_check
      {|
param int n;
double a[n];
out double c[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(128)
  for (i = 0; i < n; i++) {
    double unused;
    unused = a[i] * 2.0;
    c[i] = a[i];
  }
}
|}
  in
  Alcotest.(check bool) "SAF033" true (has "SAF033" ds);
  let d = List.find (fun d -> d.Diag.code = "SAF033") ds in
  Alcotest.(check bool)
    "names the scalar" true
    (Str_helpers.contains d.Diag.message "unused")

let test_lint_unexploited_clause () =
  let ds =
    run_check
      {|
param int n;
double a[n];
double b[n];
out double c[n];
#pragma acc kernels name(k) small(b)
{
  #pragma acc loop gang vector(128)
  for (i = 0; i < n; i++) {
    c[i] = a[i];
  }
}
|}
  in
  Alcotest.(check bool) "SAF032" true (has "SAF032" ds)

let test_lint_uncoalesced_note () =
  (* fig5's inner seq loop reads b[j][i-1]: j (the vector index) in
     the slowest-varying subscript means the warp's lanes stride by a
     whole row — uncoalesced *)
  let ds =
    run_check
      {|
param int n;
param int m;
in double b[n][m];
out double a[m][n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(128)
  for (j = 1; j < n - 1; j++) {
    #pragma acc loop seq
    for (i = 1; i < m - 1; i++) {
      a[i][j] = b[j][i-1] + b[j][i+1];
    }
  }
}
|}
  in
  let notes = List.filter (fun d -> d.Diag.code = "SAF030") ds in
  Alcotest.(check bool) "SAF030 present" true (notes <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "is a note" true (d.Diag.severity = Diag.Note))
    notes

(* dead-store lint operates on raw VIR: build kernels by hand *)
let store ?(note = "c") src addr =
  I.St { src = I.Reg src; addr; mem = gmem; note }

let test_lint_dead_store () =
  let a = r 0 T.I64 and v1 = r 1 T.F64 and v2 = r 2 T.F64 in
  let ds =
    Lint.dead_stores
      (kernel
         [
           I.Mov { dst = a; src = I.Imm 0 };
           I.Mov { dst = v1; src = I.FImm 1.0 };
           I.Mov { dst = v2; src = I.FImm 2.0 };
           store v1 a;
           store v2 a;
           I.Ret;
         ])
  in
  Alcotest.(check (list string)) "SAF035" [ "SAF035" ] (codes ds);
  let d = List.hd ds in
  Alcotest.(check bool) "warning" true (d.Diag.severity = Diag.Warning);
  Alcotest.(check bool)
    "message places both stores" true
    (Str_helpers.contains d.Diag.message "dead store"
    && Str_helpers.contains d.Diag.message "instr 3"
    && Str_helpers.contains d.Diag.message "instr 4");
  Alcotest.(check bool) "has fix-it" true (d.Diag.hint <> None)

let test_lint_dead_store_negatives () =
  let a = r 0 T.I64 and v = r 1 T.F64 and t = r 2 T.F64 in
  let quiet name code =
    Alcotest.(check (list string)) name [] (codes (Lint.dead_stores (kernel code)))
  in
  (* an intervening read of the same array keeps the first store *)
  quiet "read intervenes"
    [
      I.Mov { dst = a; src = I.Imm 0 };
      I.Mov { dst = v; src = I.FImm 1.0 };
      store v a;
      I.Ld { dst = t; addr = a; mem = gmem; note = "c" };
      store v a;
      I.Ret;
    ];
  (* control flow between the stores: the first may be read elsewhere *)
  quiet "branch intervenes"
    [
      I.Mov { dst = a; src = I.Imm 0 };
      I.Mov { dst = v; src = I.FImm 1.0 };
      store v a;
      I.Label "l";
      store v a;
      I.Ret;
    ];
  (* distinct arrays never alias *)
  quiet "different arrays"
    [
      I.Mov { dst = a; src = I.Imm 0 };
      I.Mov { dst = v; src = I.FImm 1.0 };
      store ~note:"c" v a;
      store ~note:"d" v a;
      I.Ret;
    ];
  (* the address register is redefined: a different element *)
  quiet "address redefined"
    [
      I.Mov { dst = a; src = I.Imm 0 };
      I.Mov { dst = v; src = I.FImm 1.0 };
      store v a;
      I.Mov { dst = a; src = I.Imm 8 };
      store v a;
      I.Ret;
    ]

let pressure_src =
  {|
param int n;
double a[n];
out double c[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang vector(128)
  for (i = 0; i < n; i++) {
    c[i] = a[i] * 2.0;
  }
}
|}

let test_lint_static_pressure_on_demand () =
  let ds = run_check ~pressure:true pressure_src in
  let notes = List.filter (fun d -> d.Diag.code = "SAF036") ds in
  Alcotest.(check bool) "SAF036 present" true (notes <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "is a note" true (d.Diag.severity = Diag.Note);
      Alcotest.(check bool)
        "reports both numbers" true
        (Str_helpers.contains d.Diag.message "static register pressure"
        && Str_helpers.contains d.Diag.message "allocator assigned"))
    notes;
  Alcotest.(check bool)
    "absent without --pressure" false
    (has "SAF036" (run_check pressure_src))

let test_lint_static_pressure_unsound () =
  (* a spill-free report claiming fewer registers than the static peak
     demands is an allocator bug: the lint must escalate to an error *)
  let a = r 0 T.I64 and v = r 1 T.F64 in
  let k =
    kernel
      [
        I.Mov { dst = a; src = I.Imm 0 };
        I.Mov { dst = v; src = I.FImm 1.0 };
        I.St { src = I.Reg v; addr = a; mem = gmem; note = "c" };
        I.Ret;
      ]
  in
  let report ~regs =
    {
      Safara_ptxas.Assemble.kernel_name = "broken";
      regs_used = regs;
      pred_regs = 0;
      spill_bytes = 0;
      spill_loads = 0;
      spill_stores = 0;
      instructions = 4;
    }
  in
  let arch = Safara_gpu.Arch.kepler_k20xm in
  let sound = Lint.static_pressure ~arch (k, report ~regs:4) in
  Alcotest.(check (list string)) "honest report is a note" [ "SAF036" ]
    (codes sound);
  Alcotest.(check int) "no errors" 0 (List.length (errors sound));
  let unsound = Lint.static_pressure ~arch (k, report ~regs:1) in
  Alcotest.(check bool)
    "understating registers is an error" true
    (errors unsound <> []
    && List.exists
         (fun d -> Str_helpers.contains d.Diag.message "unsound")
         (errors unsound))

(* --- diagnostics engine -------------------------------------------- *)

let test_front_end_errors () =
  Alcotest.(check bool)
    "lexical" true
    (has "SAF001" (run_check "param int n; ?"));
  Alcotest.(check bool)
    "syntax" true
    (has "SAF002" (run_check "param int n; double a[n"));
  Alcotest.(check bool)
    "type" true
    (has "SAF003"
       (run_check
          {|
param int n;
out double c[n];
#pragma acc kernels name(k)
{
  #pragma acc loop gang
  for (i = 0; i < n; i++) { c[i] = nosuch[i]; }
}
|}))

let test_spans_and_render () =
  let src = Src.siv_flow in
  let ds = run_check src in
  let d = List.find (fun d -> d.Diag.code = "SAF010") ds in
  (match d.Diag.span with
  | None -> Alcotest.fail "race diagnostic has no span"
  | Some s ->
      Alcotest.(check string) "file" "t.macc" s.Diag.file;
      Alcotest.(check bool) "positioned" true (s.Diag.line > 1));
  let rendered = Diag.render ~src d in
  Alcotest.(check bool) "caret" true (Str_helpers.contains rendered "^");
  Alcotest.(check bool)
    "hint rendered" true
    (Str_helpers.contains rendered "hint:")

let test_finalize_werror_and_filter () =
  let w = Diag.warningf ~code:"SAF032" ~where:"region k" "w" in
  let n = Diag.notef ~code:"SAF030" ~where:"kernel k" "n" in
  let e = Diag.errorf ~code:"SAF010" ~where:"region k" "e" in
  let promoted = Check.finalize ~werror:true [ w; n; e ] in
  Alcotest.(check int) "werror promotes" 2 (List.length (errors promoted));
  Alcotest.(check int) "notes kept" 1 (Diag.count Diag.Note promoted);
  let filtered = Check.finalize ~codes:[ "SAF030" ] [ w; n; e ] in
  Alcotest.(check (list string))
    "errors always kept" [ "SAF010"; "SAF030" ]
    (List.sort compare (codes filtered));
  Alcotest.(check int) "exit 1 on errors" 1 (Check.exit_code promoted);
  Alcotest.(check int) "exit 0 without" 0 (Check.exit_code [ w; n ])

let test_json_shape () =
  let d =
    Diag.make
      ~span:{ Diag.file = "t.macc"; line = 3; col = 7 }
      ~hint:"try \"this\"" ~code:"SAF010" ~where:"region k" Diag.Error
      "a \"quoted\" message"
  in
  let module J = Safara_json.Sjson in
  match J.parse (J.to_string (Diag.list_to_json [ d ])) with
  | J.Arr [ o ] ->
      Alcotest.(check (list (pair string string)))
        "string fields round-trip"
        [
          ("code", "SAF010"); ("severity", "error"); ("file", "t.macc");
          ("where", "region k"); ("message", "a \"quoted\" message");
          ("hint", "try \"this\"");
        ]
        (List.map
           (fun k -> (k, J.to_str (J.member k o)))
           [ "code"; "severity"; "file"; "where"; "message"; "hint" ]);
      Alcotest.(check (pair int int))
        "position" (3, 7)
        (J.to_int (J.member "line" o), J.to_int (J.member "col" o))
  | _ -> Alcotest.fail "expected a one-element JSON array"

let test_check_deterministic () =
  let src = Safara_suites.Spec_sp.workload.Safara_suites.Workload.source in
  let a = run_check src and b = run_check src in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun x y -> Alcotest.(check string) "same order" x.Diag.message y.Diag.message)
    a b

(* --- the pipeline accepts everything we ship ----------------------- *)

let test_workloads_error_free () =
  List.iter
    (fun (w : Safara_suites.Workload.t) ->
      let ds = run_check w.Safara_suites.Workload.source in
      Alcotest.(check (list string))
        (w.Safara_suites.Workload.id ^ " errors") []
        (codes (errors ds)))
    Safara_suites.Registry.all

let suite =
  [
    Alcotest.test_case "race: SIV flow positive" `Quick test_siv_flow_race;
    Alcotest.test_case "race: SIV independent" `Quick test_siv_independent;
    Alcotest.test_case "race: ZIV positive" `Quick test_ziv_race;
    Alcotest.test_case "race: ZIV distinct" `Quick test_ziv_distinct_elements;
    Alcotest.test_case "race: MIV positive" `Quick test_miv_race;
    Alcotest.test_case "race: MIV inner-carried ok" `Quick
      test_miv_inner_carried_ok;
    Alcotest.test_case "race: read-read guard" `Quick test_read_read_not_race;
    Alcotest.test_case "race: seq loop exempt" `Quick test_seq_loop_not_reported;
    Alcotest.test_case "race: scalar recurrence" `Quick test_scalar_recurrence;
    Alcotest.test_case "race: reduction exempt" `Quick test_declared_reduction_ok;
    Alcotest.test_case "verify: clean kernel" `Quick test_verify_clean;
    Alcotest.test_case "verify: use before def" `Quick
      test_verify_use_before_def;
    Alcotest.test_case "verify: one-path def" `Quick
      test_verify_def_on_one_path_only;
    Alcotest.test_case "verify: bad branch target" `Quick
      test_verify_bad_branch_target;
    Alcotest.test_case "verify: fall off end" `Quick test_verify_fall_off_end;
    Alcotest.test_case "verify: store to read-only" `Quick
      test_verify_store_to_readonly;
    Alcotest.test_case "verify: unknown param" `Quick test_verify_unknown_param;
    Alcotest.test_case "verify: load width mismatch" `Quick
      test_verify_width_mismatch;
    Alcotest.test_case "verify: register id at two types" `Quick
      test_verify_two_types;
    Alcotest.test_case "verify: fault order" `Quick test_verify_fault_order;
    Alcotest.test_case "verify: all compiled kernels" `Quick
      test_verify_all_compiled_kernels;
    Alcotest.test_case "lint: dead scalar" `Quick test_lint_dead_scalar;
    Alcotest.test_case "lint: unexploited clause" `Quick
      test_lint_unexploited_clause;
    Alcotest.test_case "lint: uncoalesced note" `Quick
      test_lint_uncoalesced_note;
    Alcotest.test_case "lint: dead store" `Quick test_lint_dead_store;
    Alcotest.test_case "lint: dead-store negatives" `Quick
      test_lint_dead_store_negatives;
    Alcotest.test_case "lint: pressure on demand" `Quick
      test_lint_static_pressure_on_demand;
    Alcotest.test_case "lint: pressure soundness" `Quick
      test_lint_static_pressure_unsound;
    Alcotest.test_case "diag: front-end errors" `Quick test_front_end_errors;
    Alcotest.test_case "diag: spans and caret" `Quick test_spans_and_render;
    Alcotest.test_case "diag: werror and -W" `Quick
      test_finalize_werror_and_filter;
    Alcotest.test_case "diag: json escaping" `Quick test_json_shape;
    Alcotest.test_case "diag: deterministic" `Quick test_check_deterministic;
    Alcotest.test_case "pipeline: workloads error-free" `Quick
      test_workloads_error_free;
    Alcotest.test_case "verify: every mutation class faults" `Quick
      test_verify_mutants_fault;
    QCheck_alcotest.to_alcotest prop_verify_matches_reference;
  ]
