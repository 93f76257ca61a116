module P = Safara_ir.Program
module R = Safara_ir.Region
module K = Safara_vir.Kernel
module Facts = Safara_vir.Facts
module Sjson = Safara_json.Sjson

type safara_mode = Feedback | Exhaustive

type desc = {
  d_name : string;
  d_keep_small : bool;
  d_keep_dim : bool;
  d_safara : safara_mode option;
  d_read_only_cache : bool;
}

let effective_arch arch d =
  if d.d_read_only_cache then arch
  else { arch with Safara_gpu.Arch.has_read_only_cache = false }

let safara_config_of ?override ~arch mode =
  match override with
  | Some c -> c
  | None -> (
      match mode with
      | Feedback -> Safara_transform.Safara.default_config ~arch
      | Exhaustive ->
          (* the PGI-like vendor: single-shot exhaustive replacement
             under a count-only cost model *)
          {
            (Safara_transform.Safara.default_config ~arch) with
            Safara_transform.Safara.use_feedback = false;
            cost_model = `Count_only;
            assumed_free_regs = 4096;
            policy =
              {
                Safara_analysis.Reuse.default_policy with
                Safara_analysis.Reuse.skip_coalesced_read_only = false;
              };
          })

(* ------------------------------------------------------------------ *)
(* The pass catalog                                                    *)
(* ------------------------------------------------------------------ *)

let strip_clauses ~keep_small ~keep_dim =
  Pass.make ~name:"strip-clauses" ~input:Pass.Ir ~output:Pass.Ir
    ~identity:Fun.id (fun _ prog ->
      let strip (r : R.t) =
        {
          r with
          R.dim_groups = (if keep_dim then r.R.dim_groups else []);
          small = (if keep_small then r.R.small else []);
        }
      in
      { prog with P.regions = List.map strip prog.P.regions })

(* no identity: resolution is codegen's precondition (every loop must
   end up parallel or Seq), so it cannot be disabled *)
let resolve_schedules =
  Pass.make ~name:"resolve-schedules" ~input:Pass.Ir ~output:Pass.Ir (fun _ ->
      Safara_analysis.Schedule.resolve_program)

let codegen =
  Pass.make ~name:"codegen" ~input:Pass.Ir ~output:Pass.Vir (fun ctx prog ->
      {
        Pass.v_prog = prog;
        v_kernels =
          List.map
            (fun r ->
              let k = Safara_vir.Codegen.compile_region ~arch:ctx.Pass.arch prog r in
              (k, Facts.make k.K.code))
            prog.P.regions;
      })

(* VIR → VIR code transforms share a shape: map an optimizer over
   every kernel's facts; all are disableable. An optimizer that
   rewrites nothing returns its input facts, and the kernel record is
   then handed on as it is, so {!run} does not verify it again. *)
let vir_pass name f =
  Pass.make ~name ~input:Pass.Vir ~output:Pass.Vir ~identity:Fun.id
    (fun _ s ->
      {
        s with
        Pass.v_kernels =
          List.map
            (fun ((k, facts) as kf) ->
              let facts' = f facts in
              if facts' == facts then kf
              else ({ k with K.code = Facts.code facts' }, facts'))
            s.Pass.v_kernels;
      })

(* the block-local peephole reads no analysis *)
let peephole =
  vir_pass "peephole" (fun f ->
      Facts.update f (Safara_vir.Peephole.optimize (Facts.code f)))

(* the dataflow catalog: global (CFG-wide) optimizations over the
   solver framework, scheduled after the block-local peephole.
   copy-prop exposes dead movs and strength-red's affine facts;
   strength-red leaves the replaced multiplies' feeders dead; dce
   sweeps up after both. *)
let copy_prop = vir_pass "copy-prop" Safara_vir.Copyprop.optimize
let strength_red = vir_pass "strength-red" Safara_vir.Strength.optimize

(* the loop-aware pair: indvar turns per-iteration address
   recomputation into back-edge increments (feeding on strength-red's
   simplifications), memmerge then dedupes reloads whose affine
   addresses provably match; both leave their orphaned feeders to
   dce *)
let indvar = vir_pass "indvar" Safara_vir.Indvar.optimize
let memmerge = vir_pass "memmerge" Safara_vir.Memmerge.optimize
let dce = vir_pass "dce" Safara_vir.Dce.optimize

let assemble =
  Pass.make ~name:"assemble" ~input:Pass.Vir ~output:Pass.Asm (fun ctx s ->
      {
        Pass.a_prog = s.Pass.v_prog;
        a_kernels =
          List.map
            (fun (k, facts) ->
              Safara_ptxas.Assemble.assemble ~facts ~arch:ctx.Pass.arch k)
            s.Pass.v_kernels;
      })

(* ------------------------------------------------------------------ *)
(* Pipelines                                                           *)
(* ------------------------------------------------------------------ *)

type ('a, 'b) seq =
  | Done : ('a, 'a) seq
  | Step : ('a, 'b) Pass.t * ('b, 'c) seq -> ('a, 'c) seq

let rec append : type a b c. (a, b) seq -> (b, c) seq -> (a, c) seq =
 fun s rest -> match s with Done -> rest | Step (p, s') -> Step (p, append s' rest)

let tail =
  Step
    ( codegen,
      Step
        ( peephole,
          Step
            ( copy_prop,
              Step
                ( strength_red,
                  Step
                    (indvar, Step (memmerge, Step (dce, Step (assemble, Done))))
                ) ) ) )

(* ------------------------------------------------------------------ *)
(* Instrumented execution                                              *)
(* ------------------------------------------------------------------ *)

type options = {
  o_disable : string list;
  o_dump : [ `None | `Passes of string list | `All ];
  o_annotate_live : bool;
  o_precise_stats : bool;
  o_verify : bool;
}

let default_options =
  {
    o_disable = [];
    o_dump = `None;
    o_annotate_live = false;
    o_precise_stats = false;
    o_verify = Pass.assertions_enabled;
  }

(* the paper's 2016 OpenUH had no loop-aware VIR optimizer *)
let paper_options = { default_options with o_disable = [ "indvar"; "memmerge" ] }

type report = {
  pr_pass : string;
  pr_stage : string;
  pr_s : float;
  pr_verify_s : float;
  pr_disabled : bool;
  pr_before : Pass.stats;
  pr_after : Pass.stats;
}

type trace = {
  tr_pipeline : string;
  tr_reports : report list;
  tr_dumps : (string * string) list;
}

let check_known what names =
  List.iter
    (fun n ->
      if not (Pass.is_registered n) then
        invalid_arg
          (Printf.sprintf "%s: unknown pass %S (known: %s)" what n
             (String.concat ", " (Pass.registered ()))))
    names

let run ?(options = default_options) ~name ctx pipe input =
  check_known "--disable-pass" options.o_disable;
  (match options.o_dump with
  | `Passes l -> check_known "--dump-ir" l
  | `None | `All -> ());
  let wants_dump n =
    match options.o_dump with
    | `None -> false
    | `All -> true
    | `Passes l -> List.mem n l
  in
  let precise = options.o_precise_stats in
  let reports = ref [] and dumps = ref [] in
  let rec go : type x y. (x, y) seq -> x -> Pass.stats option -> y =
   fun s v before ->
    match s with
    | Done -> v
    | Step (p, rest) ->
        let before =
          match before with
          | Some st -> st
          | None -> Pass.measure ~precise p.Pass.input v
        in
        let disabled = List.mem p.Pass.name options.o_disable in
        let t0 = Safara_engine.Clock.now () in
        let v' =
          if disabled then
            match p.Pass.identity with
            | Some f -> f v
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "pass %s changes the IR stage and cannot be disabled"
                     p.Pass.name)
          else p.Pass.run ctx v
        in
        let t1 = Safara_engine.Clock.now () in
        let dt = t1 -. t0 in
        (* a step's output is verified except for the kernel values it
           handed on unchanged, whose facts are verified already *)
        let verify_s =
          if disabled || not options.o_verify then 0.
          else begin
            Pass.verify p.Pass.output v';
            Safara_engine.Clock.now () -. t1
          end
        in
        (* a disabled step hands its input on unchanged: its input's
           stats are its output's *)
        let after =
          if disabled then before else Pass.measure ~precise p.Pass.output v'
        in
        reports :=
          {
            pr_pass = p.Pass.name;
            pr_stage = Pass.stage_name p.Pass.output;
            (* clamp below the clock's resolution floor so a pass that
               ran is never reported as exactly zero *)
            pr_s = (if dt > 0. then dt else 1e-9);
            pr_verify_s = verify_s;
            pr_disabled = disabled;
            pr_before = before;
            pr_after = after;
          }
          :: !reports;
        if wants_dump p.Pass.name then begin
          let render =
            if options.o_annotate_live then Pass.dump_annotated else Pass.dump
          in
          dumps := (p.Pass.name, render p.Pass.output v') :: !dumps
        end;
        go rest v' (Some after)
  in
  let result = go pipe input None in
  ( result,
    {
      tr_pipeline = name;
      tr_reports = List.rev !reports;
      tr_dumps = List.rev !dumps;
    } )

(* ------------------------------------------------------------------ *)
(* SAFARA and the head                                                 *)
(* ------------------------------------------------------------------ *)

(* SAFARA's feedback compiles codegen → peephole → assemble: the tail
   with its five dataflow passes disabled *)
let feedback_options =
  { default_options with
    o_disable = [ "copy-prop"; "strength-red"; "indvar"; "memmerge"; "dce" ] }

let feedback ctx prog r =
  let final, _ =
    run ~options:feedback_options ~name:"feedback" ctx tail
      { prog with P.regions = [ r ] }
  in
  let k, _, report = List.hd final.Pass.a_kernels in
  (k, report)

let safara ?override mode =
  Pass.make ~name:"safara" ~input:Pass.Ir ~output:Pass.Ir ~identity:Fun.id
    (fun ctx prog ->
      let config = safara_config_of ?override ~arch:ctx.Pass.arch mode in
      let feedback =
        Option.value ctx.Pass.feedback ~default:(fun p r ->
            (snd (feedback ctx p r)).Safara_ptxas.Assemble.regs_used)
      in
      let prog', logs =
        Safara_transform.Safara.optimize_program ~config ~feedback
          ?candidates:ctx.Pass.candidates ~arch:ctx.Pass.arch
          ~latency:ctx.Pass.latency prog
      in
      ctx.Pass.logs <- logs;
      prog')

let head ?safara_config d =
  let safara =
    match d.d_safara with
    | None -> Done
    | Some mode -> Step (safara ?override:safara_config mode, Done)
  in
  Step
    ( strip_clauses ~keep_small:d.d_keep_small ~keep_dim:d.d_keep_dim,
      Step (resolve_schedules, safara) )

let build ?safara_config d = append (head ?safara_config d) tail

let rec seq_names : type a b. (a, b) seq -> string list = function
  | Done -> []
  | Step (p, rest) -> p.Pass.name :: seq_names rest

let pass_names ?safara_config d = seq_names (build ?safara_config d)
let tail_names = seq_names tail

(* descriptors, pass lists, SAFARA configs and disable sets are plain
   immutable data, so marshalling them is a faithful content address *)
let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let signature ?safara_config ?(disable = []) d =
  digest_of
    (d, pass_names ?safara_config d, safara_config, List.sort compare disable)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_trace ppf t =
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. t.tr_reports in
  Format.fprintf ppf "pass timings (pipeline %s)@." t.tr_pipeline;
  Format.fprintf ppf "  %-18s %-5s %12s %12s %8s %8s %8s %8s %6s@." "pass"
    "stage" "seconds" "verify" "units" "stmts" "instrs" "vregs" "regs";
  List.iter
    (fun r ->
      let s = r.pr_after in
      Format.fprintf ppf "  %-18s %-5s %12.6f %12.6f %8d %8d %8d %8d %6d%s@."
        r.pr_pass r.pr_stage r.pr_s r.pr_verify_s s.Pass.s_units
        s.Pass.s_stmts s.Pass.s_instrs s.Pass.s_vregs s.Pass.s_regs
        (if r.pr_disabled then "  (disabled)" else ""))
    t.tr_reports;
  Format.fprintf ppf "  %-18s %-5s %12.6f %12.6f@." "total" ""
    (total (fun r -> r.pr_s))
    (total (fun r -> r.pr_verify_s))

let trace_to_json t =
  let open Sjson in
  let stats (s : Pass.stats) =
    Obj
      [
        ("units", int s.Pass.s_units);
        ("stmts", int s.Pass.s_stmts);
        ("instrs", int s.Pass.s_instrs);
        ("vregs", int s.Pass.s_vregs);
        ("regs", int s.Pass.s_regs);
      ]
  in
  Obj
    [
      ("pipeline", Str t.tr_pipeline);
      ( "passes",
        Arr
          (List.map
             (fun r ->
               Obj
                 [
                   ("name", Str r.pr_pass);
                   ("stage", Str r.pr_stage);
                   ("seconds", Num r.pr_s);
                   ("verify_seconds", Num r.pr_verify_s);
                   ("disabled", Bool r.pr_disabled);
                   ("before", stats r.pr_before);
                   ("after", stats r.pr_after);
                 ])
             t.tr_reports) );
    ]
