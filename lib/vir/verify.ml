(* VIR verifier: structural and dataflow well-formedness of kernels.

   Runs after codegen and again after every VIR-level pass (peephole,
   copy propagation, strength reduction, induction variables, memory
   merging, dead-code elimination) and after assembly — the assembled
   code is still in virtual-register form, so the same checks apply.
   Faults are SAF020 diagnostics; any fault is a compiler bug, not a
   user error. *)

module Diag = Safara_diag.Diagnostic
module M = Safara_gpu.Memspace

let fault kern ~at fmt =
  Format.kasprintf
    (fun m ->
      Diag.make ~code:"SAF020"
        ~where:("kernel " ^ kern.Kernel.kname)
        Diag.Error
        (Printf.sprintf "instr %d: %s" at m))
    fmt

(* --- checks ------------------------------------------------------- *)

let check_control_flow kern =
  let code = kern.Kernel.code in
  let faults = ref [] in
  let add f = faults := f :: !faults in
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun i ins ->
      match ins with
      | Instr.Label l ->
          if Hashtbl.mem labels l then
            add (fault kern ~at:i "duplicate label %s" l)
          else Hashtbl.add labels l ()
      | _ -> ())
    code;
  Array.iteri
    (fun i ins ->
      List.iter
        (fun t ->
          if not (Hashtbl.mem labels t) then
            add (fault kern ~at:i "branch to undefined label %s" t))
        (Instr.branch_targets ins))
    code;
  let n = Array.length code in
  (if n = 0 then add (fault kern ~at:0 "kernel has no code")
   else
     match code.(n - 1) with
     | Instr.Ret | Instr.Bra _ -> ()
     | _ -> add (fault kern ~at:(n - 1) "control falls off the end of the kernel"));
  if
    n > 0
    && not (Array.exists (function Instr.Ret -> true | _ -> false) code)
  then add (fault kern ~at:(n - 1) "kernel has no ret");
  List.rev !faults

(* Def-before-use, via the reaching-definitions solver: a synthetic
   "uninitialized" definition of every register is placed at entry,
   and any use it can reach is a fault. "Uninit may reach" is exactly
   "not defined on all paths", so this reports the same faults as the
   old hand-rolled must-reach walk — with the definition sites that
   do reach on the other paths named in the message. *)
let check_def_before_use kern =
  let code = kern.Kernel.code in
  if Array.length code = 0 then []
  else
    let cfg = Cfg.build code in
    List.map
      (fun (f : Dataflow.Reach.fault) ->
        match f.Dataflow.Reach.f_partial with
        | [] ->
            fault kern ~at:f.Dataflow.Reach.f_at
              "register %s used before definition"
              (Vreg.to_string f.Dataflow.Reach.f_reg)
        | sites ->
            fault kern ~at:f.Dataflow.Reach.f_at
              "register %s used before definition on some paths (defined \
               only at instr %s)"
              (Vreg.to_string f.Dataflow.Reach.f_reg)
              (String.concat ", " (List.map string_of_int sites)))
      (Dataflow.Reach.possibly_uninitialized cfg)

let op_cls = function
  | Instr.Reg r -> Some (Vreg.cls r)
  | Instr.Imm _ | Instr.FImm _ -> None

let check_types kern =
  let code = kern.Kernel.code in
  let faults = ref [] in
  let add f = faults := f :: !faults in
  let pnames = Kernel.param_names kern in
  Array.iteri
    (fun i ins ->
      match ins with
      | Instr.Ldp { param; _ } ->
          if not (List.mem param pnames) then
            add (fault kern ~at:i "ld.param of %s, not a kernel parameter" param)
      | Instr.Setp { dst; a; b; _ } ->
          if Vreg.cls dst <> Vreg.Pred then
            add
              (fault kern ~at:i "setp destination %s is not a predicate"
                 (Vreg.to_string dst));
          List.iter
            (fun o ->
              if op_cls o = Some Vreg.Pred then
                add (fault kern ~at:i "setp compares a predicate operand"))
            [ a; b ]
      | Instr.Brc { pred; _ } ->
          if Vreg.cls pred <> Vreg.Pred then
            add
              (fault kern ~at:i "branch condition %s is not a predicate"
                 (Vreg.to_string pred))
      | Instr.Bin { op; dst; a; b } -> (
          match op with
          | Instr.And | Instr.Or ->
              (* legal on predicates and on integers *)
              List.iter
                (fun o ->
                  match op_cls o with
                  | Some c when c <> Vreg.cls dst ->
                      add
                        (fault kern ~at:i
                           "%s operand class differs from destination %s"
                           (Instr.binop_to_string op) (Vreg.to_string dst))
                  | _ -> ())
                [ a; b ]
          | _ ->
              if Vreg.cls dst = Vreg.Pred then
                add
                  (fault kern ~at:i "%s writes predicate register %s"
                     (Instr.binop_to_string op) (Vreg.to_string dst)))
      | Instr.Una { op; dst; a = _ } ->
          if op <> Instr.Not && Vreg.cls dst = Vreg.Pred then
            add
              (fault kern ~at:i "%s writes predicate register %s"
                 (Instr.unop_to_string op) (Vreg.to_string dst))
      | Instr.Cvt { dst; src } ->
          if Vreg.cls dst = Vreg.Pred || Vreg.cls src = Vreg.Pred then
            add (fault kern ~at:i "cvt involving a predicate register")
      | Instr.Ld { dst; mem; _ } ->
          let want = Safara_ir.Types.size_bytes dst.Vreg.rty in
          if mem.Instr.m_bytes <> want then
            add
              (fault kern ~at:i "ld.b%d into %d-byte register %s"
                 (mem.Instr.m_bytes * 8) want (Vreg.to_string dst))
      | _ -> ())
    code;
  List.rev !faults

let writable (s : M.space) =
  match s with
  | M.Global | M.Shared | M.Local -> true
  | M.Read_only | M.Constant | M.Param -> false

let check_memspaces kern =
  let code = kern.Kernel.code in
  let faults = ref [] in
  let add f = faults := f :: !faults in
  Array.iteri
    (fun i ins ->
      match ins with
      | Instr.St { mem; _ } ->
          if not (writable mem.Instr.m_space) then
            add
              (fault kern ~at:i "store to read-only %s memory"
                 (M.space_to_string mem.Instr.m_space))
      | Instr.Atom { mem; _ } ->
          if not (writable mem.Instr.m_space) then
            add
              (fault kern ~at:i "atomic to read-only %s memory"
                 (M.space_to_string mem.Instr.m_space))
      | Instr.Ld { mem; _ } ->
          if mem.Instr.m_space = M.Param then
            add (fault kern ~at:i "ld from param space (use ld.param)")
      | _ -> ())
    code;
  List.rev !faults

let verify (kern : Kernel.t) : Diag.t list =
  check_control_flow kern
  @ check_def_before_use kern
  @ check_types kern
  @ check_memspaces kern

let verify_exn kern =
  match verify kern with
  | [] -> ()
  | faults ->
      let msg =
        Format.asprintf "@[<v>VIR verifier: kernel %s is ill-formed:@,%a@]"
          kern.Kernel.kname
          (Format.pp_print_list ~pp_sep:Format.pp_print_cut Diag.pp)
          faults
      in
      invalid_arg msg
