(* VIR verifier: structural and dataflow well-formedness of kernels.

   The pipeline runs it on every kernel value the tail produces, once:
   after codegen, and after each VIR-level pass (peephole, copy
   propagation, strength reduction, induction variables, memory
   merging, dead-code elimination) and assembly on the kernels that
   step changed. A pass that rewrites nothing hands its input kernel
   on physically, and that value was verified already. The assembled
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

(* Def-before-use, via the reaching-definitions solver: a synthetic
   "uninitialized" definition of every register is placed at entry,
   and any use it can reach is a fault. "Uninit may reach" is exactly
   "not defined on all paths", so this reports the same faults as the
   old hand-rolled must-reach walk — with the definition sites that
   do reach on the other paths named in the message. *)
let check_def_before_use ~nregs kern =
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
      (Dataflow.Reach.possibly_uninitialized ~nregs cfg)

let op_cls = function
  | Instr.Reg r -> Some (Vreg.cls r)
  | Instr.Imm _ | Instr.FImm _ -> None

(* operand/instruction type agreement of one instruction *)
let check_types kern ~params add i ins =
  match ins with
  | Instr.Ldp { param; _ } ->
      if not (Hashtbl.mem params param) then
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
  | _ -> ()

let writable (s : M.space) =
  match s with
  | M.Global | M.Shared | M.Local -> true
  | M.Read_only | M.Constant | M.Param -> false

let check_memspace kern add i ins =
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
  | _ -> ()

let unseen = { Vreg.rid = -1; rty = Safara_ir.Types.Bool }
let clashed = { Vreg.rid = -2; rty = Safara_ir.Types.Bool }

(* One walk over the code collects the control-flow, type and
   memory-space faults; they are reported per check, each in
   instruction order, with the def-before-use faults between control
   flow and types. The rid-indexed register tables downstream
   (liveness, the allocator's intervals) assume each register id has
   one type, so a second type is a type fault, reported once per id. *)
let verify (kern : Kernel.t) : Diag.t list =
  let code = kern.Kernel.code in
  let labels = Hashtbl.create 16 and params = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace params p ()) (Kernel.param_names kern);
  let dups = ref [] and branches = ref [] in
  let types = ref [] and spaces = ref [] in
  let add_type f = types := f :: !types in
  let first = ref (Array.make 64 unseen) and has_ret = ref false in
  let at = ref 0 and nregs = ref 0 in
  let one_type (r : Vreg.t) =
    let id = r.Vreg.rid in
    if id >= Array.length !first then begin
      let a = Array.make (max (id + 1) (2 * Array.length !first)) unseen in
      Array.blit !first 0 a 0 (Array.length !first);
      first := a
    end;
    if id >= !nregs then nregs := id + 1;
    let r0 = !first.(id) in
    if r0 == unseen then !first.(id) <- r
    else if r0 != clashed && r0.Vreg.rty <> r.Vreg.rty then begin
      add_type
        (fault kern ~at:!at "register id %d used at two types (%s, %s)" id
           (Vreg.to_string r0) (Vreg.to_string r));
      !first.(id) <- clashed
    end
  in
  let add_space f = spaces := f :: !spaces in
  Array.iteri
    (fun i ins ->
      at := i;
      (match ins with
      | Instr.Label l ->
          if Hashtbl.mem labels l then
            dups := fault kern ~at:i "duplicate label %s" l :: !dups
          else Hashtbl.add labels l ()
      | Instr.Ret -> has_ret := true
      | Instr.Bra t | Instr.Brc { target = t; _ } -> branches := (i, t) :: !branches
      | _ -> ());
      check_types kern ~params add_type i ins;
      Instr.iter_defs one_type ins;
      Instr.iter_uses one_type ins;
      check_memspace kern add_space i ins)
    code;
  let undefined =
    List.filter_map
      (fun (i, t) ->
        if Hashtbl.mem labels t then None
        else Some (fault kern ~at:i "branch to undefined label %s" t))
      (List.rev !branches)
  in
  let n = Array.length code in
  let ending =
    if n = 0 then [ fault kern ~at:0 "kernel has no code" ]
    else
      (match code.(n - 1) with
      | Instr.Ret | Instr.Bra _ -> []
      | _ -> [ fault kern ~at:(n - 1) "control falls off the end of the kernel" ])
      @ if !has_ret then [] else [ fault kern ~at:(n - 1) "kernel has no ret" ]
  in
  List.rev !dups @ undefined @ ending
  @ check_def_before_use ~nregs:!nregs kern
  @ List.rev !types @ List.rev !spaces

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
