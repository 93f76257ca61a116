(* The VIR verifier as it was before it read the code's facts: its own
   label and parameter tables, a type table grown as register ids
   appear, closures per instruction, its own CFG, and def-before-use
   from the unscreened reaching-definitions site analysis. The check
   suite runs the production [Verify.verify] against it on mutated
   registry kernels: the same diagnostics, in the same order. *)

open Safara_vir

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
let check_def_before_use kern =
  let code = kern.Kernel.code in
  if Array.length code = 0 then []
  else
    let cfg = Cfg.build code in
    let at_start, _ = Dataflow.Reach.analyze cfg in
    let faults = ref [] in
    for b = 0 to Cfg.num_blocks cfg - 1 do
      let st = ref at_start.(b) in
      Cfg.iter_instrs cfg b (fun i ins ->
          List.iter
            (fun (u : Vreg.t) ->
              match Dataflow.IM.find_opt u.Vreg.rid !st with
              | Some sites when Dataflow.IS.mem Dataflow.Reach.uninit sites -> (
                  match
                    Dataflow.IS.elements
                      (Dataflow.IS.remove Dataflow.Reach.uninit sites)
                  with
                  | [] ->
                      faults :=
                        fault kern ~at:i "register %s used before definition"
                          (Vreg.to_string u)
                        :: !faults
                  | sites ->
                      faults :=
                        fault kern ~at:i
                          "register %s used before definition on some paths \
                           (defined only at instr %s)"
                          (Vreg.to_string u)
                          (String.concat ", " (List.map string_of_int sites))
                        :: !faults)
              | _ -> ())
            (Instr.uses ins);
          List.iter
            (fun (d : Vreg.t) -> st := Dataflow.IM.add d.Vreg.rid (Dataflow.IS.singleton i) !st)
            (Instr.defs ins))
    done;
    List.rev !faults

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
  let at = ref 0 in
  let one_type (r : Vreg.t) =
    let id = r.Vreg.rid in
    if id >= Array.length !first then begin
      let a = Array.make (max (id + 1) (2 * Array.length !first)) unseen in
      Array.blit !first 0 a 0 (Array.length !first);
      first := a
    end;
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
  @ check_def_before_use kern
  @ List.rev !types @ List.rev !spaces
