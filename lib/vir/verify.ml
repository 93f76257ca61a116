(* VIR verifier: structural and dataflow well-formedness of kernels.

   The pipeline runs it on every kernel value the tail produces, once:
   after codegen, and after each VIR pass (peephole, copy propagation,
   strength reduction, induction variables, memory merging, dead-code
   elimination) and assembly on the kernels that step changed. A pass
   that rewrites nothing hands its input kernel on physically, and
   that value was verified already. The assembled code is still in
   virtual-register form, so the same checks apply. Faults are SAF020
   diagnostics; any fault is a compiler bug, not a user error.

   One walk over the code checks every per-instruction rule, reading
   the code's facts (its CFG's label table, its register-id bound)
   instead of building tables of its own, and allocates a diagnostic
   only when a rule fails. Def-before-use is the facts' bitset screen,
   which names the reaching definitions only when it fires. *)

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

let unseen = { Vreg.rid = -1; rty = Safara_ir.Types.Bool }
let clashed = { Vreg.rid = -2; rty = Safara_ir.Types.Bool }

(* The walk's state. Each fault list is kept reversed; [first] maps a
   register id to the first register seen at it ([unseen], or
   [clashed] once a second type was reported). *)
type walk = {
  kern : Kernel.t;
  cfg : Cfg.t;
  first : Vreg.t array;
  mutable at : int;
  mutable dups : Diag.t list;
  mutable undefined : Diag.t list;
  mutable types : Diag.t list;
  mutable spaces : Diag.t list;
  mutable has_ret : bool;
}

(* The rid-indexed register tables downstream (liveness, the
   allocator's intervals) assume each register id has one type, so a
   second type is a type fault, reported once per id. *)
let one_type w (r : Vreg.t) =
  let id = r.Vreg.rid in
  let r0 = w.first.(id) in
  if r0 == unseen then w.first.(id) <- r
  else if r0 != clashed && r0.Vreg.rty <> r.Vreg.rty then begin
    w.types <-
      fault w.kern ~at:w.at "register id %d used at two types (%s, %s)" id
        (Vreg.to_string r0) (Vreg.to_string r)
      :: w.types;
    w.first.(id) <- clashed
  end

let add_type w f = w.types <- f :: w.types
let add_space w f = w.spaces <- f :: w.spaces

let is_pred = function
  | Instr.Reg r -> Vreg.cls r = Vreg.Pred
  | Instr.Imm _ | Instr.FImm _ -> false

(* [and]/[or] are legal on predicates and on integers, as long as the
   operand's class is the destination's *)
let class_differs (dst : Vreg.t) = function
  | Instr.Reg r -> Vreg.cls r <> Vreg.cls dst
  | Instr.Imm _ | Instr.FImm _ -> false

let rec has_param name = function
  | [] -> false
  | (Kernel.P_scalar (n, _) | Kernel.P_array n) :: rest ->
      String.equal n name || has_param name rest

let writable (s : M.space) =
  match s with
  | M.Global | M.Shared | M.Local -> true
  | M.Read_only | M.Constant | M.Param -> false

(* control flow: a label is a leader, so it starts its own block, and
   the CFG maps each label to the block of its first occurrence *)
let check_control w i ins =
  match ins with
  | Instr.Label l ->
      let b = Hashtbl.find w.cfg.Cfg.label_block l in
      if w.cfg.Cfg.blocks.(b).Cfg.first <> i then
        w.dups <- fault w.kern ~at:i "duplicate label %s" l :: w.dups
  | Instr.Ret -> w.has_ret <- true
  | Instr.Bra t | Instr.Brc { target = t; _ } ->
      if not (Hashtbl.mem w.cfg.Cfg.label_block t) then
        w.undefined <-
          fault w.kern ~at:i "branch to undefined label %s" t :: w.undefined
  | _ -> ()

(* operand/instruction type agreement of one instruction *)
let check_types w i ins =
  let kern = w.kern in
  match ins with
  | Instr.Ldp { param; _ } ->
      if not (has_param param kern.Kernel.params) then
        add_type w (fault kern ~at:i "ld.param of %s, not a kernel parameter" param)
  | Instr.Setp { dst; a; b; _ } ->
      if Vreg.cls dst <> Vreg.Pred then
        add_type w
          (fault kern ~at:i "setp destination %s is not a predicate"
             (Vreg.to_string dst));
      if is_pred a then add_type w (fault kern ~at:i "setp compares a predicate operand");
      if is_pred b then add_type w (fault kern ~at:i "setp compares a predicate operand")
  | Instr.Brc { pred; _ } ->
      if Vreg.cls pred <> Vreg.Pred then
        add_type w
          (fault kern ~at:i "branch condition %s is not a predicate"
             (Vreg.to_string pred))
  | Instr.Bin { op = (Instr.And | Instr.Or) as op; dst; a; b } ->
      if class_differs dst a then
        add_type w
          (fault kern ~at:i "%s operand class differs from destination %s"
             (Instr.binop_to_string op) (Vreg.to_string dst));
      if class_differs dst b then
        add_type w
          (fault kern ~at:i "%s operand class differs from destination %s"
             (Instr.binop_to_string op) (Vreg.to_string dst))
  | Instr.Bin { op; dst; _ } ->
      if Vreg.cls dst = Vreg.Pred then
        add_type w
          (fault kern ~at:i "%s writes predicate register %s"
             (Instr.binop_to_string op) (Vreg.to_string dst))
  | Instr.Una { op; dst; a = _ } ->
      if op <> Instr.Not && Vreg.cls dst = Vreg.Pred then
        add_type w
          (fault kern ~at:i "%s writes predicate register %s"
             (Instr.unop_to_string op) (Vreg.to_string dst))
  | Instr.Cvt { dst; src } ->
      if Vreg.cls dst = Vreg.Pred || Vreg.cls src = Vreg.Pred then
        add_type w (fault kern ~at:i "cvt involving a predicate register")
  | Instr.Ld { dst; mem; _ } ->
      let want = Safara_ir.Types.size_bytes dst.Vreg.rty in
      if mem.Instr.m_bytes <> want then
        add_type w
          (fault kern ~at:i "ld.b%d into %d-byte register %s"
             (mem.Instr.m_bytes * 8) want (Vreg.to_string dst))
  | _ -> ()

(* memory-space legality *)
let check_memspace w i ins =
  match ins with
  | Instr.St { mem; _ } ->
      if not (writable mem.Instr.m_space) then
        add_space w
          (fault w.kern ~at:i "store to read-only %s memory"
             (M.space_to_string mem.Instr.m_space))
  | Instr.Atom { mem; _ } ->
      if not (writable mem.Instr.m_space) then
        add_space w
          (fault w.kern ~at:i "atomic to read-only %s memory"
             (M.space_to_string mem.Instr.m_space))
  | Instr.Ld { mem; _ } ->
      if mem.Instr.m_space = M.Param then
        add_space w (fault w.kern ~at:i "ld from param space (use ld.param)")
  | _ -> ()

(* Def-before-use: the synthetic "uninitialized" definition of every
   register, placed at entry, may reach the use — exactly "not defined
   on all paths"; the message names the definition sites that do reach
   on the other paths. *)
let def_before_use kern facts =
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
    (Dataflow.Reach.possibly_uninitialized (Facts.cfg facts) (Facts.sets facts))

(* Faults are reported per check, each in instruction order: labels,
   branch targets, the kernel's end, def-before-use, types (the
   per-instruction rules, then the register-id types of its defs and
   uses), memory spaces. *)
let verify ?facts (kern : Kernel.t) : Diag.t list =
  let code = kern.Kernel.code in
  let n = Array.length code in
  if n = 0 then [ fault kern ~at:0 "kernel has no code" ]
  else begin
    let facts = match facts with Some f -> f | None -> Facts.make code in
    assert (Facts.code facts == code);
    let w =
      {
        kern;
        cfg = Facts.cfg facts;
        first = Array.make (Facts.bound facts) unseen;
        at = 0;
        dups = [];
        undefined = [];
        types = [];
        spaces = [];
        has_ret = false;
      }
    in
    let note = one_type w in
    for i = 0 to n - 1 do
      let ins = code.(i) in
      w.at <- i;
      check_control w i ins;
      check_types w i ins;
      Instr.iter_defs note ins;
      Instr.iter_uses note ins;
      check_memspace w i ins
    done;
    let ending =
      (match code.(n - 1) with
      | Instr.Ret | Instr.Bra _ -> []
      | _ -> [ fault kern ~at:(n - 1) "control falls off the end of the kernel" ])
      @ if w.has_ret then [] else [ fault kern ~at:(n - 1) "kernel has no ret" ]
    in
    List.rev_append w.dups
      (List.rev_append w.undefined
         (ending
         @ def_before_use kern facts
         @ List.rev_append w.types (List.rev w.spaces)))
  end

let verify_exn ?facts kern =
  match verify ?facts kern with
  | [] -> ()
  | faults ->
      let msg =
        Format.asprintf "@[<v>VIR verifier: kernel %s is ill-formed:@,%a@]"
          kern.Kernel.kname
          (Format.pp_print_list ~pp_sep:Format.pp_print_cut Diag.pp)
          faults
      in
      invalid_arg msg
