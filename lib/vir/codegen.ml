module E = Safara_ir.Expr
module S = Safara_ir.Stmt
module T = Safara_ir.Types
module R = Safara_ir.Region
module M = Safara_gpu.Memspace
module I = Instr

exception Error of string

let err fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

type ctx = {
  arch : Safara_gpu.Arch.t;
  prog : Safara_ir.Program.t;
  region : R.t;
  mapping : Safara_analysis.Mapping.t;
  b : Builder.t;
  addr : Addressing.t;
  modes : (string * Addressing.mode) list;
  mutable vars : (string * Vreg.t) list;  (** scalars: params, locals, indices *)
  mutable axes : Kernel.axis_map list;
  params_used : (string, unit) Hashtbl.t;
}

let elem_of ctx a = Safara_ir.Program.elem_type ctx.prog a

let axis_of : Safara_analysis.Mapping.axis -> I.axis = function
  | Safara_analysis.Mapping.X -> I.X
  | Safara_analysis.Mapping.Y -> I.Y
  | Safara_analysis.Mapping.Z -> I.Z

let mem_of ctx array subs =
  let md =
    match List.assoc_opt array ctx.modes with
    | Some md -> md
    | None -> err "array %s has no addressing mode" array
  in
  let elem_bytes = T.size_bytes md.Addressing.md_array.Safara_ir.Array_info.elem in
  let access =
    Safara_analysis.Coalescing.classify ~mapping:ctx.mapping
      ~warp_size:ctx.arch.Safara_gpu.Arch.warp_size
      ~segment_bytes:ctx.arch.Safara_gpu.Arch.mem_segment_bytes ~elem_bytes subs
  in
  { I.m_space = md.Addressing.md_space; m_access = access; m_bytes = elem_bytes }

(* ------------------------------------------------------------------ *)
(* Scalars                                                             *)
(* ------------------------------------------------------------------ *)

let lookup_var ctx name = List.assoc_opt name ctx.vars

let param_reg ctx (v : E.var) =
  match lookup_var ctx v.E.vname with
  | Some r -> r
  | None ->
      (* a program parameter: load it from param space on first use *)
      if not (List.exists (fun (p : E.var) -> p.E.vname = v.E.vname) ctx.prog.Safara_ir.Program.params)
      then err "undefined scalar %s" v.E.vname;
      Hashtbl.replace ctx.params_used v.E.vname ();
      let r = Builder.fresh ctx.b v.E.vtype in
      Builder.emit ctx.b (I.Ldp { dst = r; param = v.E.vname });
      ctx.vars <- (v.E.vname, r) :: ctx.vars;
      r

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let coerce ctx (op : I.operand) ~from_ty ~to_ty : I.operand =
  if T.equal from_ty to_ty then op
  else
    match op with
    | I.Imm n -> if T.is_float to_ty then I.FImm (float_of_int n) else I.Imm n
    | I.FImm f ->
        if T.is_float to_ty then I.FImm f
        else I.Imm (int_of_float f)
    | I.Reg r ->
        let dst = Builder.fresh ctx.b to_ty in
        Builder.emit ctx.b (I.Cvt { dst; src = r });
        I.Reg dst

let ir_binop : E.binop -> [ `Bin of I.binop | `Cmp of I.cmp ] = function
  | E.Add -> `Bin I.Add
  | E.Sub -> `Bin I.Sub
  | E.Mul -> `Bin I.Mul
  | E.Div -> `Bin I.Div
  | E.Mod -> `Bin I.Rem
  | E.Min -> `Bin I.Min
  | E.Max -> `Bin I.Max
  | E.And -> `Bin I.And
  | E.Or -> `Bin I.Or
  | E.Eq -> `Cmp I.Eq
  | E.Ne -> `Cmp I.Ne
  | E.Lt -> `Cmp I.Lt
  | E.Le -> `Cmp I.Le
  | E.Gt -> `Cmp I.Gt
  | E.Ge -> `Cmp I.Ge

let ir_intrinsic : E.intrinsic -> I.unop option = function
  | E.Sqrt -> Some I.Sqrt
  | E.Exp -> Some I.Exp
  | E.Log -> Some I.Log
  | E.Sin -> Some I.Sin
  | E.Cos -> Some I.Cos
  | E.Fabs -> Some I.Fabs
  | E.Floor -> Some I.Floor
  | E.Pow -> None

let rec compile_expr ctx (e : E.t) : I.operand * T.dtype =
  match e with
  | E.Int_lit (n, ty) -> (I.Imm n, ty)
  | E.Float_lit (f, ty) -> (I.FImm f, ty)
  | E.Var v -> (I.Reg (param_reg ctx v), v.E.vtype)
  | E.Load (a, subs) ->
      let addr = compile_address ctx a subs in
      let ty = elem_of ctx a in
      let dst = Builder.fresh ctx.b ty in
      Builder.emit ctx.b (I.Ld { dst; addr; mem = mem_of ctx a subs; note = a });
      (I.Reg dst, ty)
  | E.Binop (op, x, y) -> (
      let ox, tx = compile_expr ctx x in
      let oy, ty = compile_expr ctx y in
      let join = T.join tx ty in
      match ir_binop op with
      | `Cmp cmp ->
          let a = coerce ctx ox ~from_ty:tx ~to_ty:join in
          let b = coerce ctx oy ~from_ty:ty ~to_ty:join in
          let dst = Builder.fresh ctx.b T.Bool in
          Builder.emit ctx.b (I.Setp { cmp; dst; a; b });
          (I.Reg dst, T.Bool)
      | `Bin ((I.And | I.Or) as bop) ->
          (* logical connectives operate on predicates *)
          let dst = Builder.fresh ctx.b T.Bool in
          Builder.emit ctx.b (I.Bin { op = bop; dst; a = ox; b = oy });
          (I.Reg dst, T.Bool)
      | `Bin bop ->
          let a = coerce ctx ox ~from_ty:tx ~to_ty:join in
          let b = coerce ctx oy ~from_ty:ty ~to_ty:join in
          let dst = Builder.fresh ctx.b join in
          Builder.emit ctx.b (I.Bin { op = bop; dst; a; b });
          (I.Reg dst, join))
  | E.Unop (E.Neg, x) ->
      let ox, tx = compile_expr ctx x in
      let dst = Builder.fresh ctx.b tx in
      Builder.emit ctx.b (I.Una { op = I.Neg; dst; a = ox });
      (I.Reg dst, tx)
  | E.Unop (E.Not, x) ->
      let ox, _ = compile_expr ctx x in
      let dst = Builder.fresh ctx.b T.Bool in
      Builder.emit ctx.b (I.Una { op = I.Not; dst; a = ox });
      (I.Reg dst, T.Bool)
  | E.Call (E.Pow, [ x; y ]) ->
      let ox, tx = compile_expr ctx x in
      let oy, ty = compile_expr ctx y in
      let join = T.join T.F32 (T.join tx ty) in
      let a = coerce ctx ox ~from_ty:tx ~to_ty:join in
      let b = coerce ctx oy ~from_ty:ty ~to_ty:join in
      let dst = Builder.fresh ctx.b join in
      Builder.emit ctx.b (I.Bin { op = I.Pow; dst; a; b });
      (I.Reg dst, join)
  | E.Call (intr, [ x ]) -> (
      match ir_intrinsic intr with
      | Some op ->
          let ox, tx = compile_expr ctx x in
          let ty = if T.is_float tx then tx else T.F64 in
          let a = coerce ctx ox ~from_ty:tx ~to_ty:ty in
          let dst = Builder.fresh ctx.b ty in
          Builder.emit ctx.b (I.Una { op; dst; a });
          (I.Reg dst, ty)
      | None -> err "bad intrinsic arity")
  | E.Call (intr, args) ->
      err "intrinsic %s applied to %d arguments" (E.intrinsic_to_string intr)
        (List.length args)
  | E.Cast (ty, x) ->
      let ox, tx = compile_expr ctx x in
      (coerce ctx ox ~from_ty:tx ~to_ty:ty, ty)

and compile_sub ctx (s : E.t) : I.operand =
  let op, ty = compile_expr ctx s in
  if T.is_float ty then err "float subscript";
  op

and compile_address ctx a subs =
  Addressing.address_of ctx.addr ~compile_sub:(compile_sub ctx) a subs

(* a boolean expression as a predicate register *)
let compile_pred ctx (e : E.t) : Vreg.t =
  match compile_expr ctx e with
  | I.Reg r, T.Bool -> r
  | op, ty ->
      (* non-boolean condition: compare against zero *)
      let dst = Builder.fresh ctx.b T.Bool in
      let zero = if T.is_float ty then I.FImm 0.0 else I.Imm 0 in
      Builder.emit ctx.b (I.Setp { cmp = I.Ne; dst; a = op; b = zero });
      dst

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let redop_to_instr : S.redop -> I.binop = function
  | S.Rplus -> I.Add
  | S.Rmul -> I.Mul
  | S.Rmin -> I.Min
  | S.Rmax -> I.Max

(* a loop-invariant cell w.r.t. the reduction loop: subscripts must not
   mention the loop index *)
let invariant_cell (l : S.loop) subs =
  List.for_all
    (fun s ->
      not (E.fold_vars (fun v acc -> acc || String.equal v l.S.index.E.vname) s false))
    subs

let rec compile_stmts ctx (stmts : S.t list) =
  match stmts with
  | [] -> ()
  | S.For ({ S.reductions = _ :: _; _ } as l) :: S.Assign (S.Larray (a, subs), E.Var v) :: rest
    when S.is_parallel_sched l.S.sched
         && List.exists (fun (_, rv) -> rv.E.vname = v.E.vname) l.S.reductions
         && invariant_cell l subs ->
      let op, _ =
        List.find (fun (_, rv) -> rv.E.vname = v.E.vname) l.S.reductions
      in
      compile_loop ctx l ~atomic_tail:(Some (redop_to_instr op, a, subs, v));
      compile_stmts ctx rest
  | S.For ({ S.reductions = _ :: _; _ } as l) :: _
    when S.is_parallel_sched l.S.sched ->
      err
        "parallel reduction loop on %s must be followed by a store of the \
         reduction variable to a loop-invariant array cell"
        l.S.index.E.vname
  | s :: rest ->
      compile_stmt ctx s;
      compile_stmts ctx rest

and compile_stmt ctx (s : S.t) =
  match s with
  | S.Local (v, init) ->
      let r = Builder.fresh ctx.b v.E.vtype in
      ctx.vars <- (v.E.vname, r) :: ctx.vars;
      (match init with
      | None -> ()
      | Some e ->
          let op, ty = compile_expr ctx e in
          Builder.emit ctx.b
            (I.Mov { dst = r; src = coerce ctx op ~from_ty:ty ~to_ty:v.E.vtype }))
  | S.Assign (S.Lvar v, e) ->
      let r =
        match lookup_var ctx v.E.vname with
        | Some r -> r
        | None -> err "assignment to undeclared scalar %s" v.E.vname
      in
      let op, ty = compile_expr ctx e in
      Builder.emit ctx.b
        (I.Mov { dst = r; src = coerce ctx op ~from_ty:ty ~to_ty:r.Vreg.rty });
      Addressing.invalidate_var ctx.addr v.E.vname
  | S.Assign (S.Larray (a, subs), e) ->
      let op, ty = compile_expr ctx e in
      let src = coerce ctx op ~from_ty:ty ~to_ty:(elem_of ctx a) in
      let addr = compile_address ctx a subs in
      Builder.emit ctx.b (I.St { src; addr; mem = mem_of ctx a subs; note = a })
  | S.For l -> compile_loop ctx l ~atomic_tail:None
  | S.If (c, then_, else_) ->
      let p = compile_pred ctx c in
      let l_else = Builder.fresh_label ctx.b "else" in
      let l_end = Builder.fresh_label ctx.b "endif" in
      Builder.emit ctx.b (I.Brc { pred = p; if_true = false; target = l_else });
      let m = Addressing.mark ctx.addr in
      let saved = ctx.vars in
      compile_stmts ctx then_;
      Addressing.release ctx.addr m;
      ctx.vars <- saved;
      Builder.emit ctx.b (I.Bra l_end);
      Builder.emit ctx.b (I.Label l_else);
      compile_stmts ctx else_;
      Addressing.release ctx.addr m;
      ctx.vars <- saved;
      Builder.emit ctx.b (I.Label l_end)

and compile_loop ctx (l : S.loop) ~atomic_tail =
  if S.is_parallel_sched l.S.sched then compile_parallel_loop ctx l ~atomic_tail
  else compile_seq_loop ctx l

and compile_parallel_loop ctx (l : S.loop) ~atomic_tail =
  let idx_name = l.S.index.E.vname in
  let m =
    match
      List.find_opt
        (fun (ml : Safara_analysis.Mapping.mapped_loop) ->
          String.equal ml.Safara_analysis.Mapping.m_index idx_name)
        ctx.mapping.Safara_analysis.Mapping.loops
    with
    | Some m -> m
    | None -> err "parallel loop %s is not in the thread mapping" idx_name
  in
  let ax = axis_of m.Safara_analysis.Mapping.m_axis in
  if List.exists (fun (a : Kernel.axis_map) -> a.Kernel.ax = ax) ctx.axes then
    err "two parallel loops map to the same grid axis (%s)" idx_name;
  ctx.axes <-
    {
      Kernel.ax;
      ax_index = idx_name;
      ax_lo = l.S.lo;
      ax_hi = l.S.hi;
      ax_vector = m.Safara_analysis.Mapping.m_vector;
      ax_gang = m.Safara_analysis.Mapping.m_gang;
    }
    :: ctx.axes;
  (* idx = lo + ctaid.ax * ntid.ax + tid.ax *)
  let ctaid = Builder.fresh ctx.b T.I32 in
  Builder.emit ctx.b (I.Spec { dst = ctaid; sp = I.Ctaid ax });
  let ntid = Builder.fresh ctx.b T.I32 in
  Builder.emit ctx.b (I.Spec { dst = ntid; sp = I.Ntid ax });
  let tid = Builder.fresh ctx.b T.I32 in
  Builder.emit ctx.b (I.Spec { dst = tid; sp = I.Tid ax });
  let linear = Builder.fresh ctx.b T.I32 in
  Builder.emit ctx.b
    (I.Bin { op = I.Mul; dst = linear; a = I.Reg ctaid; b = I.Reg ntid });
  let linear2 = Builder.fresh ctx.b T.I32 in
  Builder.emit ctx.b
    (I.Bin { op = I.Add; dst = linear2; a = I.Reg linear; b = I.Reg tid });
  let lo_op, lo_ty = compile_expr ctx l.S.lo in
  let lo_op = coerce ctx lo_op ~from_ty:lo_ty ~to_ty:T.I32 in
  let idx = Builder.fresh ctx.b T.I32 in
  Builder.emit ctx.b (I.Bin { op = I.Add; dst = idx; a = lo_op; b = I.Reg linear2 });
  let hi_op, hi_ty = compile_expr ctx l.S.hi in
  let hi_op = coerce ctx hi_op ~from_ty:hi_ty ~to_ty:T.I32 in
  let p = Builder.fresh ctx.b T.Bool in
  Builder.emit ctx.b (I.Setp { cmp = I.Le; dst = p; a = I.Reg idx; b = hi_op });
  let l_skip = Builder.fresh_label ctx.b ("skip_" ^ idx_name) in
  Builder.emit ctx.b (I.Brc { pred = p; if_true = false; target = l_skip });
  let saved = ctx.vars in
  ctx.vars <- (idx_name, idx) :: ctx.vars;
  let mk = Addressing.mark ctx.addr in
  compile_stmts ctx l.S.body;
  (match atomic_tail with
  | None -> ()
  | Some (op, array, subs, v) ->
      let src =
        match lookup_var ctx v.E.vname with
        | Some r -> I.Reg r
        | None -> err "reduction variable %s has no register" v.E.vname
      in
      let addr = compile_address ctx array subs in
      Builder.emit ctx.b
        (I.Atom { op; addr; src; mem = mem_of ctx array subs; note = array }));
  Addressing.release ctx.addr mk;
  ctx.vars <- saved;
  Builder.emit ctx.b (I.Label l_skip)

and compile_seq_loop ctx (l : S.loop) =
  let idx_name = l.S.index.E.vname in
  let lo_op, lo_ty = compile_expr ctx l.S.lo in
  let lo_op = coerce ctx lo_op ~from_ty:lo_ty ~to_ty:T.I32 in
  let idx = Builder.fresh ctx.b T.I32 in
  Builder.emit ctx.b (I.Mov { dst = idx; src = lo_op });
  let hi_op, hi_ty = compile_expr ctx l.S.hi in
  let hi_op = coerce ctx hi_op ~from_ty:hi_ty ~to_ty:T.I32 in
  (* keep the bound in a register so the back-edge test reuses it *)
  let hi_reg =
    match hi_op with
    | I.Reg r -> r
    | _ ->
        let r = Builder.fresh ctx.b T.I32 in
        Builder.emit ctx.b (I.Mov { dst = r; src = hi_op });
        r
  in
  let l_body = Builder.fresh_label ctx.b ("loop_" ^ idx_name) in
  let l_end = Builder.fresh_label ctx.b ("endloop_" ^ idx_name) in
  let p0 = Builder.fresh ctx.b T.Bool in
  Builder.emit ctx.b
    (I.Setp { cmp = I.Le; dst = p0; a = I.Reg idx; b = I.Reg hi_reg });
  Builder.emit ctx.b (I.Brc { pred = p0; if_true = false; target = l_end });
  Builder.emit ctx.b (I.Label l_body);
  let saved = ctx.vars in
  ctx.vars <- (idx_name, idx) :: ctx.vars;
  let mk = Addressing.mark ctx.addr in
  compile_stmts ctx l.S.body;
  Addressing.release ctx.addr mk;
  ctx.vars <- saved;
  Builder.emit ctx.b (I.Bin { op = I.Add; dst = idx; a = I.Reg idx; b = I.Imm 1 });
  let p = Builder.fresh ctx.b T.Bool in
  Builder.emit ctx.b
    (I.Setp { cmp = I.Le; dst = p; a = I.Reg idx; b = I.Reg hi_reg });
  Builder.emit ctx.b (I.Brc { pred = p; if_true = true; target = l_body });
  Builder.emit ctx.b (I.Label l_end)

(* ------------------------------------------------------------------ *)
(* Kernel assembly                                                     *)
(* ------------------------------------------------------------------ *)

let compile_region ~arch (prog : Safara_ir.Program.t) (r : R.t) =
  let mapping = Safara_analysis.Mapping.of_region r in
  let b = Builder.create () in
  let modes = Addressing.modes_of_region ~arch prog r in
  let addr = Addressing.create b ~modes in
  let ctx =
    {
      arch;
      prog;
      region = r;
      mapping;
      b;
      addr;
      modes;
      vars = [];
      axes = [];
      params_used = Hashtbl.create 8;
    }
  in
  let arrays = R.referenced_arrays r in
  (* OpenUH-style prologue: base pointers and descriptor extents are
     materialized at kernel entry and stay live for the whole kernel *)
  Addressing.preload addr arrays;
  compile_stmts ctx r.R.body;
  Builder.emit b I.Ret;
  let scalar_params =
    Hashtbl.fold
      (fun name () acc ->
        let v =
          List.find
            (fun (p : E.var) -> String.equal p.E.vname name)
            prog.Safara_ir.Program.params
        in
        Kernel.P_scalar (name, v.E.vtype) :: acc)
      ctx.params_used []
  in
  let dope_params =
    (* one contribution per dope set: group members share descriptor
       params, and the set's leader may itself be unreferenced *)
    let seen = Hashtbl.create 4 in
    List.concat_map
      (fun (name, md) ->
        if List.mem name arrays && not (Hashtbl.mem seen md.Addressing.md_dope_set)
        then begin
          Hashtbl.add seen md.Addressing.md_dope_set ();
          List.map (fun p -> Kernel.P_scalar (p, T.I64)) (Addressing.dope_params md)
        end
        else [])
      modes
  in
  {
    Kernel.kname = r.R.rname;
    params =
      List.map (fun a -> Kernel.P_array a) arrays @ dope_params @ scalar_params;
    code = Builder.code b;
    block = mapping.Safara_analysis.Mapping.block;
    axes = List.rev ctx.axes;
    shared_bytes = 0;
  }
