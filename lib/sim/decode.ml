(* Per-kernel pre-decoding pass, the front end of the closure-threaded
   engine ({!Threaded}): compiles the VIR instruction array into a flat
   array of decoded ops once per launch, so the closure compiler and
   the timing model's static tables never see label hashing,
   [I.defs]/[I.uses] list allocation, parameter string surgery or
   Value.t boxing. This module also owns the execution state and the
   per-launch parameter cache the threaded closures run against.

   The decoded stream is 1:1 with [Kernel.code] (labels become [DNop]),
   so instruction indices, dynamic counters and per-op timing metadata
   line up with the reference engine exactly. Registers are split into
   unboxed [float array] / [int array] halves: VIR registers are
   statically typed ([Vreg.rty]), so each rid lives in exactly one half
   and register-to-register traffic never allocates. Cross-half reads
   convert exactly like [Value.to_float]/[Value.to_int]/[Value.to_bool]
   at the boxed engine's read sites, which is what keeps the threaded
   engine bit-identical to the reference walker (the differential suite
   in test/suite_sim.ml holds them to that). *)

module I = Safara_vir.Instr
module V = Safara_vir.Vreg
module K = Safara_vir.Kernel
module T = Safara_ir.Types
module M = Safara_gpu.Memspace

exception Error of Safara_diag.Diagnostic.t
(** Raised at decode time for kernels the reference engine would only
    fault on mid-simulation (SAF021: branch to an unknown label). *)

(* Engine selector: routes Interp.run_kernel and
   Timing.simulate_resident_set through one of the two execution
   engines. [Reference] is the preserved boxed walker (the semantic
   oracle), [Threaded] the closure-threaded compiler (default). *)
type engine = Reference | Threaded

let engine = ref Threaded

let engine_name = function
  | Reference -> "reference"
  | Threaded -> "threaded"

let all_engines = [ Reference; Threaded ]

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "reference" | "ref" -> Reference
  | "threaded" | "thr" -> Threaded
  | other ->
      failwith
        (Printf.sprintf "unknown engine %S (expected %s)" other
           (String.concat "|" (List.map engine_name all_engines)))

let with_engine e f =
  let saved = !engine in
  engine := e;
  Fun.protect ~finally:(fun () -> engine := saved) f

type env = { scalars : (string * Value.t) list; mem : Memory.t }

type counters = {
  mutable c_instructions : int;
  mutable c_loads : int;
  mutable c_stores : int;
  mutable c_atomics : int;
  mutable c_spill_ops : int;
}

let fresh_counters () =
  { c_instructions = 0; c_loads = 0; c_stores = 0; c_atomics = 0; c_spill_ops = 0 }

let null_counters = fresh_counters ()

(* --- parameter name pre-parsing ------------------------------------- *)

type pkind =
  | P_plain of string
  | P_dim of string * int * bool  (** array, dim index, is-extent (.lenN vs .loN) *)

let parse_param name =
  match String.index_opt name '.' with
  | Some dot when String.length name >= dot + 4 && String.sub name dot 4 = ".len" ->
      let d = int_of_string (String.sub name (dot + 4) (String.length name - dot - 4)) in
      P_dim (String.sub name 0 dot, d, true)
  | Some dot when String.length name >= dot + 3 && String.sub name dot 3 = ".lo" ->
      let d = int_of_string (String.sub name (dot + 3) (String.length name - dot - 3)) in
      P_dim (String.sub name 0 dot, d, false)
  | _ -> P_plain name

let dim_bound env (prog : Safara_ir.Program.t) array d ~extent =
  let info = Safara_ir.Program.find_array prog array in
  let dim = List.nth info.Safara_ir.Array_info.dims d in
  let bound =
    if extent then dim.Safara_ir.Dim.extent else dim.Safara_ir.Dim.lower
  in
  match bound with
  | Safara_ir.Dim.Const n -> Value.I n
  | Safara_ir.Dim.Sym s -> (
      match List.assoc_opt s env.scalars with
      | Some v -> v
      | None -> failwith ("interp: unbound parameter " ^ s))

let resolve_param env prog kind =
  match kind with
  | P_dim (array, d, extent) -> dim_bound env prog array d ~extent
  | P_plain name -> (
      match List.assoc_opt name env.scalars with
      | Some v -> v
      | None -> (
          match Safara_ir.Program.find_array_opt prog name with
          | Some _ -> Value.I (Memory.base env.mem name)
          | None -> failwith ("interp: unbound kernel parameter " ^ name)))

(* --- decoded operands and ops ---------------------------------------- *)

(** A pre-resolved operand: which register half (or immediate pool) it
    reads from. Cross-half reads convert exactly like the boxed engine's
    [Value.to_*] at the use site. *)
type src =
  | SFImm of float
  | SIImm of int
  | SFReg of int
  | SIReg of int

type mem_op = {
  mo_mem : I.mem;
  mo_local : bool;
  mo_ro : bool;
}

(** One decoded op. [fdst] says which register half the destination
    lives in (true = float); evaluation domains (constructor choice)
    come from the destination's static type, exactly like
    [Exec.eval_bin]'s [dst.rty] dispatch. Branch targets are
    instruction indices. *)
type dop =
  | DNop
  | DLd of { fdst : bool; dst : int; addr : src; mi : int }
  | DSt of { src : src; addr : src; mi : int }
  | DLdp of { fdst : bool; dst : int; slot : int }
  | DMov of { fdst : bool; dst : int; src : src }
  | DAddF of { dst : int; a : src; b : src }
  | DSubF of { dst : int; a : src; b : src }
  | DMulF of { dst : int; a : src; b : src }
  | DAddI of { dst : int; a : src; b : src }
  | DMulI of { dst : int; a : src; b : src }
  | DBinF of { op : I.binop; dst : int; a : src; b : src }
  | DBinI of { op : I.binop; dst : int; a : src; b : src }
  | DBinB of { op : I.binop; dst : int; a : src; b : src }
  | DUnaF of { op : I.unop; fdst : bool; dst : int; a : src }
  | DNegI of { dst : int; a : src }
  | DNot of { fdst : bool; dst : int; a : src }
  | DCvtF of { dst : int; src : src }
  | DCvtI of { dst : int; src : src }
  | DCvtB of { dst : int; src : src }
  | DSetpF of { cmp : I.cmp; fdst : bool; dst : int; a : src; b : src }
  | DSetpI of { cmp : I.cmp; fdst : bool; dst : int; a : src; b : src }
  | DSpec of { fdst : bool; dst : int; sp : int }  (** 0..11, see {!set_specials} *)
  | DBra of int
  | DBrc of { pred : src; if_true : bool; target : int }
  | DAtom of { op : I.binop; addr : src; src : src; mi : int }
  | DRet

type t = {
  d_kernel : K.t;
  d_ops : dop array;  (** 1:1 with [d_kernel.code]; labels are [DNop] *)
  d_mems : mem_op array;
  d_params : pkind array;  (** by slot *)
  d_nregs : int;
}

let is_freg (r : V.t) = T.is_float r.V.rty

let src_of_reg (r : V.t) = if is_freg r then SFReg r.V.rid else SIReg r.V.rid

let src_of_operand = function
  | I.Reg r -> src_of_reg r
  | I.Imm n -> SIImm n
  | I.FImm f -> SFImm f

let sp_index = function
  | I.Tid I.X -> 0
  | I.Tid I.Y -> 1
  | I.Tid I.Z -> 2
  | I.Ctaid I.X -> 3
  | I.Ctaid I.Y -> 4
  | I.Ctaid I.Z -> 5
  | I.Ntid I.X -> 6
  | I.Ntid I.Y -> 7
  | I.Ntid I.Z -> 8
  | I.Nctaid I.X -> 9
  | I.Nctaid I.Y -> 10
  | I.Nctaid I.Z -> 11

let decode (k : K.t) =
  let code = k.K.code in
  let labels = K.label_map k in
  let target ~at l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None ->
        raise
          (Error
             (Safara_diag.Diagnostic.errorf ~code:"SAF021"
                ~where:("kernel " ^ k.K.kname)
                "branch to unknown label '%s' (instruction %d)" l at))
  in
  let mems = ref [] and nmems = ref 0 in
  let add_mem (mem : I.mem) =
    let mo =
      {
        mo_mem = mem;
        mo_local = mem.I.m_space = M.Local;
        mo_ro = mem.I.m_space = M.Read_only;
      }
    in
    mems := mo :: !mems;
    incr nmems;
    !nmems - 1
  in
  let params = Hashtbl.create 8 and plist = ref [] and nparams = ref 0 in
  let slot_of name =
    match Hashtbl.find_opt params name with
    | Some s -> s
    | None ->
        let s = !nparams in
        Hashtbl.replace params name s;
        plist := parse_param name :: !plist;
        incr nparams;
        s
  in
  let decode_one at instr =
    match instr with
    | I.Label _ -> DNop
    | I.Ld { dst; addr; mem; _ } ->
        DLd { fdst = is_freg dst; dst = dst.V.rid; addr = src_of_reg addr;
              mi = add_mem mem }
    | I.St { src; addr; mem; _ } ->
        DSt { src = src_of_operand src; addr = src_of_reg addr; mi = add_mem mem }
    | I.Ldp { dst; param } ->
        DLdp { fdst = is_freg dst; dst = dst.V.rid; slot = slot_of param }
    | I.Mov { dst; src } ->
        DMov { fdst = is_freg dst; dst = dst.V.rid; src = src_of_operand src }
    | I.Bin { op; dst; a; b } -> (
        let a = src_of_operand a and b = src_of_operand b in
        if T.is_float dst.V.rty then
          (* the dominant ops get their own tags: one dispatch, no
             second match inside Exec *)
          match op with
          | I.Add -> DAddF { dst = dst.V.rid; a; b }
          | I.Sub -> DSubF { dst = dst.V.rid; a; b }
          | I.Mul -> DMulF { dst = dst.V.rid; a; b }
          | op -> DBinF { op; dst = dst.V.rid; a; b }
        else if dst.V.rty = T.Bool then DBinB { op; dst = dst.V.rid; a; b }
        else
          match op with
          | I.Add -> DAddI { dst = dst.V.rid; a; b }
          | I.Mul -> DMulI { dst = dst.V.rid; a; b }
          | op -> DBinI { op; dst = dst.V.rid; a; b })
    | I.Una { op; dst; a } -> (
        let a = src_of_operand a in
        match op with
        | I.Not -> DNot { fdst = is_freg dst; dst = dst.V.rid; a }
        | I.Neg when not (T.is_float dst.V.rty) -> DNegI { dst = dst.V.rid; a }
        | _ -> DUnaF { op; fdst = is_freg dst; dst = dst.V.rid; a })
    | I.Cvt { dst; src } ->
        let src = src_of_reg src in
        if T.is_float dst.V.rty then DCvtF { dst = dst.V.rid; src }
        else if dst.V.rty = T.Bool then DCvtB { dst = dst.V.rid; src }
        else DCvtI { dst = dst.V.rid; src }
    | I.Setp { cmp; dst; a; b } ->
        let fa = (match a with I.Reg r -> is_freg r | I.FImm _ -> true | I.Imm _ -> false) in
        let fb = (match b with I.Reg r -> is_freg r | I.FImm _ -> true | I.Imm _ -> false) in
        let a = src_of_operand a and b = src_of_operand b in
        if fa || fb then DSetpF { cmp; fdst = is_freg dst; dst = dst.V.rid; a; b }
        else DSetpI { cmp; fdst = is_freg dst; dst = dst.V.rid; a; b }
    | I.Bra l -> DBra (target ~at l)
    | I.Brc { pred; if_true; target = l } ->
        DBrc { pred = src_of_reg pred; if_true; target = target ~at l }
    | I.Spec { dst; sp } ->
        DSpec { fdst = is_freg dst; dst = dst.V.rid; sp = sp_index sp }
    | I.Atom { op; addr; src; mem; _ } ->
        DAtom { op; addr = src_of_reg addr; src = src_of_operand src;
                mi = add_mem mem }
    | I.Ret -> DRet
  in
  let ops = Array.mapi decode_one code in
  {
    d_kernel = k;
    d_ops = ops;
    d_mems = Array.of_list (List.rev !mems);
    d_params = Array.of_list (List.rev !plist);
    d_nregs = K.num_regs k;
  }

(* --- execution state -------------------------------------------------- *)

type state = {
  xf : float array;  (** float register half *)
  xi : int array;  (** int/predicate register half (bools as 0/1) *)
  x_local : (int, Value.t) Hashtbl.t;  (** per-thread local (spill) memory *)
  x_special : int array;  (** 12 slots, indexed by {!sp_index}'s layout *)
  mutable x_addr : int;  (** effective address of the last memory op *)
}

let make_state d =
  {
    xf = Array.make d.d_nregs 0.;
    xi = Array.make d.d_nregs 0;
    x_local = Hashtbl.create 4;
    x_special = Array.make 12 0;
    x_addr = 0;
  }

let set_launch st ~ntid:(bx, by, bz) ~nctaid:(gx, gy, gz) =
  let s = st.x_special in
  s.(6) <- bx; s.(7) <- by; s.(8) <- bz;
  s.(9) <- gx; s.(10) <- gy; s.(11) <- gz

let[@inline] set_thread st ~tx ~ty ~tz ~cx ~cy ~cz =
  let s = st.x_special in
  s.(0) <- tx; s.(1) <- ty; s.(2) <- tz;
  s.(3) <- cx; s.(4) <- cy; s.(5) <- cz

let set_specials st ~tid:(tx, ty, tz) ~cta:(cx, cy, cz) ~ntid ~nctaid =
  set_launch st ~ntid ~nctaid;
  set_thread st ~tx ~ty ~tz ~cx ~cy ~cz

(* Per-launch parameter cache: parameters are launch-invariant, so each
   distinct Ldp name resolves at most once per launch, storing both the
   to_float and to_int views (exactly the conversions the boxed engine
   would apply at the register write). *)
type params = {
  pv_f : float array;
  pv_i : int array;
  pv_ok : bool array;
  p_env : env;
  p_prog : Safara_ir.Program.t;
}

let make_params d ~env ~prog =
  let n = max 1 (Array.length d.d_params) in
  {
    pv_f = Array.make n 0.;
    pv_i = Array.make n 0;
    pv_ok = Array.make n false;
    p_env = env;
    p_prog = prog;
  }

let ensure_param d ps slot =
  if not ps.pv_ok.(slot) then begin
    let v = resolve_param ps.p_env ps.p_prog d.d_params.(slot) in
    ps.pv_f.(slot) <- Value.to_float v;
    ps.pv_i.(slot) <- Value.to_int v;
    ps.pv_ok.(slot) <- true
  end

(* Eagerly resolve every parameter slot, so a params record can be
   shared read-only across concurrent chunks. Resolution failures are
   swallowed: a slot left unresolved keeps its lazy [ensure_param]
   fault, which only fires if a thread actually executes its Ldp —
   preserving the semantics of guarded references to unbound
   parameters. Returns whether every slot resolved (callers must not
   share the record across domains otherwise, or the in-chunk lazy
   fill would race). *)
let resolve_all d ps =
  let n = Array.length d.d_params in
  let ok = ref true in
  for slot = 0 to n - 1 do
    try ensure_param d ps slot with Failure _ -> ok := false
  done;
  !ok
