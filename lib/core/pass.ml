module P = Safara_ir.Program
module K = Safara_vir.Kernel
module Facts = Safara_vir.Facts

type vir_state = { v_prog : P.t; v_kernels : (K.t * Facts.t) list }

type asm_state = {
  a_prog : P.t;
  a_kernels : (K.t * Facts.t * Safara_ptxas.Assemble.report) list;
}

type _ stage = Ir : P.t stage | Vir : vir_state stage | Asm : asm_state stage

let stage_name : type a. a stage -> string = function
  | Ir -> "ir"
  | Vir -> "vir"
  | Asm -> "asm"

type stats = {
  s_units : int;
  s_stmts : int;
  s_instrs : int;
  s_vregs : int;
  s_regs : int;
}

let zero_stats = { s_units = 0; s_stmts = 0; s_instrs = 0; s_vregs = 0; s_regs = 0 }

type ctx = {
  arch : Safara_gpu.Arch.t;
  latency : Safara_gpu.Latency.table;
  feedback : (Safara_ir.Program.t -> Safara_ir.Region.t -> int) option;
  candidates :
    (Safara_analysis.Reuse.policy ->
    Safara_ir.Program.t ->
    Safara_ir.Region.t ->
    Safara_analysis.Reuse.candidate list)
    option;
  mutable logs : (string * Safara_transform.Safara.round list) list;
}

let make_ctx ~arch ~latency =
  { arch; latency; feedback = None; candidates = None; logs = [] }

type ('a, 'b) t = {
  name : string;
  input : 'a stage;
  output : 'b stage;
  run : ctx -> 'a -> 'b;
  identity : ('a -> 'b) option;
}

(* the registry only records names (passes are existentially typed);
   it backs typo detection for --disable-pass/--dump-ir and the
   registration tests *)
let registry : (string, unit) Hashtbl.t = Hashtbl.create 16

let make ~name ~input ~output ?identity run =
  if not (Hashtbl.mem registry name) then Hashtbl.add registry name ();
  { name; input; output; run; identity }

let registered () =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) registry [])

let is_registered name = Hashtbl.mem registry name

let count_stmts prog =
  List.fold_left
    (fun acc r -> acc + Safara_ir.Region.weight r)
    0 prog.P.regions

(* the kernels a VIR or ASM value carries, each with its facts *)
let with_facts : type a. a stage -> a -> (K.t * Facts.t) list =
 fun stage v ->
  match stage with
  | Ir -> []
  | Vir -> v.v_kernels
  | Asm -> List.map (fun (k, f, _) -> (k, f)) v.a_kernels

(* [regs_of] is a kernel's register estimate; [s_vregs] counts
   [Kernel.num_regs], read from the facts' bound *)
let kernel_stats ~regs_of kernels =
  List.fold_left
    (fun acc (k, f) ->
      {
        acc with
        s_units = acc.s_units + 1;
        s_instrs = acc.s_instrs + Array.length k.K.code;
        s_vregs = acc.s_vregs + max 1 (Facts.bound f);
        s_regs = max acc.s_regs (regs_of f);
      })
    zero_stats kernels

let measure : type a. precise:bool -> a stage -> a -> stats =
 fun ~precise stage v ->
  match stage with
  | Ir ->
      {
        zero_stats with
        s_units = List.length v.P.regions;
        s_stmts = count_stmts v;
      }
  | Vir ->
      (* the liveness fixpoint is the "what would allocation need"
         lower bound; only worth its cost under --time-passes *)
      let regs_of f = if precise then Facts.max_units f else 0 in
      kernel_stats ~regs_of v.v_kernels
  | Asm ->
      kernel_stats ~regs_of:(fun _ -> 0) (with_facts Asm v) |> fun s ->
      {
        s with
        s_regs =
          List.fold_left
            (fun acc (_, _, r) -> max acc r.Safara_ptxas.Assemble.regs_used)
            0 v.a_kernels;
      }

let verify : type a. a stage -> a -> unit =
 fun stage v ->
  match stage with
  | Ir -> Safara_ir.Validate.check_exn v
  | Vir | Asm ->
      List.iter
        (fun (k, f) ->
          if not (Facts.verified f) then begin
            Safara_vir.Verify.verify_exn ~facts:f k;
            Facts.set_verified f
          end)
        (with_facts stage v)

let dump : type a. a stage -> a -> string =
 fun stage v ->
  match stage with
  | Ir -> Format.asprintf "%a" P.pp v
  | Vir ->
      String.concat "\n"
        (List.map (fun (k, _) -> Format.asprintf "%a" K.pp k) v.v_kernels)
  | Asm ->
      String.concat "\n"
        (List.map
           (fun (k, _, r) ->
             Format.asprintf "%a@.%a@." K.pp k Safara_ptxas.Assemble.pp_report
               r)
           v.a_kernels)

(* --annotate-live: VIR-bearing stages render each kernel through the
   liveness solver, prefixing every instruction with the live-set size
   after it (vregs, then 32-bit units); IR has no registers to
   annotate, so it falls back to the plain dump *)
let dump_annotated : type a. a stage -> a -> string =
 fun stage v ->
  let annotated (k, f) = Format.asprintf "%a" (Facts.pp_annotated k) f in
  match stage with
  | Ir -> dump Ir v
  | Vir -> String.concat "\n" (List.map annotated v.v_kernels)
  | Asm ->
      String.concat "\n"
        (List.map
           (fun (k, f, r) ->
             Format.asprintf "%s@.%a@." (annotated (k, f))
               Safara_ptxas.Assemble.pp_report r)
           v.a_kernels)

(* [assert (Sys.opaque_identity false)] is stripped by -noassert
   (unlike a literal [assert false], which the compiler must keep), so
   reaching the handler means assertions are live in this build. *)
let assertions_enabled =
  try
    assert (Sys.opaque_identity false);
    false
  with Assert_failure _ -> true
