module S = Safara_ir.Stmt
module E = Safara_ir.Expr
module R = Safara_ir.Region
module M = Safara_gpu.Memspace
module Diag = Safara_diag.Diagnostic
module Srcmap = Safara_lang.Srcmap
module I = Safara_vir.Instr

(* --- SAF032: declared clause never exploited ----------------------- *)

let unexploited_clauses ?(map = Srcmap.empty) (r : R.t) =
  let referenced = R.referenced_arrays r in
  let span = Srcmap.region_span map r.R.rname in
  let where = "region " ^ r.R.rname in
  let dim_diags =
    List.filter_map
      (fun (g : R.dim_group) ->
        if List.exists (fun a -> List.mem a referenced) g.R.group_arrays then
          None
        else
          Some
            (Diag.make ?span ~code:"SAF032" ~where
               ~hint:"drop the clause or reference the arrays"
               Diag.Warning
               (Printf.sprintf
                  "dim clause group (%s) has no effect: none of its arrays \
                   are referenced in the region"
                  (String.concat ", " g.R.group_arrays))))
      r.R.dim_groups
  in
  let small_diags =
    List.filter_map
      (fun a ->
        if List.mem a referenced then None
        else
          Some
            (Diag.make ?span ~code:"SAF032" ~where
               ~hint:"drop the clause or reference the array"
               Diag.Warning
               (Printf.sprintf
                  "small clause on %s has no effect: the array is not \
                   referenced in the region"
                  a)))
      r.R.small
  in
  dim_diags @ small_diags

(* --- SAF033: dead scalar ------------------------------------------ *)

(* a scalar is dead when it is declared or written but its value is
   never read outside its own redefinitions (reduction accumulators
   are region outputs, so they count as read) *)
let dead_scalars ?(map = Srcmap.empty) (r : R.t) =
  let written : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let used : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let use_expr ?(except = "") e =
    E.fold_vars
      (fun v () -> if not (String.equal v except) then Hashtbl.replace used v ())
      e ()
  in
  let rec walk stmts =
    List.iter
      (fun s ->
        match s with
        | S.Assign (S.Lvar v, e) ->
            Hashtbl.replace written v.E.vname ();
            use_expr ~except:v.E.vname e
        | S.Assign (S.Larray (_, subs), e) ->
            List.iter use_expr subs;
            use_expr e
        | S.Local (v, init) ->
            Hashtbl.replace written v.E.vname ();
            Option.iter (use_expr ~except:v.E.vname) init
        | S.For l ->
            use_expr l.S.lo;
            use_expr l.S.hi;
            List.iter
              (fun (_, v) -> Hashtbl.replace used v.E.vname ())
              l.S.reductions;
            walk l.S.body
        | S.If (c, t, e) ->
            use_expr c;
            walk t;
            walk e)
      stmts
  in
  walk r.R.body;
  Hashtbl.fold
    (fun v () acc ->
      if Hashtbl.mem used v then acc
      else
        Diag.make
          ?span:(Srcmap.region_span map r.R.rname)
          ~code:"SAF033"
          ~where:("region " ^ r.R.rname)
          ~hint:"delete the scalar and its assignments" Diag.Warning
          (Printf.sprintf "scalar %s is written but its value is never read"
             v)
        :: acc)
    written []
  |> Diag.sort

let region_lints ?map (r : R.t) =
  unexploited_clauses ?map r @ dead_scalars ?map r

(* --- SAF030: uncoalesced global accesses --------------------------- *)

let uncoalesced ?(map = Srcmap.empty) (k : Safara_vir.Kernel.t) =
  let seen = Hashtbl.create 8 in
  let span = Srcmap.region_span map k.Safara_vir.Kernel.kname in
  let where = "kernel " ^ k.Safara_vir.Kernel.kname in
  let note_access dir (mem : I.mem) note acc =
    match (mem.I.m_space, mem.I.m_access) with
    | (M.Global | M.Read_only), M.Uncoalesced n ->
        let key = (dir, note) in
        if Hashtbl.mem seen key then acc
        else begin
          Hashtbl.add seen key ();
          Diag.make ?span ~code:"SAF030" ~where
            ~hint:
              "make the fastest-varying subscript follow the vector loop \
               index, or tile through shared memory"
            Diag.Note
            (Printf.sprintf
               "uncoalesced %s of %s: a warp touches %d memory segments per \
                access"
               dir note n)
          :: acc
        end
    | _ -> acc
  in
  Array.fold_left
    (fun acc ins ->
      match ins with
      | I.Ld { mem; note; _ } -> note_access "load" mem note acc
      | I.St { mem; note; _ } -> note_access "store" mem note acc
      | I.Atom { mem; note; _ } -> note_access "atomic" mem note acc
      | _ -> acc)
    [] k.Safara_vir.Kernel.code
  |> List.rev

(* --- SAF031: register pressure over the architecture budget -------- *)

let pressure ?(map = Srcmap.empty) ~(arch : Safara_gpu.Arch.t)
    (report : Safara_ptxas.Assemble.report) =
  let budget = arch.Safara_gpu.Arch.max_registers_per_thread in
  if report.Safara_ptxas.Assemble.spill_bytes > 0 then
    [
      Diag.make
        ?span:(Srcmap.region_span map report.Safara_ptxas.Assemble.kernel_name)
        ~code:"SAF031"
        ~where:("kernel " ^ report.Safara_ptxas.Assemble.kernel_name)
        ~hint:
          "reduce live ranges (split the kernel, reorder computation) or \
           add dim/small clauses so addressing needs fewer registers"
        Diag.Warning
        (Printf.sprintf
           "register pressure exceeds the %d-register budget: %d registers \
            demanded, %d bytes spilled to local memory (%d reloads, %d \
            stores)"
           budget
           report.Safara_ptxas.Assemble.regs_used
           report.Safara_ptxas.Assemble.spill_bytes
           report.Safara_ptxas.Assemble.spill_loads
           report.Safara_ptxas.Assemble.spill_stores);
    ]
  else []

(* --- SAF035: dead store ------------------------------------------- *)

(* Two stores through the same address register into the same array
   with nothing that could observe the first make it dead. VIR memory
   ops carry the source array name in [note], and distinct arrays are
   distinct allocations, so only same-[note] loads/atomics can read
   the stored value. The window is reset by those, by any control
   flow (a label or branch means another path may read first), and by
   a redefinition of the address register (it no longer names the
   same location). *)
let dead_stores ?(map = Srcmap.empty) (k : Safara_vir.Kernel.t) =
  let code = k.Safara_vir.Kernel.code in
  let span = Srcmap.region_span map k.Safara_vir.Kernel.kname in
  let where = "kernel " ^ k.Safara_vir.Kernel.kname in
  (* (addr rid, note) -> index of the as-yet-unread store *)
  let pending : (int * string, int) Hashtbl.t = Hashtbl.create 8 in
  let drop_note note =
    Hashtbl.iter
      (fun ((_, n) as key) _ -> if String.equal n note then Hashtbl.remove pending key)
      (Hashtbl.copy pending)
  in
  let drop_addr (r : Safara_vir.Vreg.t) =
    Hashtbl.iter
      (fun ((rid, _) as key) _ -> if rid = r.Safara_vir.Vreg.rid then Hashtbl.remove pending key)
      (Hashtbl.copy pending)
  in
  let diags = ref [] in
  Array.iteri
    (fun i ins ->
      (match ins with
      | I.Label _ | I.Bra _ | I.Brc _ | I.Ret -> Hashtbl.reset pending
      | I.Ld { note; _ } | I.Atom { note; _ } -> drop_note note
      | _ -> ());
      List.iter drop_addr (I.defs ins);
      match ins with
      | I.St { addr; note; _ } ->
          let key = (addr.Safara_vir.Vreg.rid, note) in
          (match Hashtbl.find_opt pending key with
          | Some at ->
              diags :=
                Diag.make ?span ~code:"SAF035" ~where
                  ~hint:"delete the first store or read its value before \
                         overwriting"
                  Diag.Warning
                  (Printf.sprintf
                     "dead store to %s: instr %d stores through the same \
                      address and is overwritten at instr %d before any read"
                     note at i)
                :: !diags
          | None -> ());
          Hashtbl.replace pending key i
      | _ -> ())
    code;
  List.rev !diags

(* --- SAF036: static register-pressure report ----------------------- *)

(* the liveness solver's peak demand next to what linear scan actually
   claimed; when nothing spilled, precise max-live is a lower bound on
   the allocation (intervals over-approximate live sets, and pair
   alignment can pad), so a static number above the allocator's is a
   compiler bug and reported as an error *)
let static_pressure ?(map = Srcmap.empty) ~(arch : Safara_gpu.Arch.t)
    ((k : Safara_vir.Kernel.t), (report : Safara_ptxas.Assemble.report)) =
  let units =
    Safara_vir.Facts.max_units (Safara_vir.Facts.make k.Safara_vir.Kernel.code)
  in
  let span = Srcmap.region_span map k.Safara_vir.Kernel.kname in
  let where = "kernel " ^ k.Safara_vir.Kernel.kname in
  let regs = report.Safara_ptxas.Assemble.regs_used in
  let budget = arch.Safara_gpu.Arch.max_registers_per_thread in
  let spilled = report.Safara_ptxas.Assemble.spill_bytes > 0 in
  let base =
    Diag.make ?span ~code:"SAF036" ~where Diag.Note
      (Printf.sprintf
         "static register pressure: peak %d 32-bit units live; allocator \
          assigned %d of %d budget%s"
         units regs budget
         (if spilled then
            Printf.sprintf " (%d bytes spilled)"
              report.Safara_ptxas.Assemble.spill_bytes
          else ""))
  in
  if (not spilled) && units > regs then
    [
      base;
      Diag.make ?span ~code:"SAF036" ~where Diag.Error
        (Printf.sprintf
           "static max-live (%d units) exceeds the allocator's assignment \
            (%d registers) without spilling — register allocation is \
            unsound"
           units regs);
    ]
  else [ base ]

let kernel_lints ?map ~arch (k, report) =
  uncoalesced ?map k @ pressure ?map ~arch report @ dead_stores ?map k
