module V = Safara_vir.Vreg
module I = Safara_vir.Instr

let local_mem bytes =
  {
    I.m_space = Safara_gpu.Memspace.Local;
    m_access = Safara_gpu.Memspace.Coalesced;
    m_bytes = bytes;
  }

let rewrite ~slot_base spilled facts =
  let code = Safara_vir.Facts.code facts in
  let next_rid = ref (Safara_vir.Facts.bound facts) in
  let fresh rty =
    let r = { V.rid = !next_rid; rty } in
    incr next_rid;
    r
  in
  let slots = Hashtbl.create 8 in
  let offset = ref slot_base in
  List.iter
    (fun (r : V.t) ->
      Hashtbl.replace slots r.V.rid !offset;
      offset := !offset + max 4 (V.width r * 4))
    spilled;
  let is_spilled (r : V.t) = Hashtbl.mem slots r.V.rid in
  let out = ref [] in
  let emit i = out := i :: !out in
  Array.iter
    (fun instr ->
      let u_spilled = List.filter is_spilled (I.uses instr) in
      let d_spilled = List.filter is_spilled (I.defs instr) in
      if u_spilled = [] && d_spilled = [] then emit instr
      else begin
        (* reload spilled uses into fresh temps *)
        let subst = Hashtbl.create 4 in
        List.iter
          (fun (r : V.t) ->
            if not (Hashtbl.mem subst r.V.rid) then begin
              let addr = fresh Safara_ir.Types.I64 in
              let tmp = fresh r.V.rty in
              emit (I.Mov { dst = addr; src = I.Imm (Hashtbl.find slots r.V.rid) });
              emit
                (I.Ld
                   {
                     dst = tmp;
                     addr;
                     mem = local_mem (max 4 (V.width r * 4));
                     note = "spill";
                   });
              Hashtbl.replace subst r.V.rid tmp
            end)
          u_spilled;
        (* spilled defs write to a fresh temp, then store *)
        let def_tmps = Hashtbl.create 4 in
        List.iter
          (fun (r : V.t) ->
            if not (Hashtbl.mem def_tmps r.V.rid) then
              Hashtbl.replace def_tmps r.V.rid (fresh r.V.rty))
          d_spilled;
        let replace (r : V.t) =
          match Hashtbl.find_opt def_tmps r.V.rid with
          | Some t -> t
          | None -> (
              match Hashtbl.find_opt subst r.V.rid with
              | Some t -> t
              | None -> r)
        in
        (* defs take priority for the defined position; uses that are
           also defs read the reloaded value: map_regs cannot
           distinguish, so when a register is both used and defined we
           let the def temp stand for both — correct because the store
           below writes the new value, and instructions never read and
           write the same register with different roles except Mov-like
           updates, where the reload already populated subst and the
           def temp would shadow it. To stay sound, pre-copy the reload
           into the def temp. *)
        List.iter
          (fun (r : V.t) ->
            match (Hashtbl.find_opt subst r.V.rid, Hashtbl.find_opt def_tmps r.V.rid) with
            | Some reload, Some deft ->
                emit (I.Mov { dst = deft; src = I.Reg reload })
            | _ -> ())
          u_spilled;
        emit (I.map_regs replace instr);
        List.iter
          (fun (r : V.t) ->
            let addr = fresh Safara_ir.Types.I64 in
            emit (I.Mov { dst = addr; src = I.Imm (Hashtbl.find slots r.V.rid) });
            emit
              (I.St
                 {
                   src = I.Reg (Hashtbl.find def_tmps r.V.rid);
                   addr;
                   mem = local_mem (max 4 (V.width r * 4));
                   note = "spill";
                 }))
          d_spilled
      end)
    code;
  (Array.of_list (List.rev !out), !offset - slot_base)
