type suite_kind = Spec | Npb

type t = {
  id : string;
  title : string;
  suite : suite_kind;
  description : string;
  source : string;
  scalars : (string * Safara_sim.Value.t) list;
  seed : int;
  check_arrays : string list;
}

let make ~id ~title ~suite ~description ~scalars ?(seed = 42) ?check_arrays source =
  let check_arrays =
    match check_arrays with
    | Some l -> l
    | None ->
        (* default: every non-input array *)
        []
  in
  { id; title; suite; description; source; scalars; seed; check_arrays }

(* deterministic LCG; values in [0.5, 1.5) keep products and sums well
   away from overflow and denormals *)
let lcg_fill seed data =
  let state = ref (seed land 0x3fffffff) in
  for i = 0 to Array.length data - 1 do
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    (* scaling by 2^-30 is exact, so this equals dividing by 2^30 *)
    Array.unsafe_set data i (0.5 +. (float_of_int !state *. 0x1p-30))
  done

let lcg_fill_int seed ~bound data =
  let state = ref ((seed * 31) land 0x3fffffff) in
  for i = 0 to Array.length data - 1 do
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    Array.unsafe_set data i (!state mod bound)
  done

let int_env t =
  List.filter_map
    (fun (n, v) ->
      match v with Safara_sim.Value.I x -> Some (n, x) | _ -> None)
    t.scalars

let fill_inputs t mem (prog : Safara_ir.Program.t) =
  let env = int_env t in
  List.iteri
    (fun idx (a : Safara_ir.Array_info.t) ->
      let name = a.Safara_ir.Array_info.name in
      if Safara_ir.Types.is_float a.Safara_ir.Array_info.elem then
        lcg_fill (t.seed + (idx * 977)) (Safara_sim.Memory.float_data mem name)
      else begin
        (* integer arrays index other arrays: keep them within the
           smallest dynamic extent to stay in bounds *)
        let bound =
          List.fold_left
            (fun acc (d : Safara_ir.Dim.t) ->
              match d.Safara_ir.Dim.extent with
              | Safara_ir.Dim.Const n -> min acc n
              | Safara_ir.Dim.Sym s ->
                  min acc (Option.value (List.assoc_opt s env) ~default:acc))
            1024 a.Safara_ir.Array_info.dims
        in
        lcg_fill_int (t.seed + (idx * 977)) ~bound:(max 1 bound)
          (Safara_sim.Memory.int_data mem name)
      end)
    prog.Safara_ir.Program.arrays

let prepare (c : Safara_core.Compiler.compiled) t =
  let env = Safara_core.Compiler.make_env c ~scalars:t.scalars in
  fill_inputs t env.Safara_sim.Interp.mem c.Safara_core.Compiler.c_prog;
  env

let time_under ?options profile t =
  let c = Safara_core.Compiler.compile_src ?options profile t.source in
  let env = prepare c t in
  (Safara_core.Compiler.time c env, c)

let run_under ?options profile t =
  let c = Safara_core.Compiler.compile_src ?options profile t.source in
  let env = prepare c t in
  Safara_core.Compiler.run_functional c env;
  List.map
    (fun a -> (a, Safara_sim.Memory.checksum env.Safara_sim.Interp.mem a))
    t.check_arrays
