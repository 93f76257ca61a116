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

(* The deterministic LCG x → a·x + c (mod 2^30). Products of two
   residues stay below 2^61, inside OCaml's 63-bit ints. *)
let lcg_a = 1103515245
let lcg_c = 12345
let lcg_mask = 0x3fffffff

(* the LCG applied [n] times, as the affine pair (a', c') of
   x → a'·x + c', by squaring: powers of one map commute, so composing
   them in any order is exact *)
let lcg_jump n =
  let compose (a1, c1) (a2, c2) =
    ((a1 * a2) land lcg_mask, ((a1 * c2) + c1) land lcg_mask)
  in
  let rec go n sq acc =
    if n = 0 then acc
    else go (n lsr 1) (compose sq sq) (if n land 1 = 1 then compose sq acc else acc)
  in
  go n (lcg_a, lcg_c) (1, 0)

(* The state [lo] steps after [state0]: cell i holds a function of
   the state after i+1 steps, so a page of cells [lo, hi) starts here
   and equals the same cells of a serial loop from cell 0. *)
let lcg_start state0 lo =
  let a, c = lcg_jump lo in
  ((a * state0) + c) land lcg_mask

let float_cells state0 lo hi =
  let state = ref (lcg_start state0 lo) in
  let data = Array.create_float (hi - lo) in
  for i = 0 to hi - lo - 1 do
    state := ((!state * lcg_a) + lcg_c) land lcg_mask;
    (* scaling by 2^-30 is exact, so this equals dividing by 2^30 *)
    Array.unsafe_set data i (0.5 +. (float_of_int !state *. 0x1p-30))
  done;
  data

let int_cells state0 ~bound lo hi =
  let state = ref (lcg_start state0 lo) in
  let data = Array.make (hi - lo) 0 in
  for i = 0 to hi - lo - 1 do
    state := ((!state * lcg_a) + lcg_c) land lcg_mask;
    Array.unsafe_set data i (!state mod bound)
  done;
  data

let int_env t =
  List.filter_map
    (fun (n, v) ->
      match v with Safara_sim.Value.I x -> Some (n, x) | _ -> None)
    t.scalars

(* Float arrays get LCG values in [0.5, 1.5), which keep products and
   sums well away from overflow and denormals. Integer arrays index
   other arrays, so their values stay below the smallest dynamic
   extent. *)
let filler t ~env idx (a : Safara_ir.Array_info.t) =
  let seed = t.seed + (idx * 977) in
  if Safara_ir.Types.is_float a.Safara_ir.Array_info.elem then fun lo hi ->
    Safara_sim.Memory.F (float_cells (seed land lcg_mask) lo hi)
  else begin
    let bound =
      List.fold_left
        (fun acc (d : Safara_ir.Dim.t) ->
          match d.Safara_ir.Dim.extent with
          | Safara_ir.Dim.Const n -> min acc n
          | Safara_ir.Dim.Sym s ->
              min acc (Option.value (List.assoc_opt s env) ~default:acc))
        1024 a.Safara_ir.Array_info.dims
    in
    fun lo hi ->
      Safara_sim.Memory.I
        (int_cells ((seed * 31) land lcg_mask) ~bound:(max 1 bound) lo hi)
  end

let prepare (c : Safara_core.Compiler.compiled) t =
  let env = int_env t in
  let fillers =
    List.mapi
      (fun idx (a : Safara_ir.Array_info.t) ->
        (a.Safara_ir.Array_info.name, filler t ~env idx a))
      c.Safara_core.Compiler.c_prog.Safara_ir.Program.arrays
  in
  Safara_core.Compiler.make_env c ~scalars:t.scalars ~fill:(fun a ->
      List.assoc a.Safara_ir.Array_info.name fillers)

let run_under ?options profile t =
  let c = Safara_core.Compiler.compile_src ?options profile t.source in
  let env = prepare c t in
  Safara_core.Compiler.run_functional c env;
  List.map
    (fun a -> (a, Safara_sim.Memory.checksum env.Safara_sim.Interp.mem a))
    t.check_arrays
