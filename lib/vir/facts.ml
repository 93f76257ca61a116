(* The analyses of one code array, each computed the first time it is
   read. A field left [None] (or a bound of -1) is not computed yet. *)

type t = {
  code : Instr.t array;
  mutable cfg : Cfg.t option;
  mutable bound : int;
  mutable sets : Dataflow.block_sets option;
  mutable live : Dataflow.Live.info option;
  mutable verified : bool;
}

type counts = { arrays : int; cfgs : int; bounds : int }

(* facts made and bounds walked, per domain like [Cfg.builds] *)
let made = Domain.DLS.new_key (fun () -> ref 0)
let walked = Domain.DLS.new_key (fun () -> ref 0)

let counts () =
  {
    arrays = !(Domain.DLS.get made);
    cfgs = Cfg.builds ();
    bounds = !(Domain.DLS.get walked);
  }

let make code =
  incr (Domain.DLS.get made);
  { code; cfg = None; bound = -1; sets = None; live = None; verified = false }

let update t code = if code == t.code then t else make code
let code t = t.code

let cfg t =
  match t.cfg with
  | Some c -> c
  | None ->
      let c = Cfg.build t.code in
      t.cfg <- Some c;
      c

let bound t =
  if t.bound < 0 then begin
    incr (Domain.DLS.get walked);
    t.bound <- Instr.rid_bound t.code
  end;
  t.bound

let sets t =
  match t.sets with
  | Some s -> s
  | None ->
      let s = Dataflow.block_sets ~nregs:(bound t) (cfg t) in
      t.sets <- Some s;
      s

let live t =
  match t.live with
  | Some l -> l
  | None ->
      let l = Dataflow.Live.analyze (cfg t) (sets t) in
      t.live <- Some l;
      l

let max_units t =
  let _, _, peak = Dataflow.Live.profile (cfg t) (live t) in
  peak

(* the listing with the precise live-set size (count of live vregs,
   and their width in 32-bit units) after each instruction *)
let pp_annotated (k : Kernel.t) ppf t =
  let count, width, peak = Dataflow.Live.profile (cfg t) (live t) in
  Format.fprintf ppf
    "@[<v>// %s: live vregs / 32-bit units after each instruction@,"
    k.Kernel.kname;
  Array.iteri
    (fun i ins ->
      Format.fprintf ppf "%4d %4d | %s@," count.(i) width.(i)
        (Instr.to_string ins))
    t.code;
  Format.fprintf ppf "// peak demand: %d units@]" peak

let verified t = t.verified
let set_verified t = t.verified <- true
