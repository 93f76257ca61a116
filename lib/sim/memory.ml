module T = Safara_ir.Types

type payload = F of float array | I of int array

type alloc = {
  a_base : int;
  a_bytes : int;
  a_elem : int;
  a_shift : int;  (** log2 a_elem — cells are 4- or 8-byte, so offsets shift *)
  a_payload : payload;
}

(* Allocations live in a growable array, sorted by base address by
   construction ([next] only grows), with a hashtable index by name and
   a two-entry last-hit cache for address resolution: kernels stream
   from one array into another, so alternating load/store addresses
   both stay cached and most lookups cost one or two range checks; the
   miss path is a binary search instead of the former linear scan.

   The allocation table is split from the last-hit cursors: the table
   ([store]) is shared and read-only during simulation, while the
   cursors are per-[t] mutable state. [t] itself is the root view;
   [view] derives further lightweight views over the same store so
   concurrent thread-blocks each stream through a private cursor pair
   instead of racing (and cache-thrashing) on a shared one. The undo
   journal lives in the store too, so writes through any view are
   journaled. *)
type store = {
  mutable allocs : alloc array;  (** first [n] slots used, base-ascending *)
  mutable n : int;
  index : (string, int) Hashtbl.t;  (** name → slot *)
  mutable next : int;
  mutable undo : bool;  (** a {!with_undo} journal is recording *)
  j : journal;
}

(* The undo journal: entry [i] is the cell at slot [j_at.(2i)], index
   [j_at.(2i+1)], with its old value in [j_fold.(i)] or [j_iold.(i)]
   by payload kind, in write order. The buffers are kept for the next
   journal. *)
and journal = {
  mutable j_at : int array;
  mutable j_fold : float array;
  mutable j_iold : int array;
  mutable j_len : int;
}

type t = {
  s : store;  (** shared allocation table *)
  mutable last : int;  (** most-recent-hit slot for [find_by_addr], or -1 *)
  mutable last2 : int;  (** second-most-recent-hit slot, or -1 *)
}

let dummy = { a_base = 0; a_bytes = 0; a_elem = 1; a_shift = 0; a_payload = I [||] }

let journal () = { j_at = [||]; j_fold = [||]; j_iold = [||]; j_len = 0 }

let create () =
  {
    s =
      { allocs = [||]; n = 0; index = Hashtbl.create 16; next = 0x10000;
        undo = false; j = journal () };
    last = -1;
    last2 = -1;
  }

let view t = { s = t.s; last = -1; last2 = -1 }

let alloc t ~name ~elem ~length =
  let s = t.s in
  if length <= 0 then invalid_arg ("memory: nonpositive length for " ^ name);
  if Hashtbl.mem s.index name then invalid_arg ("memory: duplicate " ^ name);
  let elem_bytes = T.size_bytes elem in
  let payload =
    if T.is_float elem then F (Array.make length 0.) else I (Array.make length 0)
  in
  let a =
    { a_base = s.next; a_bytes = length * elem_bytes; a_elem = elem_bytes;
      a_shift = (if elem_bytes = 8 then 3 else 2); a_payload = payload }
  in
  if s.n = Array.length s.allocs then begin
    let grown = Array.make (max 8 (2 * s.n)) dummy in
    Array.blit s.allocs 0 grown 0 s.n;
    s.allocs <- grown
  end;
  s.allocs.(s.n) <- a;
  Hashtbl.replace s.index name s.n;
  s.n <- s.n + 1;
  (* 256-byte alignment, like cudaMalloc *)
  s.next <- s.next + ((a.a_bytes + 255) / 256 * 256)

let dim_value env (d : Safara_ir.Dim.t) =
  match d.Safara_ir.Dim.extent with
  | Safara_ir.Dim.Const n -> n
  | Safara_ir.Dim.Sym s -> (
      match List.assoc_opt s env with
      | Some v -> v
      | None -> invalid_arg ("memory: unbound dimension parameter " ^ s))

let alloc_program t ~env (p : Safara_ir.Program.t) =
  List.iter
    (fun (a : Safara_ir.Array_info.t) ->
      let length =
        List.fold_left (fun acc d -> acc * dim_value env d) 1 a.Safara_ir.Array_info.dims
      in
      alloc t ~name:a.Safara_ir.Array_info.name ~elem:a.Safara_ir.Array_info.elem ~length)
    p.Safara_ir.Program.arrays

let find_by_name t name =
  match Hashtbl.find_opt t.s.index name with
  | Some i -> t.s.allocs.(i)
  | None -> invalid_arg ("memory: unknown array " ^ name)

let base t name = (find_by_name t name).a_base

let[@inline] inside (a : alloc) addr = addr >= a.a_base && addr < a.a_base + a.a_bytes

let find_idx t addr =
  let allocs = t.s.allocs in
  let li = t.last in
  if li >= 0 && inside allocs.(li) addr then li
  else begin
    let l2 = t.last2 in
    if l2 >= 0 && inside allocs.(l2) addr then begin
      t.last2 <- li;
      t.last <- l2;
      l2
    end
    else begin
      (* greatest slot whose base is <= addr *)
      let lo = ref 0 and hi = ref (t.s.n - 1) and found = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if allocs.(mid).a_base <= addr then begin
          found := mid;
          lo := mid + 1
        end
        else hi := mid - 1
      done;
      let i = !found in
      if i >= 0 && inside allocs.(i) addr then begin
        t.last2 <- li;
        t.last <- i;
        i
      end
      else invalid_arg (Printf.sprintf "memory: wild address %#x" addr)
    end
  end

let find_by_addr t addr = t.s.allocs.(find_idx t addr)

(* --- undo journal ------------------------------------------------------ *)
(* Every write path costs one branch on [s.undo]; only while a journal
   records does it push the cell's old value, out of line. [idx] is in
   bounds: each caller has resolved [addr] inside slot [slot]. *)

let[@inline never] note s slot idx =
  let j = s.j in
  let n = j.j_len in
  if n = Array.length j.j_iold then begin
    let cap = max 64 (2 * n) in
    let grow a len zero = Array.append a (Array.make (len - Array.length a) zero) in
    j.j_at <- grow j.j_at (2 * cap) 0;
    j.j_fold <- grow j.j_fold cap 0.;
    j.j_iold <- grow j.j_iold cap 0
  end;
  j.j_at.(2 * n) <- slot;
  j.j_at.((2 * n) + 1) <- idx;
  (match s.allocs.(slot).a_payload with
  | F data -> j.j_fold.(n) <- Array.unsafe_get data idx
  | I data -> j.j_iold.(n) <- Array.unsafe_get data idx);
  j.j_len <- n + 1

(* newest first, so a cell written twice ends at its oldest value *)
let rollback s =
  let j = s.j in
  for i = j.j_len - 1 downto 0 do
    let idx = j.j_at.((2 * i) + 1) in
    match s.allocs.(j.j_at.(2 * i)).a_payload with
    | F data -> data.(idx) <- j.j_fold.(i)
    | I data -> data.(idx) <- j.j_iold.(i)
  done;
  j.j_len <- 0

let with_undo t f =
  let s = t.s in
  if s.undo then invalid_arg "Memory.with_undo: a journal is already active";
  s.undo <- true;
  Fun.protect f ~finally:(fun () ->
      s.undo <- false;
      rollback s)

let undo_active t = t.s.undo

let load t ~addr =
  let a = find_by_addr t addr in
  let idx = (addr - a.a_base) / a.a_elem in
  match a.a_payload with
  | F data -> Value.F data.(idx)
  | I data -> Value.I data.(idx)

let store t ~addr v =
  let s = t.s in
  let slot = find_idx t addr in
  let a = s.allocs.(slot) in
  let idx = (addr - a.a_base) / a.a_elem in
  if s.undo then note s slot idx;
  match a.a_payload with
  | F data -> data.(idx) <- Value.to_float v
  | I data -> data.(idx) <- Value.to_int v

let rmw t ~addr f =
  let v = load t ~addr in
  store t ~addr (f v)

(* --- per-site slot accessors (threaded engine) ----------------------- *)
(* See the .mli: one cursor per compiled memory site instead of the
   shared two-entry cache. The conversions mirror Value.to_float /
   Value.to_int applied to the boxed [load]/[store] results, so the
   threaded engine observes exactly the reference semantics without
   materializing a Value.t. [slot_contains]'s range check proved
   [a_base <= addr < a_base + a_bytes], so the shifted cell index is in
   bounds and the payload access can skip the bounds check. *)

let find_slot t ~addr = find_idx t addr

let[@inline] slot_contains t ~slot ~addr =
  slot >= 0 && slot < t.s.n && inside (Array.unsafe_get t.s.allocs slot) addr

let slot_is_float t ~slot =
  match t.s.allocs.(slot).a_payload with F _ -> true | I _ -> false

let[@inline] load_float_slot t ~slot ~addr =
  let a = Array.unsafe_get t.s.allocs slot in
  let idx = (addr - a.a_base) lsr a.a_shift in
  match a.a_payload with
  | F data -> Array.unsafe_get data idx
  | I data -> float_of_int (Array.unsafe_get data idx)

let[@inline] load_int_slot t ~slot ~addr =
  let a = Array.unsafe_get t.s.allocs slot in
  let idx = (addr - a.a_base) lsr a.a_shift in
  match a.a_payload with
  | F data -> int_of_float (Array.unsafe_get data idx)
  | I data -> Array.unsafe_get data idx

let[@inline] store_float_slot t ~slot ~addr f =
  let s = t.s in
  let a = Array.unsafe_get s.allocs slot in
  let idx = (addr - a.a_base) lsr a.a_shift in
  if s.undo then note s slot idx;
  match a.a_payload with
  | F data -> Array.unsafe_set data idx f
  | I data -> Array.unsafe_set data idx (int_of_float f)

let[@inline] store_int_slot t ~slot ~addr n =
  let s = t.s in
  let a = Array.unsafe_get s.allocs slot in
  let idx = (addr - a.a_base) lsr a.a_shift in
  if s.undo then note s slot idx;
  match a.a_payload with
  | F data -> Array.unsafe_set data idx (float_of_int n)
  | I data -> Array.unsafe_set data idx n

let float_data t name =
  match (find_by_name t name).a_payload with
  | F data -> data
  | I _ -> invalid_arg ("memory: " ^ name ^ " is an integer array")

let int_data t name =
  match (find_by_name t name).a_payload with
  | I data -> data
  | F _ -> invalid_arg ("memory: " ^ name ^ " is a float array")

let copy t =
  {
    s =
      {
        allocs =
          Array.map
            (fun a ->
              {
                a with
                a_payload =
                  (match a.a_payload with
                  | F d -> F (Array.copy d)
                  | I d -> I (Array.copy d));
              })
            t.s.allocs;
        n = t.s.n;
        index = Hashtbl.copy t.s.index;
        next = t.s.next;
        undo = false;
        j = journal ();
      };
    last = t.last;
    last2 = t.last2;
  }

let checksum t name =
  let a = find_by_name t name in
  match a.a_payload with
  | F data ->
      Array.fold_left (fun acc x -> acc +. x) 0. data
  | I data -> float_of_int (Array.fold_left ( + ) 0 data)
