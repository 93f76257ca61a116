module T = Safara_ir.Types

type payload = F of float array | I of int array

(* One program array: its reserved address range and the filler that
   produces its cells. [r_slot] is its first slot in the table and
   [r_slots] how many it has: one per page while it is paged, one in
   all after {!force}. *)
type arr = {
  r_name : string;
  r_base : int;
  r_elem : int;
  r_shift : int;  (** log2 r_elem — cells are 4- or 8-byte, so offsets shift *)
  r_float : bool;
  r_length : int;
  r_fill : int -> int -> payload;
  mutable r_slot : int;
  mutable r_slots : int;
}

(* A slot: one page of an array, or the whole array once forced. *)
type alloc = {
  a_base : int;
  a_bytes : int;  (** 0 until the slot is filled *)
  a_elem : int;
  a_shift : int;
  a_payload : payload;
  a_arr : arr;
  a_lo : int;  (** the slot's first cell in its array *)
  a_cells : int;  (** cells the slot reserves *)
}

(* Slots live in a growable table, sorted by base address by
   construction ([next] only grows), with a two-entry last-hit cache
   for address resolution: kernels stream from one array into another,
   so alternating load/store addresses both stay cached and most
   lookups cost one or two range checks. The miss path binary-searches
   the arrays (not the pages, which are many) and computes the page;
   a compiled site's miss starts from its own last slot's array
   instead (see [find_slot]).

   A slot is a page of [page_cells] cells of one array until {!force}
   merges each array into one slot. An unfilled page reserves its
   address range but has an empty one ([a_bytes = 0]), so every range
   check fails on it and only the miss path of [find_idx] meets it;
   that is where the page is filled, replacing its table entry. Table
   entries past [n] are [dummy], whose range is empty too, so a stale
   cursor is harmless after {!force} shrinks the table.

   The allocation table is split from the last-hit cursors: the table
   ([store]) is shared and read-only during a block-parallel
   simulation (which runs on forced memory), while the cursors are
   per-[t] mutable state. [t] itself is the root view; [view] derives
   further lightweight views over the same store so concurrent
   thread-blocks each stream through a private cursor pair instead of
   racing (and cache-thrashing) on a shared one. The undo journal
   lives in the store too, so writes through any view are journaled. *)
type store = {
  mutable allocs : alloc array;  (** first [n] slots used, base-ascending *)
  mutable n : int;
  mutable arrs : arr array;  (** first [na] used, base-ascending *)
  mutable na : int;
  index : (string, arr) Hashtbl.t;
  mutable forced : bool;  (** one filled slot per array: [force] has no work *)
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

let page_shift = 9
let page_cells = 1 lsl page_shift

let no_arr =
  { r_name = ""; r_base = 0; r_elem = 1; r_shift = 0; r_float = false;
    r_length = 0; r_fill = (fun _ _ -> I [||]); r_slot = -1; r_slots = 0 }

let dummy =
  { a_base = 0; a_bytes = 0; a_elem = 1; a_shift = 0; a_payload = I [||];
    a_arr = no_arr; a_lo = 0; a_cells = 0 }

let journal () = { j_at = [||]; j_fold = [||]; j_iold = [||]; j_len = 0 }

let create () =
  {
    s =
      { allocs = [||]; n = 0; arrs = [||]; na = 0; index = Hashtbl.create 16;
        forced = true; next = 0x10000; undo = false; j = journal () };
    last = -1;
    last2 = -1;
  }

let view t = { s = t.s; last = -1; last2 = -1 }

(* [table] with room for [need] entries, its first [used] kept *)
let grow table ~used ~need dummy =
  if need <= Array.length table then table
  else begin
    let grown = Array.make (max need (max 8 (2 * used))) dummy in
    Array.blit table 0 grown 0 used;
    grown
  end

let zeros ~float lo hi =
  if float then F (Array.make (hi - lo) 0.) else I (Array.make (hi - lo) 0)

let alloc ?fill t ~name ~elem ~length =
  let s = t.s in
  if length <= 0 then invalid_arg ("memory: nonpositive length for " ^ name);
  if Hashtbl.mem s.index name then invalid_arg ("memory: duplicate " ^ name);
  let elem_bytes = T.size_bytes elem and float = T.is_float elem in
  let r =
    { r_name = name; r_base = s.next; r_elem = elem_bytes;
      r_shift = (if elem_bytes = 8 then 3 else 2); r_float = float;
      r_length = length; r_fill = Option.value fill ~default:(zeros ~float);
      r_slot = s.n; r_slots = (length + page_cells - 1) / page_cells }
  in
  let empty = if float then F [||] else I [||] in
  s.allocs <- grow s.allocs ~used:s.n ~need:(s.n + r.r_slots) dummy;
  for p = 0 to r.r_slots - 1 do
    let lo = p * page_cells in
    s.allocs.(s.n + p) <-
      { a_base = r.r_base + (lo * elem_bytes); a_bytes = 0; a_elem = elem_bytes;
        a_shift = r.r_shift; a_payload = empty; a_arr = r; a_lo = lo;
        a_cells = min page_cells (length - lo) }
  done;
  s.n <- s.n + r.r_slots;
  s.arrs <- grow s.arrs ~used:s.na ~need:(s.na + 1) no_arr;
  s.arrs.(s.na) <- r;
  s.na <- s.na + 1;
  Hashtbl.replace s.index name r;
  s.forced <- false;
  (* 256-byte alignment, like cudaMalloc *)
  s.next <- s.next + ((length * elem_bytes + 255) / 256 * 256)

let dim_value env (d : Safara_ir.Dim.t) =
  match d.Safara_ir.Dim.extent with
  | Safara_ir.Dim.Const n -> n
  | Safara_ir.Dim.Sym s -> (
      match List.assoc_opt s env with
      | Some v -> v
      | None -> invalid_arg ("memory: unbound dimension parameter " ^ s))

let alloc_program ?fill t ~env (p : Safara_ir.Program.t) =
  List.iter
    (fun (a : Safara_ir.Array_info.t) ->
      let length =
        List.fold_left (fun acc d -> acc * dim_value env d) 1 a.Safara_ir.Array_info.dims
      in
      alloc ?fill:(Option.map (fun f -> f a) fill) t
        ~name:a.Safara_ir.Array_info.name ~elem:a.Safara_ir.Array_info.elem ~length)
    p.Safara_ir.Program.arrays

let find_by_name t name =
  match Hashtbl.find_opt t.s.index name with
  | Some r -> r
  | None -> invalid_arg ("memory: unknown array " ^ name)

let base t name = (find_by_name t name).r_base

(* cells [lo, hi) of [r] from its filler, checked: the slot accessors
   index payloads unchecked *)
let produce r lo hi =
  match r.r_fill lo hi with
  | F d as p when r.r_float && Array.length d = hi - lo -> p
  | I d as p when (not r.r_float) && Array.length d = hi - lo -> p
  | _ -> invalid_arg ("memory: the filler of " ^ r.r_name ^ " returned the wrong cells")

let[@inline never] fill_page s i =
  let a = s.allocs.(i) in
  s.allocs.(i) <-
    { a with
      a_bytes = a.a_cells * a.a_elem;
      a_payload = produce a.a_arr a.a_lo (a.a_lo + a.a_cells) }

let wild addr = invalid_arg (Printf.sprintf "memory: wild address %#x" addr)

let[@inline] inside (a : alloc) addr = addr >= a.a_base && addr < a.a_base + a.a_bytes

(* the slot of [addr], an address at or past [r]'s base, filling its
   page on the page's first resolution; one slot per array once
   forced *)
let slot_in s r addr =
  let off = addr - r.r_base in
  (* past the array's last cell: its alignment padding or beyond *)
  if off >= r.r_length lsl r.r_shift then wild addr;
  let i = if r.r_slots = 1 then r.r_slot else r.r_slot + (off lsr (page_shift + r.r_shift)) in
  if s.allocs.(i).a_bytes = 0 then fill_page s i;
  i

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
      (* greatest array whose base is <= addr *)
      let s = t.s in
      let arrs = s.arrs in
      let lo = ref 0 and hi = ref (s.na - 1) and k = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if arrs.(mid).r_base <= addr then begin
          k := mid;
          lo := mid + 1
        end
        else hi := mid - 1
      done;
      if !k < 0 then wild addr;
      let i = slot_in s arrs.(!k) addr in
      t.last2 <- li;
      t.last <- i;
      i
    end
  end

let find_by_addr t addr = t.s.allocs.(find_idx t addr)

(* --- force ------------------------------------------------------------- *)

(* [r] as one filled slot: its filled pages are copied and each run of
   unfilled pages is produced by one call of the filler. A piece that
   covers the whole array is used as it is, so an untouched array costs
   a single [fill 0 length] and a forced one nothing. *)
let merge s r =
  let page k = s.allocs.(r.r_slot + k) in
  let rec pieces k =
    if k = r.r_slots then []
    else
      let a = page k in
      if a.a_bytes > 0 then (a.a_lo, a.a_payload) :: pieces (k + 1)
      else begin
        let j = ref k in
        while !j < r.r_slots && (page !j).a_bytes = 0 do incr j done;
        let last = page (!j - 1) in
        let p = produce r a.a_lo (last.a_lo + last.a_cells) in
        (a.a_lo, p) :: pieces !j
      end
  in
  let payload =
    match pieces 0 with
    | [ (_, p) ] -> p
    | ps ->
        let whole =
          if r.r_float then F (Array.create_float r.r_length)
          else I (Array.make r.r_length 0)
        in
        List.iter
          (fun (lo, p) ->
            match (p, whole) with
            | F src, F dst -> Array.blit src 0 dst lo (Array.length src)
            | I src, I dst -> Array.blit src 0 dst lo (Array.length src)
            | _ -> assert false)
          ps;
        whole
  in
  { a_base = r.r_base; a_bytes = r.r_length * r.r_elem; a_elem = r.r_elem;
    a_shift = r.r_shift; a_payload = payload; a_arr = r; a_lo = 0;
    a_cells = r.r_length }

let force t =
  let s = t.s in
  if not s.forced then begin
    if s.undo then invalid_arg "Memory.force: a journal is active";
    let merged = Array.init s.na (fun k -> merge s s.arrs.(k)) in
    Array.iteri
      (fun k a ->
        s.allocs.(k) <- a;
        a.a_arr.r_slot <- k;
        a.a_arr.r_slots <- 1)
      merged;
    Array.fill s.allocs s.na (s.n - s.na) dummy;
    s.n <- s.na;
    s.forced <- true
  end

let cells t =
  let c = ref 0 in
  for k = 0 to t.s.na - 1 do
    c := !c + t.s.arrs.(k).r_length
  done;
  !c

let cells_filled t =
  let c = ref 0 in
  for i = 0 to t.s.n - 1 do
    let a = t.s.allocs.(i) in
    if a.a_bytes > 0 then c := !c + a.a_cells
  done;
  !c

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

(* A site cursor that misses has usually left one page of its array
   for the next: its array resolves the address without a search. *)
let find_slot t ~near ~addr =
  let s = t.s in
  if near >= 0 && near < s.n then begin
    let r = (Array.unsafe_get s.allocs near).a_arr in
    if addr >= r.r_base && addr < r.r_base + (r.r_length lsl r.r_shift) then slot_in s r addr
    else find_idx t addr
  end
  else find_idx t addr

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

let data t name =
  let r = find_by_name t name in
  force t;
  t.s.allocs.(r.r_slot).a_payload

let float_data t name =
  match data t name with
  | F data -> data
  | I _ -> invalid_arg ("memory: " ^ name ^ " is an integer array")

let int_data t name =
  match data t name with
  | I data -> data
  | F _ -> invalid_arg ("memory: " ^ name ^ " is a float array")

let copy t =
  force t;
  let s = t.s in
  let arrs = Array.map (fun r -> { r with r_slot = r.r_slot }) (Array.sub s.arrs 0 s.na) in
  let allocs =
    Array.map
      (fun r ->
        let a = s.allocs.(r.r_slot) in
        { a with
          a_arr = r;
          a_payload =
            (match a.a_payload with
            | F d -> F (Array.copy d)
            | I d -> I (Array.copy d)) })
      arrs
  in
  let index = Hashtbl.create 16 in
  Array.iter (fun r -> Hashtbl.replace index r.r_name r) arrs;
  {
    s =
      { allocs; n = s.na; arrs; na = s.na; index; forced = true; next = s.next;
        undo = false; j = journal () };
    last = -1;
    last2 = -1;
  }

let checksum t name =
  match data t name with
  | F data -> Array.fold_left (fun acc x -> acc +. x) 0. data
  | I data -> float_of_int (Array.fold_left ( + ) 0 data)
