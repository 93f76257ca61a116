(** Simulated device global memory.

    Each program array gets a contiguous allocation in a flat
    byte-addressed space; kernels compute raw addresses
    (base + offset×size) exactly as the generated code does, and the
    memory resolves them back to a cell. Integer arrays and float
    arrays use separate payloads so the interpreter stays typed.

    {2 Page slots}

    An allocation reserves its whole address range at once but
    produces its cells lazily, one page of 512 cells at a time: it
    registers one slot per page, each with an empty range until it is
    filled. The first address resolution that lands in an unfilled
    page (the miss path of {!load}, {!store}, {!rmw} and {!find_slot})
    asks the array's filler for that page's cells, so a timing run
    over one SM's resident set produces only the pages it touches. A
    filled page stays filled. {!force} merges every array into one
    filled slot, producing what no page has yet; {!float_data},
    {!int_data}, {!checksum} and {!copy} force first, and so does
    [Interp.run_kernel] (a functional run, sequential or
    block-parallel, always runs on forced memory, so no two domains
    ever fill a page). *)

type payload = F of float array | I of int array

type t

val create : unit -> t

val view : t -> t
(** A lightweight view over the same memory: the allocation table (and
    every payload) is shared, but the last-hit address-resolution
    cursors are private to the view. Concurrent thread-blocks each
    resolve addresses through their own view so the cursors are
    neither a data race nor a cache-thrash point; the sequential path
    simply uses the root [t], whose behaviour is unchanged. *)

val alloc :
  ?fill:(int -> int -> payload) ->
  t -> name:string -> elem:Safara_ir.Types.dtype -> length:int -> unit
(** Reserve [length] elements at the next 256-byte-aligned address.
    [fill lo hi] must return cells [\[lo, hi)] as a fresh payload of
    the array's kind (float or int); it is called once per page when
    the page is first resolved, or once per run of unfilled pages by
    {!force}, never twice for a cell. Without [fill] the cells are
    zero.
    @raise Invalid_argument on duplicate names or nonpositive length,
    and when a filler returns a payload of the wrong kind or size. *)

val alloc_program :
  ?fill:(Safara_ir.Array_info.t -> int -> int -> payload) ->
  t -> env:(string * int) list -> Safara_ir.Program.t -> unit
(** Allocate every array of a program, sizing symbolic dimensions from
    the integer parameter environment; [fill a] is array [a]'s filler. *)

val force : t -> unit
(** Give every array one filled slot: filled pages are copied, the
    rest is produced, an untouched array by a single [fill 0 length].
    A no-op on memory already forced (no allocation since).
    @raise Invalid_argument if it has work to do while a {!with_undo}
    journal is active: the journal names the slots it renumbers. *)

val cells : t -> int
(** Cells reserved by every allocation. *)

val cells_filled : t -> int
(** Cells produced so far: those of filled pages, or every cell once
    forced. *)

val base : t -> string -> int
(** Device base address of an array. *)

val load : t -> addr:int -> Value.t
val store : t -> addr:int -> Value.t -> unit
val rmw : t -> addr:int -> (Value.t -> Value.t) -> unit

(** {2 Per-site slot access}

    Used by the threaded engine, unboxed: the conversions are exactly
    [Value.to_float]/[Value.to_int] of the boxed operations, without
    materializing a [Value.t]. A static memory instruction nearly
    always streams through a single allocation, but the shared
    last-hit cache thrashes when a kernel alternates several arrays
    (every stencil does), paying the binary search on each access. A
    compiled memory site instead keeps its own cursor — the slot
    index of the allocation it last touched — revalidated with one
    range check. Slot indices are shared by {!view}s, so a site cursor
    survives chunks, launches and measurement repetitions, but they
    are not stable across {!force} (which merges page slots) or
    {!copy} (which forces): a cursor is only ever a hint, revalidated
    by {!slot_contains} before use. The two stores are journaled like
    {!store} (see {!with_undo}). *)

val find_slot : t -> near:int -> addr:int -> int
(** Slot index of the allocation containing [addr], filling its page
    if this is the page's first resolution. [near] is the caller's
    cursor: when [addr] lies in the same array as slot [near] (any
    [near] is accepted), the slot is computed from that array without
    a search, so a cursor stepping from one page to the next pays no
    binary search.
    @raise Invalid_argument on a wild address, including the
    alignment padding after an array. *)

val slot_contains : t -> slot:int -> addr:int -> bool
(** Whether [addr] falls inside slot [slot]; false for any
    out-of-range [slot] (in particular the initial cursor [-1]) and
    for an unfilled page. *)

val slot_is_float : t -> slot:int -> bool

val load_float_slot : t -> slot:int -> addr:int -> float
val load_int_slot : t -> slot:int -> addr:int -> int
val store_float_slot : t -> slot:int -> addr:int -> float -> unit
val store_int_slot : t -> slot:int -> addr:int -> int -> unit
(** Unboxed access to a cell of a known slot. The caller must have
    proved [slot_contains t ~slot ~addr] (the range check doubles as
    the bounds proof). *)

val float_data : t -> string -> float array
(** Direct view of a float array's payload (shared, mutable), after
    {!force} — used by tests and result checking. *)

val int_data : t -> string -> int array

val copy : t -> t
(** Deep copy, with no journal active, of [t] after {!force}ing it (so
    a later copy of the same memory is a plain copy of each array). A
    functional run writes its results into memory for checking, so it
    runs on a copy when the original must stay pristine. *)

(** {2 Undo journal} *)

val with_undo : t -> (unit -> 'a) -> 'a
(** [with_undo t f] runs [f ()] while journaling every cell written
    through {!store}, {!rmw}, {!store_float_slot} or {!store_int_slot}
    (payload, cell index and old value), then restores the journaled
    cells newest-first, bit for bit, whether [f] returns or raises.
    Memory is therefore unchanged after the call, unless [f] wrote
    through the arrays {!float_data} and {!int_data} return, which
    bypass the journal. The journal lives in
    the shared allocation table, so writes through any {!view} of [t]
    are journaled too. It is not synchronized: while it records, only
    one domain may write the memory (see {!undo_active}). Each write
    pays one branch when no journal is active. This is how a timed run
    leaves its input image as it found it without copying it. A page
    is filled before its first write is journaled, so the rollback
    restores the filler's values, and the pages [f] filled stay filled
    for the next journaled run.
    @raise Invalid_argument if a journal is already active on [t]'s
    memory (no nesting). *)

val undo_active : t -> bool
(** Whether a {!with_undo} journal is recording on [t]'s memory. *)

val checksum : t -> string -> float
(** Order-independent digest of an array's contents, after {!force},
    for golden comparisons between compiler configurations. *)
