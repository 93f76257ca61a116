(** Simulated device global memory.

    Each program array gets a contiguous allocation in a flat
    byte-addressed space; kernels compute raw addresses
    (base + offset×size) exactly as the generated code does, and the
    memory resolves them back to a cell. Integer arrays and float
    arrays use separate payloads so the interpreter stays typed. *)

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
  t -> name:string -> elem:Safara_ir.Types.dtype -> length:int -> unit
(** Allocate [length] zero-initialized elements.
    @raise Invalid_argument on duplicate names or nonpositive length. *)

val alloc_program :
  t -> env:(string * int) list -> Safara_ir.Program.t -> unit
(** Allocate every array of a program, sizing symbolic dimensions from
    the integer parameter environment. *)

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
    range check. Slot indices are stable across {!view}s and
    {!copy}s, so a site cursor survives chunks, launches and
    measurement repetitions. The two stores are journaled like
    {!store} (see {!with_undo}). *)

val find_slot : t -> addr:int -> int
(** Slot index of the allocation containing [addr].
    @raise Invalid_argument on a wild address. *)

val slot_contains : t -> slot:int -> addr:int -> bool
(** Whether [addr] falls inside slot [slot]; false for any
    out-of-range [slot] (in particular the initial cursor [-1]). *)

val slot_is_float : t -> slot:int -> bool

val load_float_slot : t -> slot:int -> addr:int -> float
val load_int_slot : t -> slot:int -> addr:int -> int
val store_float_slot : t -> slot:int -> addr:int -> float -> unit
val store_int_slot : t -> slot:int -> addr:int -> int -> unit
(** Unboxed access to a cell of a known slot. The caller must have
    proved [slot_contains t ~slot ~addr] (the range check doubles as
    the bounds proof). *)

val float_data : t -> string -> float array
(** Direct view of a float array's payload (shared, mutable) — used by
    workload generators and result checking. *)

val int_data : t -> string -> int array

val copy : t -> t
(** Deep copy, with no journal active. A functional run writes its
    results into memory for checking, so it runs on a copy when the
    original must stay pristine. *)

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
    leaves its input image as it found it without copying it.
    @raise Invalid_argument if a journal is already active on [t]'s
    memory (no nesting). *)

val undo_active : t -> bool
(** Whether a {!with_undo} journal is recording on [t]'s memory. *)

val checksum : t -> string -> float
(** Order-independent digest of an array's contents, for golden
    comparisons between compiler configurations. *)
