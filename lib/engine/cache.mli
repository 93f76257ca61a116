(** A content-addressed memo table safe for concurrent domains.

    Keys are digests (any string); values are computed at most once
    per key: the first requester installs an in-flight marker and
    computes outside the lock, later requesters block until the value
    lands and then share the {e same physical} value. The intended
    discipline is that cached values are immutable — compiled
    artifacts, timing records, key digests — and that nothing mutable
    (simulator memory, register files) is ever stored here. Mutable
    state stays per-job; the one exception outside any cache is the
    evaluation engine's single pristine input image, which is shared
    read-only and never written (every writer works on a copy).

    A computation that raises clears its marker so a later requester
    can retry; waiters blocked on the failed slot retry the compute
    themselves. *)

type 'v t

val create : ?name:string -> unit -> 'v t

val name : 'v t -> string

val find_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v
(** [find_or_compute c ~key f] returns the cached value for [key],
    computing it with [f] on first request. Waiting on another
    domain's in-flight compute counts as a hit. *)

val hits : 'v t -> int

val misses : 'v t -> int

val length : 'v t -> int
(** Completed entries. *)
