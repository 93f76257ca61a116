(** A content-addressed memo table safe for concurrent domains.

    Keys are digests (any string); values are computed at most once
    per key: the first requester installs an in-flight marker and
    computes outside the lock, later requesters block until the value
    lands and then share the {e same physical} value. The intended
    discipline is that cached values are immutable — compiled
    artifacts, per-region kernels and register counts, timing records,
    front-end IR, key digests — and that nothing mutable
    (simulator memory, register files) is ever stored here. Mutable
    state stays per-job; the one exception outside any cache is the
    evaluation engine's per-domain input images. Timing writes one in
    place and restores it through an undo journal, and an image is
    used by one thread at a time; a functional run works on a copy.

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

(** {1 Claiming keys}

    The steps {!find_or_compute} is made of, for a caller that computes
    several keys in one batch. Every key it owns must be settled with
    {!fill} or {!release}; waiting on another domain's key while still
    owning unsettled ones can deadlock, so a batch claims without
    waiting, settles what it owns, and only then waits for the keys
    that were busy. *)

type 'v claim =
  | Hit of 'v  (** the value (counted as a hit) *)
  | Owned
      (** the caller installed the in-flight marker (counted as a
          miss) and must settle the key *)
  | Busy
      (** another domain's compute is in flight; only with
          [~wait:false], and counted as neither *)

val claim : ?wait:bool -> 'v t -> key:string -> 'v claim
(** [wait] (default [true]) blocks on an in-flight compute until it
    lands, then reports [Hit], or [Owned] if that compute failed. *)

val fill : 'v t -> key:string -> 'v -> unit
(** Publish the value of an owned key and wake its waiters. *)

val release : 'v t -> key:string -> unit
(** Give up an owned key (its compute failed): a waiter takes it over. *)

val hits : 'v t -> int

val misses : 'v t -> int

val length : 'v t -> int
(** Completed entries. *)
