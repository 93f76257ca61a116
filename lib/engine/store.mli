(** A persistent, content-addressed artifact store on disk.

    The store is the durable layer under {!Cache}: in-memory misses
    fall through to it before computing, so artifacts survive process
    exit and are shared between every client of one store directory —
    concurrent CLI runs, the [saraccc serve] daemon, repeated bench
    invocations. Values are opaque byte strings (callers marshal);
    keys are arbitrary strings hashed into file names, so any
    composite cache key works unchanged.

    Durability discipline:
    - every entry is written to a temp file in the store and
      [rename]d into place, so readers never observe a partial entry
      and concurrent writers of the same key are idempotent;
    - every entry carries a header with a format version, the full
      original key and an MD5 checksum of the payload; anything that
      fails validation — truncation, bit rot, a key collision, an
      incompatible version — is deleted, counted in
      [st_corrupt], warned about once on stderr, and reported as a
      miss (never an exception: a corrupt entry must not crash the
      daemon or poison its clients);
    - the store is size-bounded: when the payload total exceeds
      [max_bytes], least-recently-used entries (read hits refresh an
      entry's mtime) are evicted until the total is back under 3/4 of
      the bound.

    All operations are safe under concurrent use from multiple
    domains/threads of one process and, thanks to the atomic-rename
    discipline, from multiple processes sharing the directory. *)

type t

val format_version : int
(** Bumped whenever the entry encoding changes; old entries then read
    as corrupt and are silently recomputed. *)

val default_max_bytes : int
(** 256 MiB. *)

val open_store : ?max_bytes:int -> string -> t
(** [open_store dir] creates [dir] (and its internal layout) if
    needed and scans it for the current payload total.
    @raise Failure if [dir] exists but is not a directory, or cannot
    be created. *)

val dir : t -> string

val max_bytes : t -> int

val find : t -> key:string -> string option
(** Validated payload lookup; [None] on absent {e or} corrupt
    entries. A hit refreshes the entry's LRU clock. *)

val add : t -> key:string -> string -> unit
(** Persist a payload (atomic; last-writer-wins for an already
    present key, which is harmless because entries are
    content-addressed). Triggers GC when the store outgrows
    [max_bytes]. Write failures (disk full, permissions) degrade to
    a one-line warning — the store is a cache, not a system of
    record. *)

val remove : t -> key:string -> unit
(** Delete [key]'s entry, if present, keeping [st_entries] and
    [st_total_bytes] right. {!add} keeps an entry already present, so
    a caller that rejects a validated payload removes it before adding
    the replacement. *)

val entry_path : t -> key:string -> string
(** Where [key]'s entry lives (whether or not it exists) — exposed
    for the corrupt-entry tests. *)

val gc : t -> unit
(** Evict least-recently-used entries until the payload total is
    under 3/4 of [max_bytes]; normally runs automatically from
    {!add}. *)

(** Cumulative observability counters, all since [open_store]. *)
type stats = {
  st_disk_hits : int;
  st_disk_misses : int;
  st_bytes_read : int;  (** payload bytes of validated hits *)
  st_bytes_written : int;  (** payload bytes of completed writes *)
  st_evictions : int;  (** entries removed by GC *)
  st_corrupt : int;  (** entries dropped by validation *)
  st_entries : int;  (** entries on disk right now *)
  st_total_bytes : int;  (** payload bytes on disk right now *)
}

val stats : t -> stats
