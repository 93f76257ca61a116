(** The one clock behind every engine, pipeline and daemon timer: the
    monotonic clock of [bechamel.monotonic_clock], so measured
    intervals never jump with wall-clock adjustments. *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin; only differences are
    meaningful. *)
