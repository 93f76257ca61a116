(** The analyses of one code array, computed the first time something
    reads them and kept for every later reader: its CFG, its
    register-id bound, its per-block use/def sets and its liveness.

    The pipeline makes one facts value when a step produces a kernel
    and passes it along with the kernel ([Safara_core.Pass]'s staged
    values carry the pair). The verifier ({!Verify}), the next VIR
    pass, [Pass.measure] and the allocator ([Safara_ptxas.Assemble],
    [Safara_ptxas.Linear_scan]) read it instead of rebuilding. A pass
    that rewrites nothing returns its input facts; one that returns
    new code returns new facts ({!update}). Nothing is cached beyond
    the value itself: facts live as long as the code they describe
    is passed along with them. *)

type t

val make : Instr.t array -> t
(** Facts of this code, none computed yet. Call it once per code
    array: a second facts value of the same array would analyse it
    again. *)

val update : t -> Instr.t array -> t
(** The facts of a pass's result: [t] itself when the result is [t]'s
    own code array, else [make code]. *)

val code : t -> Instr.t array

val cfg : t -> Cfg.t
(** {!Cfg.build} of the code, at most once per facts value; the
    compiler builds CFGs nowhere else. *)

val bound : t -> int
(** {!Instr.rid_bound} of the code, walked at most once. *)

val sets : t -> Dataflow.block_sets
(** {!Dataflow.block_sets} over {!cfg} and {!bound}. *)

val live : t -> Dataflow.Live.info
(** {!Dataflow.Live.analyze} over {!cfg} and {!sets}. *)

val max_units : t -> int
(** Peak simultaneous register demand in 32-bit units, from {!live}:
    the one static pressure number (SAF036, the VIR-stage [regs]
    column of [--time-passes]) and the lower bound the linear-scan
    allocator's [regs_used] must meet or exceed. *)

val pp_annotated : Kernel.t -> Format.formatter -> t -> unit
(** [pp_annotated k] renders the facts of [k]'s code: the listing with
    live vregs / live units after each instruction, ending with its
    {!max_units} peak ([compile --pressure], [--dump-ir]
    [--annotate-live]). *)

val verified : t -> bool
(** Whether the kernel these facts travel with has passed the
    verifier ({!Verify.verify_exn}) in this pipeline run. *)

val set_verified : t -> unit

(** Work counted in the calling domain since it started: a
    deterministic measure of analysis work, where wall time is not. *)
type counts = {
  arrays : int;  (** facts values made ({!make}), one per code array *)
  cfgs : int;  (** every {!Cfg.build}, through {!cfg} or not *)
  bounds : int;  (** register-id bound walks ({!bound}) *)
}

val counts : unit -> counts
