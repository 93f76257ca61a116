(** The assembler driver: virtual ISA → register-allocated kernel plus
    the "PTXAS Info" feedback record SAFARA consumes (paper §III.B.2:
    "we use GPU tools to pinpoint the register usage information and
    feed it back to the OpenACC compiler"). *)

type report = {
  kernel_name : string;
  regs_used : int;  (** hardware 32-bit registers per thread *)
  pred_regs : int;
  spill_bytes : int;  (** local-memory bytes of spill slots *)
  spill_loads : int;  (** static count of reload instructions *)
  spill_stores : int;
  instructions : int;  (** static instruction count after allocation *)
}

val assemble :
  ?max_regs:int ->
  ?facts:Safara_vir.Facts.t ->
  arch:Safara_gpu.Arch.t ->
  Safara_vir.Kernel.t ->
  Safara_vir.Kernel.t * Safara_vir.Facts.t * report
(** Allocate registers (default cap:
    [arch.max_registers_per_thread]); if demand exceeds the cap,
    insert spill code and re-allocate to fixpoint. [facts] are the
    facts of the kernel's code (default: fresh ones); each round's
    allocation reads the liveness of its code's facts. The returned
    kernel contains the final (possibly spill-augmented) code, and
    the returned facts are that code's: the input kernel and facts
    themselves when nothing spilled.
    @raise Failure if spilling fails to converge (pathological input). *)

val report_line : report -> string
(** The one text of a report: [ptxas info: NAME: R registers, P
    predicates, B bytes spill (L loads, S stores), I instructions],
    without a newline. *)

val pp_report : Format.formatter -> report -> unit
(** Prints {!report_line}. *)
