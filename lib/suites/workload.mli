(** Benchmark workload descriptions.

    Each workload is a MiniACC program modelled on the dominant offload
    kernels of one SPEC ACCEL or NAS OpenACC benchmark (see DESIGN.md
    for the modelling rationale), plus a deterministic data generator
    and the problem-size parameters. Sizes are scaled down from the
    originals so the cycle-level simulator runs in seconds; the
    register-pressure structure (array counts, dimensionality, reuse
    patterns, coalescing) is what matters for the paper's effects and
    is preserved. *)

type suite_kind = Spec | Npb

type t = {
  id : string;  (** e.g. "355.seismic" *)
  title : string;
  suite : suite_kind;
  description : string;  (** what is modelled and why it is faithful *)
  source : string;  (** MiniACC program *)
  scalars : (string * Safara_sim.Value.t) list;
  seed : int;  (** data-generator seed *)
  check_arrays : string list;
      (** arrays whose contents must agree across compiler profiles *)
}

val make :
  id:string ->
  title:string ->
  suite:suite_kind ->
  description:string ->
  scalars:(string * Safara_sim.Value.t) list ->
  ?seed:int ->
  ?check_arrays:string list ->
  string ->
  t

val prepare :
  Safara_core.Compiler.compiled -> t -> Safara_sim.Interp.env
(** Allocate memory for the workload's inputs. Its cells are produced
    deterministically, page by page as the simulators first resolve
    them ({!Safara_sim.Memory.alloc}): every float array holds LCG
    values in [\[0.5, 1.5)] (well-conditioned for the numerics) and
    every int array small non-negative values. Each page starts its
    array's sequence at its first index by jump-ahead, so the cells do
    not depend on which pages are produced or in what order. *)

val run_under :
  ?options:Safara_core.Pipeline.options ->
  Safara_core.Compiler.profile -> t -> (string * float) list
(** Functional run; returns checksums of [check_arrays]. *)
