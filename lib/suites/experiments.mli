(** Reproduction of every table and figure in the paper's evaluation
    (§V), built once as a value ({!t}) and rendered as text
    ({!to_text}, which [bench all] prints and
    [test/golden/experiments.golden] pins) or JSON ({!to_json}, which
    [bench json] prints). Speedups are relative to the [Base] profile;
    normalized times follow the paper's
    [Norm(c) = ExeTime(c) / max(ExeTime(OpenUH), ExeTime(PGI))]
    definition (§V.C).

    Every job compiles under the paper's pass configuration
    ({!Safara_core.Pipeline.paper_options}: indvar and memmerge off),
    except two extension columns computed the same way under the
    default pipeline: Tables I/II's [w dim (default pipeline)] and
    Fig 7's [SAFARA (default pipeline)].

    Every generator fans its (workload × profile) jobs out over the
    engine's domain pool, while row assembly and rendering stay serial,
    so output is byte-identical at any [-j]. Every generator also takes
    an architecture (a {!Safara_gpu.Arch.registry} point): the jobs
    carry it into the compile/sim cache keys, so one engine can hold a
    whole architecture sweep without aliasing. *)

type speedup_row = {
  sr_id : string;
  sr_values : (string * float) list;  (** config label → speedup *)
}

type norm_row = {
  nr_id : string;
  nr_values : (string * float) list;  (** compiler label → normalized time *)
}

type reg_row = {
  rr_kernel : string;
  rr_base : int;
  rr_small : int;
  rr_dim : int option;  (** [None] = NA (the clause is not applicable) *)
  rr_saved : int;
  rr_dim_default : int option;
      (** the [w dim] column under the default pipeline (extension) *)
}

type offsets_demo = {
  od_config : string;
  od_dope_loads : int;  (** descriptor-extent loads in the kernel *)
  od_offset_instrs : int;  (** instructions in the kernel body *)
  od_regs : int;
}

type crossarch_row = {
  ca_id : string;
  ca_values : (string * float) list;
      (** arch registry key → Full-vs-base speedup on that model *)
}

type unroll_row = {
  ur_id : string;
  ur_speedups : (int * float) list;
      (** unroll factor → speedup of Full+unroll vs plain Full *)
  ur_regs : (int * int) list;  (** unroll factor → hottest kernel registers *)
}

type ablation_row = {
  ab_name : string;
  ab_description : string;
  ab_speedups : (string * float) list;  (** benchmark id → speedup vs the ablated variant *)
}

(** {1 Generators} *)

val table1 : eng:Eval.t -> arch:Safara_gpu.Arch.t -> reg_row list
(** 355.seismic per-kernel register usage. *)

val table2 : eng:Eval.t -> arch:Safara_gpu.Arch.t -> reg_row list
(** 356.sp per-kernel register usage (with NA rows). *)

val offsets : eng:Eval.t -> arch:Safara_gpu.Arch.t -> offsets_demo list
(** The §IV.A worked example: offset-computation temporaries on the
    Fig-8 kernel without clauses, with [small], with [dim], and with
    both. *)

val fig7 : eng:Eval.t -> arch:Safara_gpu.Arch.t -> speedup_row list
(** SPEC speedups with SAFARA alone, plus the default-pipeline column. *)

val fig9 : eng:Eval.t -> arch:Safara_gpu.Arch.t -> speedup_row list
(** SPEC speedups: small / small+dim / small+dim+SAFARA (cumulative). *)

val fig10 : eng:Eval.t -> arch:Safara_gpu.Arch.t -> speedup_row list
(** NAS speedups, same three configurations. *)

val fig11 : eng:Eval.t -> arch:Safara_gpu.Arch.t -> norm_row list
(** SPEC normalized execution time: OpenUH base / SAFARA /
    SAFARA+clauses vs PGI-like. *)

val fig12 : eng:Eval.t -> arch:Safara_gpu.Arch.t -> norm_row list
(** NAS normalized execution time, same four compilers. *)

val ablations : eng:Eval.t -> arch:Safara_gpu.Arch.t -> ablation_row list
(** The design-choice ablations listed in DESIGN.md §4, with budgets
    and policies derived from the given architecture's limits. *)

val crossarch :
  eng:Eval.t -> archs:Safara_gpu.Arch.t list -> crossarch_row list
(** Extension experiment (not in the paper): the same optimization
    stack retargeted to every given architecture. Each model point
    re-prices the cost model — e.g. Fermi serves read-only references
    at global latency under a 63-register cap — and the speedups shift
    accordingly. *)

val unroll_study : eng:Eval.t -> arch:Safara_gpu.Arch.t -> unroll_row list
(** The paper's stated future work (§VII): combining classical loop
    unrolling with SAFARA and the clauses. Unrolling multiplies both
    the reuse SAFARA can harvest and the register pressure — the same
    tension the clauses arbitrate. *)

val average : speedup_row list -> speedup_row
(** Geometric-mean row labelled "Average". *)

(** {1 The evaluation} *)

type t = {
  arch : Safara_gpu.Arch.t;
  table1 : reg_row list;
  table2 : reg_row list;
  offsets : offsets_demo list;
  fig7 : speedup_row list;
  fig9 : speedup_row list;
  fig10 : speedup_row list;
  fig11 : norm_row list;
  fig12 : norm_row list;
  ablations : ablation_row list;
  crossarch : crossarch_row list;  (** over {!Safara_gpu.Arch.registry} *)
  unroll : unroll_row list;
}

val evaluate : eng:Eval.t -> arch:Safara_gpu.Arch.t -> t
(** Every generator above on [arch] (crossarch on the whole registry).
    Deterministic: equal at any [-j]. *)

val to_text : t -> string
(** A header naming the architecture and the pass configuration, then
    every {!section} in the order listed there, each followed by a
    blank line. *)

val section : string -> (t -> string) option
(** The rendered table of one field of {!t} ([table1], [table2],
    [offsets], [fig7], [fig9], [fig10], [fig11], [fig12], [ablations],
    [crossarch], [unroll]) exactly as {!to_text} prints it; [None] for
    any other name. A title names the architecture when it is not the
    default. *)

val to_json : t -> Safara_json.Sjson.t
(** The same value as one JSON object: [arch], [arch_key], [pipeline]
    ([name] and [disabled] passes), then one member per field of {!t}.
    Register rows carry [dim] and [dim_default_pipeline] ([null] for
    NA). *)
