(** The scalar-replacement transformation (Carr–Kennedy, adapted to
    offload regions as in paper §III).

    Given reuse candidates chosen by the driver, rewrites the region:

    - {e intra-iteration} groups: the replicated reference is loaded
      once into a kernel-local scalar; later reads use the scalar;
      a write to the cell updates the scalar and keeps the store.
    - {e inter-iteration} groups (sequential carrier loop [k], span
      [s]): rotating scalars [t0..ts] are initialized from iterations
      [lo..lo+s-1] before the loop, the body loads only the leading
      value [ts], reads at distance [d] use [td], and the scalars
      rotate at the bottom of the body — exactly the Fig 3 → Fig 4 /
      Fig 5 → Fig 6 rewrite. The whole construct is wrapped in a
      zero-trip guard so the hoisted initial loads cannot read out of
      bounds when the loop would not execute.

    A job rewrites exactly its candidate's members: a reference
    spelled like any member (unrolling spells one cell several ways,
    e.g. [a[j+1]] and [a[1+j]]) reads or updates the scalar, so a
    round leaves none of them behind for the next round to find.

    Candidates must come from {!Safara_analysis.Reuse.candidates} on
    the {e same} region value (matching is positional/syntactic). *)

val apply :
  Safara_ir.Region.t ->
  Safara_analysis.Reuse.candidate list ->
  Safara_ir.Region.t
(** Returns the rewritten region ([rname] preserved). Candidates whose
    scope cannot be located are ignored (robustness; tests assert this
    does not happen for analysis-produced candidates). *)

val scalar_prefix : string
(** Name prefix of generated locals (["__sr"]), used by tests. *)

val reset_fresh : unit -> unit
(** Reset this domain's fresh-name counter. Called by the SAFARA
    driver at the start of each program so generated scalar names are
    a function of the program alone (deterministic under the parallel
    evaluation engine). *)
