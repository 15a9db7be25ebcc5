(** The template-composition placer: islands are looked up in the
    {!Template_store} and annealing searches the product of (island →
    Pareto template choice) and the top-level sequence pair, through
    the same incremental {!Annealing.Eval} engine as the SA baseline.

    The annealing schedule and restart selection are the SA placer's
    (same {!Annealing.Sa_placer.params}, same [sa.*] telemetry, plus
    counter [tmpl.swaps] for accepted template-swap moves). The two
    families differ only in the move set, the choice an accepted swap
    records, and the plateau: {!Annealing.Sa_placer.capped_plateau}
    instead of SA's [max 60 (14 n^2)], because the default budget is an
    eighth of SA's. Every family contains the island's own seed
    packing, so a motif whose family is a singleton — a cache-coherent
    miss, a pinned motif, a lone device — degrades transparently to
    plain SA search over that island.

    Families are materialized on the calling domain {e before} the
    restart fan-out: the parallel anneals only read them, so the store
    is never touched from inside a {!Pool} task. *)

val place :
  ?params:Annealing.Sa_placer.params ->
  ?store:Template_store.t ->
  Netlist.Circuit.t ->
  Netlist.Layout.t * float
(** Returns the best layout (normalised to the origin) and its cost.
    [store] defaults to {!Template_store.default}. *)
