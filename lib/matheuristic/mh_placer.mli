(** Matheuristic placer: SA-style global moves alternating with exact
    ILP re-optimization of bounded windows.

    Each cycle runs a slice of the SA placer's annealing schedule
    through the incremental {!Annealing.Eval} engine (the "gp"
    telemetry phase), with SA's sequence-pair moves and the template
    placer's plateau rule, {!Annealing.Sa_placer.capped_plateau}; the
    temperature carries over from one cycle to the next. It then
    sweeps sliding windows of [window] islands — whole symmetry islands,
    never split — re-solving each window's sequence pair exactly with
    {!Window_ilp} (the "dp" phase; the solves themselves are timed under
    the nested "ilp" span). An ILP proposal is applied through
    {!Annealing.Eval.set_order} and gated by the true incremental cost:
    it is committed only when it lowers or preserves the current cost
    (and becomes the schedule's current, and possibly best, cost), and
    reverted otherwise, so the engine's bit-equality contract extends
    through the exact phase.

    Determinism: restarts pre-split the master stream with
    {!Numerics.Rng.split_n} and fan out on the {!Pool} (task-order
    results, ties to the lowest restart index); within a restart the
    annealing and window-selection streams are split once up front; and
    the ILP is time-boxed by a node budget, never wall clock.

    Telemetry counters: [mh.windows] windows solved, [mh.windows_proved]
    those whose ILP proved its optimum within the node budget
    ([Window_ilp.solved.sol_proved]), [mh.window_accepts]
    /[mh.window_rejects] the gate's decisions, plus the usual [sa.*]
    series from the global phase. *)

type params = {
  sa : Annealing.Sa_placer.params;
      (** the global-move schedule: seed, restarts, move budget (total
          across cycles, per restart), weights, cooling, perf term *)
  cycles : int;  (** global-phase / ILP-phase alternations *)
  window : int;  (** islands per ILP window (>= 2 to do anything) *)
  node_budget : int;  (** branch & bound nodes per window solve *)
  walk_neg : bool;
      (** also sweep windows along the negative sequence [Gamma-]
          each ILP phase. [Gamma+] adjacency groups horizontal
          neighbours; [Gamma-] adjacency groups vertical ones, so the
          extra sweep proposes re-orderings the positive walk never
          sees. Off by default: enabling it draws one extra offset per
          phase from the window stream, so it changes the random
          sequence (runs remain deterministic per seed either way). *)
}

val default_params : params
(** One restart, an eighth of the SA move budget split over 4 cycles,
    windows of 4 islands at 50 nodes each -- past ~50 nodes per window,
    extra proof effort was measured to buy almost nothing. [walk_neg]
    is off so historical goldens replay bit-identically. *)

val place :
  ?params:params ->
  ?on_window:(accepted:bool -> before:float -> after:float -> unit) ->
  ?on_lp:(Numerics.Simplex.problem -> unit) ->
  Netlist.Circuit.t ->
  Netlist.Layout.t * float
(** Best layout and its annealing cost. [on_window] observes every
    window decision (the test probe for the accept-only-if-improved
    invariant) and [on_lp] every LP relaxation of every window's branch
    and bound (the test probe for the simplex oracle); with
    [restarts > 1] both run on the pool's worker domains, so callers
    passing one should keep [restarts = 1]. *)
