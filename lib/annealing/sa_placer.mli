(** Simulated-annealing analog placer (symmetry islands + sequence
    pair): the classical baseline of the paper's comparison, in both
    its conventional and performance-driven [19] forms.

    Every cost evaluation goes through the incremental {!Eval} engine;
    this module owns the annealing schedule (below), acceptance and
    restart selection. Progress is reported through telemetry: counters
    [sa.moves], [sa.accepted], [sa.rejected], [sa.evals],
    [sa.cache_hits], [sa.full_repacks] and gauge [sa.best_cost]. *)

type params = {
  seed : int;
  restarts : int;
      (** independent anneals, each on its own [Rng.split] stream, run
          in parallel on the default {!Pool}; the best final cost wins
          (ties break to the lowest restart index). [1] — the default —
          reproduces the historical single-stream behaviour exactly. *)
  area_weight : float;
  wl_weight : float;
  moves : int;  (** total proposed moves per restart (runtime knob) *)
  cooling : float;
  accept0 : float;  (** target initial acceptance probability *)
  order_penalty : float;
  perf : (Netlist.Layout.t -> float) option;
      (** GNN surrogate Phi for the performance-driven variant *)
  perf_alpha : float;
  check_every : int;
      (** debug: cross-check the incremental cost against a full
          recomputation every N evaluations ({!Eval.Check_failed} on
          mismatch); [0] — the default — disables the check *)
}

val default_params : params

val place : ?params:params -> Netlist.Circuit.t -> Netlist.Layout.t * float
(** Returns the best layout found (normalised to the origin) and its
    cost. Symmetry and alignment hold by construction; ordering chains
    are enforced by penalty. *)

(** {2 The annealing schedule}

    One Metropolis schedule drives all three annealing families: this
    placer, the template-composition placer and the matheuristic's
    global phase. It evaluates the initial configuration (the first
    best), probes 40 moves and sets the initial temperature so that the
    mean uphill delta of the probe is accepted with probability
    [accept0], then runs plateaus of [per_temp] moves at a fixed
    temperature, multiplying it by [cooling] after each. A move is
    accepted when it does not raise the cost, or else with probability
    [exp (-delta / temp)]. The families differ only in the move they
    propose, what an accepted move records, and the plateau length:
    SA keeps its historical [max 60 (14 n^2)] moves for [n] islands,
    the other two use {!capped_plateau}. *)

type schedule
(** One anneal in progress: its engine and random stream, current and
    best cost, best layout and batched [sa.*] counters. *)

val capped_plateau : moves:int -> int -> int
(** [capped_plateau ~moves n]: SA's plateau for [n] islands capped at
    [moves / 100] (never below 60), so a reduced budget still cools
    through about 100 temperatures. *)

val start :
  ?propose:(Eval.t -> Numerics.Rng.t -> unit) ->
  ?on_accept:(unit -> unit) ->
  per_temp:int ->
  params ->
  rng:Numerics.Rng.t ->
  Eval.state ->
  schedule
(** Builds the engine over the state from the params' cost weights and
    [check_every], then evaluates and probes as above. [propose]
    (default {!Eval.propose}) leaves one pending move on the engine,
    drawing from [rng]; [on_accept] runs after each accepted plateau
    move is committed. *)

val plateaus : schedule -> int -> unit
(** [plateaus s budget] proposes [budget] moves, cooling after every
    full plateau and after the final partial one. Temperature, current
    and best cost carry over to the next call. *)

val engine : schedule -> Eval.t
(** The engine [start] built. The matheuristic's window phase moves it
    directly and prices and settles its proposals with {!cost},
    {!resync} and {!commit}. *)

val cost : schedule -> float
(** Evaluates the engine's configuration, counted in [sa.evals]. *)

val resync : schedule -> float
(** {!cost}, taken as the current cost and returned. *)

val commit : schedule -> float -> unit
(** Commits the engine's pending move, evaluated at the given cost,
    which becomes the current cost and, if lower, the best. *)

val finish : schedule -> float * Netlist.Layout.t
(** Publishes the batched counters and returns the best cost and the
    layout it was reached at. *)

val select : (float * Netlist.Layout.t) array -> Netlist.Layout.t * float
(** Picks the restart with the lowest final cost (ties to the lowest
    index), sets [sa.best_cost] and normalises the winner under the
    ["dp"] span. Returns it with its cost. *)
