(** The compared placement methods behind one interface. *)

(** The three placer families of the paper's comparison, plus the
    template-composition placer built on the motif cache
    ({!Templates.Template_placer}) and the matheuristic that
    alternates SA global moves with exact ILP window re-optimization
    ({!Matheuristic.Mh_placer}). Each has a conventional and a
    performance-driven variant, selected separately (the CLI's
    [--perf] flag, the [perf] parameters below). *)
type kind = Sa | Prev | Eplace | Template | Matheuristic

val all : kind list
(** In the paper's column order: SA, prior work [11], ePlace-A —
    [Template] and [Matheuristic] appended last, so positional
    consumers of the first three columns are unaffected. *)

val to_string : kind -> string
(** ["sa"], ["prev"], ["eplace"], ["template"], ["matheuristic"] —
    the CLI spelling. *)

val of_string : string -> kind option

(** Per-run statistics shared by every placer family, populated from
    the {!Telemetry} collector (counters, gauges and span totals) after
    each run. *)
type stats = {
  iterations : int;
      (** GP engine iterations: Nesterov steps (ePlace-A), CG
          iterations (prev [11]) or proposed moves (SA) *)
  f_evals : int;  (** objective / gradient evaluations *)
  gp_s : float;  (** total time inside "gp" spans *)
  dp_s : float;  (** total time inside "dp" spans *)
  gnn_s : float;
      (** offline GNN training / setup time; excluded from [runtime_s]
          as in the paper's reporting *)
  select_s : float;
      (** candidate-selection time of the performance-driven variants *)
  ilp_nodes : int;  (** branch-and-bound LP relaxations solved *)
  sa_best_cost : float;
      (** best annealing cost across restarts; [nan] for non-SA *)
  final_overflow : float;  (** GP density overflow; [nan] for SA *)
}

type outcome = {
  layout : Netlist.Layout.t;
  runtime_s : float;
      (** wall time of the placement run, from the telemetry clock;
          excludes offline GNN setup (see [stats.gnn_s]) *)
  stats : stats;
}

(** A runnable method. The record is private: callers read the fields
    but {!of_spec} is the only constructor, so every [t] can be traced
    to a serializable, hashable job. *)
type t = private {
  method_name : string;
  run : Netlist.Circuit.t -> outcome option;
}

val sa_default_moves : int

val sa_island_moves : islands:int -> int
(** SA's budget in the bench comparisons: 40k moves per island, capped
    at {!sa_default_moves}. *)

val discounted_moves : int -> int
(** The template and matheuristic budget for a given SA budget: an
    eighth of it, at least 5,000 moves — composition starts from
    known-good island packings and converges far sooner. *)

val template_default_moves : int
(** [discounted_moves sa_default_moves]: the [Template] and
    [Matheuristic] methods' default budget. *)

(** {2 The serializable job spec}

    A placement request as a first-class value: [spec] captures every
    knob the tables, the CLI and the placement service vary, has a
    canonical JSON encoding, and content-hashes stably (field order in
    a client's JSON does not change the hash). [of_spec] is the single
    construction point.

    Family-specific knobs beyond the common fields live in the
    versioned [params] block ({!family_params}); families without any
    use {!Default_params} and serialize without a ["params"] field, so
    their canonical hashes are unchanged from before the block
    existed. *)

type mh_params = {
  mh_window : int;  (** islands per exact ILP window *)
  mh_node_budget : int;  (** branch & bound nodes per window solve *)
  mh_cycles : int;  (** global-phase / ILP-phase alternations *)
  mh_walk_neg : bool;
      (** also sweep ILP windows along the negative sequence (vertical
          neighbourhoods); see {!Matheuristic.Mh_placer.params} *)
}
(** The matheuristic family's knobs (JSON subfields ["window"],
    ["node_budget"], ["cycles"], ["walk_neg"], plus the version tag
    ["v"]). ["walk_neg"] serializes only when [true], so specs that
    predate the knob keep their canonical string and hash unchanged. *)

type family_params = Default_params | Mh_params of mh_params

val default_mh_params : mh_params

type spec = {
  kind : kind;
  perf : bool;  (** performance-driven variant (trains/uses the GNN) *)
  moves : int;  (** SA move budget per restart; ignored by [Prev]/[Eplace] *)
  seed : int;
  restarts : int;
  alpha : float;
      (** performance-term weight: Eq. 5 for the analytical families,
          the Phi cost weight for SA-perf *)
  wl_weight : float;  (** SA only *)
  area_weight : float;  (** SA only *)
  check_every : int;  (** SA debug cross-check period; 0 disables *)
  quick : bool;  (** reduced GNN training budget ([perf] only) *)
  params : family_params;  (** versioned family-specific block *)
}

val default_spec : ?perf:bool -> kind -> spec
(** Family-appropriate defaults: the budgets and weights the paper's
    tables use for one run of that method. *)

val of_spec : spec -> t
(** Build the runnable method a spec denotes. Equal specs build
    behaviourally identical methods (bit-identical layouts for equal
    inputs), which is what makes {!spec_hash} a sound cache key. *)

val spec_to_json : spec -> Jsonio.t
val spec_of_json : Jsonio.t -> (spec, string) result
(** Strict decoding: ["kind"] is required, other fields default from
    {!default_spec}, unknown fields are an error — including inside
    the ["params"] block, whose ["v"] must be absent or this build's
    version, and which only the matheuristic family accepts. *)

val spec_of_string : string -> (spec, string) result
(** Parse then decode. *)

val spec_canonical : spec -> string
(** Canonical encoding (sorted fields, stable number format); the
    preimage of {!spec_hash}. *)

val spec_hash : spec -> string
(** Hex digest of {!spec_canonical}; the spec component of the
    service's (netlist, constraints, spec) cache key. *)
