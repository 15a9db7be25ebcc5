(** The detailed-placement flow shared by ePlace-A's single-stage ILP
    ({!Eplace.Dp_ilp}, paper Eq. 4) and the prior work [11]'s two-stage
    LP ({!Prevwork.Lp_stages}): the one per-axis LP builder that emits
    every constraint row the two share, the two-attempt axis driver,
    and the GP-seed restart / DP-refinement loop both placers run. *)

type axis_lp = {
  problem : Numerics.Simplex.problem;
  flip_var : int array;  (** device [i]'s flip variable, or [-1] *)
  extent_var : int;  (** the solved W or H *)
}

val axis_lp :
  ?cap:float -> flips:bool -> nets:bool -> extent_cost:float ->
  axis:Sep_plan.axis -> seps:Sep_plan.sep list -> Netlist.Circuit.t -> axis_lp
(** One axis of the legalization problem. Variables: device coords,
    then a flip var for each device with an off-centre pin on a
    multi-pin net (only when [flips]), then (lo, hi) per multi-pin net
    (only when [nets]), the extent and one axis var per symmetry group
    active on this axis. The objective is the net weights on (hi - lo)
    plus [extent_cost] on the extent. Rows, in order: boundary, the
    [cap] on the extent, net bounds (Eq. 4b/4d), the separations
    [seps] along [axis] (4e), symmetry (4f), symmetry cross-coordinate,
    alignment (4g/h), ordering (4i). *)

type axis_solution = {
  coords : float array;  (** device centres along the axis *)
  flips : bool array;
  extent : float;
  nodes : int;  (** branch-and-bound nodes; 0 for a plain LP *)
}

val solution : axis_lp -> float array -> nodes:int -> axis_solution
(** Reads the device coords, flips and extent from a solved vector. *)

type legalized = {
  layout : Netlist.Layout.t;
  runtime_s : float;
  nodes_x : int;
  nodes_y : int;
  fell_back : bool;
}

val legalize :
  Netlist.Circuit.t -> gp:Netlist.Layout.t ->
  solve_axis:
    (seps:Sep_plan.sep list -> Sep_plan.axis -> axis_solution option) ->
  legalized option
(** Solves X then Y under the all-pairs separation plan, then, if
    either axis fails, under the overlap-only plan ([fell_back]), and
    assembles a normalized layout, all inside the ["dp"] span whose
    time is [runtime_s]. [None] when both plans fail. *)

val default_score : Netlist.Layout.t -> float
(** Restart-selection score: area x HPWL (smaller is better). *)

val best_of_restarts :
  restarts:int -> passes:int -> seed:int -> score:(Netlist.Layout.t -> float) ->
  gp:(seed:int -> 'g * Netlist.Layout.t) ->
  dp:(Netlist.Layout.t -> 'd option) -> layout:('d -> Netlist.Layout.t) ->
  ('g * 'd * float) option
(** Runs GP for seeds [seed .. seed + restarts - 1] (at least one),
    then up to [passes] DP passes, each on the previous pass's layout;
    a failing pass keeps the last success. The lowest [score] wins,
    the earlier seed on ties. Returns the GP and DP results and the
    wall time of the whole loop; [None] when no seed gets a DP. *)
