(** ePlace-A's integrated ILP legalization + detailed placement
    (paper Eq. 4): single-stage area and wirelength minimisation with
    device flipping, hard symmetry, alignment and ordering constraints,
    solved as two per-axis ILPs (the formulation is separable). The
    constraint rows and the axis driver are {!Place_common.Dp_flow}'s,
    shared with the prior work [11]'s two-stage LP; this module adds
    the objective and the flip binaries. *)

type flip_strategy =
  | Flip_exact  (** flip binaries solved exactly by branch and bound *)
  | Flip_round  (** LP relaxation + rounding + one re-solve (default) *)
  | Flip_off  (** no device flipping, as in the prior work [11] *)

type params = {
  mu : float;  (** area weight (Eq. 4a) *)
  zeta : float;  (** utilization factor for the tilde-W/H estimate *)
  flip : flip_strategy;
  max_nodes : int;
      (** branch-and-bound node budget per axis (Flip_exact); the only
          limit on a solve, so results never depend on host load *)
}

val default_params : params

type result = Place_common.Dp_flow.legalized = {
  layout : Netlist.Layout.t;
  runtime_s : float;
  nodes_x : int;
  nodes_y : int;
  fell_back : bool;
      (** the all-pairs separation closure was infeasible and the
          paper's overlap-only rule was used instead *)
}

val run :
  ?params:params -> Netlist.Circuit.t -> gp:Netlist.Layout.t -> result option
(** [run c ~gp] legalizes the global placement [gp]. [None] when both
    separation plans are infeasible (malformed constraints). *)
