(** Reimplementation of the prior analytical analog placer [11]
    (Xu et al., ISPD'19): LSE + bell-density global placement and
    two-stage LP legalization / detailed placement, no flipping, no
    area objective. Restarts and refinement passes run through
    {!Place_common.Dp_flow.best_of_restarts}, the loop ePlace-A uses. *)

type params = {
  gp : Ntu_gp.params;
  passes : int;  (** LP-stage refinement passes, matching ePlace-A *)
  restarts : int;  (** GP seeds tried, matching ePlace-A *)
}

val default_params : params

type result = { layout : Netlist.Layout.t; runtime_s : float }

val default_score : Netlist.Layout.t -> float

val place :
  ?params:params ->
  ?perf:
    (xs:float array -> ys:float array -> gx:float array -> gy:float array ->
     float) ->
  ?score:(Netlist.Layout.t -> float) ->
  Netlist.Circuit.t ->
  result option
(** [perf] enables the paper's "Perf*" extension of [11]; [score]
    overrides restart selection (perf runs pass a Phi-aware score). *)
