(** ePlace-A: the paper's analytical analog placer (Sec. IV) —
    electrostatic global placement (Eq. 3) + ILP detailed placement
    (Eq. 4). *)

type params = {
  gp : Gp_params.t;
  dp : Dp_ilp.params;
  dp_passes : int;  (** DP refinement passes (the second pass compacts) *)
  restarts : int;  (** GP seeds tried; the best area x HPWL result wins *)
}

val default_params : params

type result = {
  layout : Netlist.Layout.t;  (** final legal placement *)
  gp_result : Global_place.result;
  runtime_s : float;
}

val default_score : Netlist.Layout.t -> float
(** Restart-selection score: area x HPWL (smaller is better). *)

val place :
  ?params:params -> ?perf:Global_place.perf_term ->
  ?score:(Netlist.Layout.t -> float) -> Netlist.Circuit.t -> result option
(** End-to-end placement; [perf] turns it into ePlace-AP (Eq. 5) and
    performance-driven runs also pass a Phi-aware [score] so restart
    selection favours predicted-good layouts. [None] only when detailed
    placement is infeasible. *)
