(** Global placement of the prior analytical work [11]
    (NTUplace3-style): LSE wirelength + bell-shaped density + soft
    symmetry, *without* an area term, solved by nonlinear CG with
    staged density-weight escalation. *)

type params = {
  seed : int;
  bins : int;
  utilization : float;
  target_density : float;
  gamma_factor : float;
  tau : float;
  beta0_ratio : float;
  beta_growth : float;
  stages : int;
  iters_per_stage : int;
}

val default : params

val run :
  ?params:params ->
  ?perf:
    (xs:float array -> ys:float array -> gx:float array -> gy:float array ->
     float) ->
  Netlist.Circuit.t ->
  Netlist.Layout.t
(** [perf] is the Perf* extension hook: the weighted GNN surrogate
    value-and-gradient, exactly as in ePlace-AP. *)
