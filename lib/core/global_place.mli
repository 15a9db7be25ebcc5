(** ePlace-A global placement (paper Eq. 3): Nesterov descent on
    WA wirelength + electrostatic density + soft geometric penalties +
    smoothed area, with the density weight grown geometrically and the
    WA gamma annealed against density overflow. *)

type perf_term = {
  phi_grad :
    xs:float array -> ys:float array -> gx:float array -> gy:float array ->
    float;
      (** ePlace-AP hook (paper Eq. 5): evaluate the weighted
          performance surrogate alpha * Phi(G) and accumulate its
          gradient into [gx], [gy]; returns the term's value. *)
}

type result = {
  layout : Netlist.Layout.t;
  iterations : int;
  final_overflow : float;
}

val run :
  ?params:Gp_params.t -> ?perf:perf_term -> Netlist.Circuit.t -> result
(** Global placement only: the result generally still has small
    overlaps and soft-constraint residue; {!Detailed_place} finishes
    the job. *)
