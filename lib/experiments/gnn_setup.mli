(** Per-circuit GNN training pipeline for the performance-driven
    experiments: labelled dataset generation (>1000 placements per
    design by default, as in the paper), threshold selection, training,
    and the hooks each placer family consumes. *)

type trained = {
  enc : Gnn.Graph_enc.t;
  model : Gnn.Model.t;
  threshold : float;
  train_stats : Gnn.Train.stats;
  n_samples : int;
}

type dataset_sizes = {
  n_random : int;
  n_spread : int;
  n_sa : int;
  n_analytic : int;
}

val default_sizes : dataset_sizes
val quick_sizes : dataset_sizes

val generate_layouts :
  ?sizes:dataset_sizes -> seed:int -> Netlist.Circuit.t ->
  Netlist.Layout.t list

val train_for :
  ?sizes:dataset_sizes -> ?epochs:int -> ?seed:int -> Netlist.Circuit.t ->
  trained

val get :
  ?sizes:dataset_sizes -> ?epochs:int -> ?quick:bool ->
  Netlist.Circuit.t -> trained
(** Cached within the process per circuit content
    ({!Netlist.Io.circuit_hashes}) and training configuration, so two
    circuits that share a name get distinct models. *)

val phi_of_layout : trained -> Netlist.Layout.t -> float
(** GNN inference on a realised layout (the SA cost term of [19]). *)

val phi_grad_hook :
  trained -> alpha:float ->
  (xs:float array -> ys:float array -> gx:float array -> gy:float array ->
   float)
(** Weighted Phi-and-gradient hook for the analytical placers (Eq. 5). *)
