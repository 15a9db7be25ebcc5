(** Rectilinear net-topology estimation (ALIGN-router substitute):
    L1 MSTs with a Steiner-length correction. *)

type edge = { from_pin : int; to_pin : int; length : float }

type tree = {
  pins : Geometry.Point.t array;
  edges : edge list;
  length : float;
}

val mst : Geometry.Point.t array -> tree
(** Prim's minimum spanning tree in the L1 metric. *)

val steiner_length : Geometry.Point.t array -> float
(** RSMT length estimate: exact HPWL for 2-3 pins, scaled MST above. *)

val net_length : Netlist.Layout.t -> Netlist.Net.t -> float
