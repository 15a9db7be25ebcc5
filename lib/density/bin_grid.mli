(** Uniform bin grid over a placement region, shared by both density
    models. *)

type t = {
  nx : int;
  ny : int;
  x0 : float;
  y0 : float;
  bw : float;
  bh : float;
}

val create : region:Geometry.Rect.t -> nx:int -> ny:int -> t
(** @raise Invalid_argument on empty region or non-positive bin counts. *)

val bin_area : t -> float
val bin_center_x : t -> int -> float
val bin_center_y : t -> int -> float

(** The bins a box overlaps: columns [i0..i1], with the overlap width
    of column [i] in [ox.(i)], and rows [j0..j1], with heights in
    [oy.(j)]. Bin [(i, j)] overlaps the box by [ox.(i) *. oy.(j)]
    when both are positive; entries outside the ranges are stale. *)
type cover = {
  mutable i0 : int;
  mutable i1 : int;
  mutable j0 : int;
  mutable j1 : int;
  ox : float array;
  oy : float array;
}

val cover : t -> cover
(** Scratch for {!overlaps}, sized to the grid. *)

val overlaps : t -> cover -> x0:float -> x1:float -> y0:float -> y1:float -> unit
(** [overlaps g c ~x0 ~x1 ~y0 ~y1] fills [c] with the bins the box
    [[x0, x1] x [y0, y1]] overlaps, clipped to the region; an empty
    box leaves [i1 < i0]. *)

val splat : t -> Geometry.Rect.t -> f:(int -> int -> float -> unit) -> unit
(** [splat g r ~f] calls [f ix iy area] for every bin overlapping [r]
    (clipped to the region) with the exact overlap area. *)
