(** Axis-aligned rectangles with the invariant [x0 <= x1] and [y0 <= y1]. *)

type t = { x0 : float; y0 : float; x1 : float; y1 : float }

val make : x0:float -> y0:float -> x1:float -> y1:float -> t
(** @raise Invalid_argument if corners are out of order. *)

val of_center : cx:float -> cy:float -> w:float -> h:float -> t
(** Rectangle of size [w]x[h] centred at [(cx, cy)].
    @raise Invalid_argument on negative size. *)

val empty : t
(** Zero-area rectangle at the origin. *)

val width : t -> float
val height : t -> float
val area : t -> float
val center : t -> Point.t
val lower_left : t -> Point.t
val upper_right : t -> Point.t

val contains : ?eps:float -> outer:t -> t -> bool
(** [contains ~outer inner] tests whether [inner] lies within [outer]. *)

val overlap_x : t -> t -> float
(** Signed overlap width along x; non-positive when disjoint along x. *)

val overlap_y : t -> t -> float

val intersects : ?eps:float -> t -> t -> bool
(** Strict interior intersection: touching edges do not intersect. *)

val overlap_area : t -> t -> float
val union : t -> t -> t

val bounding_box : t list -> t
(** Bounding box of a list of rectangles; [empty] for the empty list. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
