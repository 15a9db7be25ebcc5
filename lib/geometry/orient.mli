(** Device orientation as independent horizontal/vertical mirroring.

    Rotation is not modelled: the placers in this reproduction (like the
    paper's ILP detailed placement, Eq. 4d) only flip devices, keeping
    width and height fixed. *)

type t = { fx : bool; fy : bool }

val identity : t
val make : fx:bool -> fy:bool -> t
val flip_x : t -> t
val equal : t -> t -> bool

val all : t list
(** The four orientations, [identity] first. *)

val apply_offset :
  t -> w:float -> h:float -> ox:float -> oy:float -> float * float
(** Pin offset from the lower-left corner after flipping a [w]x[h]
    device whose unflipped offset is [(ox, oy)]. *)

val pp : Format.formatter -> t -> unit
