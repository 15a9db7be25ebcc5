(** Symmetry islands: rigid macros whose internal placement satisfies
    the analog constraints by construction, so the annealer's sequence
    pair only floorplans macros. The only home of an island's packing
    arithmetic — template families build their variants through the
    same constructors, in slot space. Islands are never mutated. *)

type t = {
  devs : int array;  (** member device ids, in member order *)
  dx : float array;
      (** member → centre x offset from the island's lower-left *)
  dy : float array;
  orient : Geometry.Orient.t array;
  w : float;
  h : float;
  axis_dx : float option;
      (** internal x offset of the symmetry axis, for vertical groups *)
}

(** Where a symmetry group's self-symmetric members go: in a column
    between the pair columns ({!decompose}'s layout), or stacked above
    or below closed-up pair columns. *)
type selfs_pos = Center | Above | Below

val pack_sym :
  dims:(int -> float * float) ->
  selfs_pos:selfs_pos ->
  pairs:(int * int) list ->
  selfs:int list ->
  t
(** Vertical-axis symmetry pack of members named by [dims]' domain
    (device ids, or motif slots): pairs in order, the right-hand
    member x-flipped, selfs on the axis. Members are the pairs (a then
    b), then the selfs. *)

val transpose : t -> t
(** Swap the axes (a horizontal-axis group from a vertical pack):
    offsets, sizes and the flip components swap; the axis is dropped. *)

val pack_row : dims:(int -> float * float) -> int list -> t
(** Bottom-aligned row in list order (a single free device is a row of
    one). *)

val of_sym_group : Netlist.Circuit.t -> Netlist.Constraint_set.sym_group -> t
(** {!pack_sym} with [Center] selfs, transposed for horizontal axes. *)

val mirror_x : t -> t
(** Mirror about the island's vertical centreline (legal SA move).
    Device offsets, orientations ([flip_x] each) and the internal
    symmetry axis all reflect; orientations round-trip exactly under a
    double mirror. *)

val place :
  t -> xs:float array -> ys:float array -> int -> Netlist.Layout.t -> unit
(** [place t ~xs ~ys b l] writes [t]'s member centres and orientations
    into [l] with the island's lower-left corner at
    ([xs.(b)], [ys.(b)]) — the packed floorplan's arrays and the
    island's index, so the per-move path boxes no float. *)

val decompose : Netlist.Circuit.t -> t list
(** One island per symmetry group, per alignment cluster of remaining
    devices, and per remaining free device. Every device appears in
    exactly one island. *)
