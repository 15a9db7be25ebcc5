(** ePlace's electrostatic density model: devices as charges, density
    as charge distribution, overlap penalty as potential energy, with
    the field obtained from a spectral Poisson solve. *)

type t

val create : region:Geometry.Rect.t -> nx:int -> ny:int -> t

val density_grad :
  t ->
  xs:float array -> ys:float array ->
  widths:float array -> heights:float array ->
  gx:float array -> gy:float array ->
  unit
(** Rebuild the density map from device centres and extents, solve for
    the field and write each device's energy gradient (as [grad]) to
    [gx.(i)], [gy.(i)]. *)

val compute : t -> Geometry.Rect.t array -> unit
(** Rebuild the density map from device rectangles and solve for the
    field. Must be called before [energy]/[grad]. *)

val energy : t -> Geometry.Rect.t array -> float
(** N(v) = 1/2 sum_i q_i psi(cell_i), the smoothed-overlap objective
    term; the potential is synthesised on the first call after a
    solve. *)

val grad : t -> Geometry.Rect.t -> float * float
(** Gradient of the energy w.r.t. one device's centre coordinates (in
    micrometres). @raise Invalid_argument before [compute]. *)

val overflow : t -> target:float -> total_area:float -> float
(** Fraction of movable area above the [target] occupancy — the
    convergence metric of the global placer. *)

val grid : t -> Bin_grid.t
