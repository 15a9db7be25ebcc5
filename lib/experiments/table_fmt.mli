(** Fixed-width text tables for the experiment reports. *)

type t = { header : string list; rows : string list list }

val render : Format.formatter -> t -> unit
val f1 : float -> string
val f2 : float -> string
val f3 : float -> string

val geo_mean_ratio : (float * float) list -> float
(** Geometric mean of v/ref pairs — the paper's "Avg. (X)" rows. Pairs
    with a nan or non-positive side do not count; 1.0 when none does. *)
