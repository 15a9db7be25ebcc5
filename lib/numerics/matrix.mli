(** Dense row-major matrices: the grid fields of the density models and
    the layers of the GNN. The products and [transpose] serve the GNN
    only; the spectral solver transforms fields in place. *)

type t

val create : int -> int -> t
(** Zero matrix. @raise Invalid_argument on negative sizes. *)

val init : int -> int -> (int -> int -> float) -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t

val storage : t -> float array
(** The row-major backing array, shared with the matrix (not a copy):
    entry [(i, j)] is at index [i * cols + j]. *)

val transpose : t -> t

val matvec : t -> float array -> float array -> unit
(** [matvec m x y] computes [y <- m x]. *)

val matvec_t : t -> float array -> float array -> unit
(** [matvec_t m x y] computes [y <- m^T x]. *)

val matmul : t -> t -> t
