(** Spectral Poisson solver on a regular grid (Neumann boundary),
    implementing the Fourier step of the electrostatic density model.

    Given a charge density [rho] on an [nx] x [ny] grid (in bin units),
    [solve_poisson] returns the potential [psi] with
    [laplacian psi = -rho] and the field [(ex, ey) = -grad psi],
    evaluated at bin centres. *)

type t
(** A cached plan: per-axis FFT tables and every buffer of a solve. *)

val create : nx:int -> ny:int -> t
(** @raise Invalid_argument unless [nx] and [ny] are powers of two. *)

val analyze : t -> Matrix.t -> Matrix.t
(** Cosine-series coefficients [a] of a grid function (a fresh matrix):
    [rho(i,j) = sum_uv a(u,v) cos(w_u (i+1/2)) cos(w_v (j+1/2))]. *)

type field = { psi : Matrix.t; ex : Matrix.t; ey : Matrix.t }

type xi = { xi_x : Matrix.t; xi_y : Matrix.t }
(** The field [(ex, ey)] alone. *)

val solve_field : t -> Matrix.t -> xi
(** The field of [rho], without synthesising [psi] along x: the same
    matrices, bit for bit, as [solve_poisson]'s [ex] and [ey]. *)

val potential : t -> Matrix.t
(** The potential [psi] of the last solve, finishing its synthesis on
    the first call after [solve_field]. *)

val solve_poisson : t -> Matrix.t -> field
(** [solve_field] followed by [potential]. The returned matrices belong
    to the plan: they stay valid until the next solve on it. *)
