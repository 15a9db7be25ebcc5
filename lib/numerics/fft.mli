(** Radix-2 complex FFT over cached plans, and the real trigonometric
    transforms of the spectral Poisson solver (the Fourier step of
    ePlace's electrostatic density model) built on it.

    A {!plan} precomputes, for one power-of-two length, the bit-reversal
    table, exact twiddles, Makhoul's pre/post rotations and its own line
    buffers, so the line transforms allocate nothing. A plan is mutable
    scratch: use one per domain. *)

val is_pow2 : int -> bool

val forward : float array -> float array -> unit
(** In-place forward FFT of [(re, im)].
    @raise Invalid_argument unless lengths are equal powers of two. *)

val inverse : float array -> float array -> unit
(** In-place inverse FFT, normalised by 1/N. *)

type plan

val plan : int -> plan
(** @raise Invalid_argument unless the length is a power of two. *)

(** For a plan of length N, the line transforms read the samples
    [src.(off + m * stride)], [m < N], and write their result to the
    same positions of [dst], which may be [src]. All are unnormalised. *)

val dct_ii :
  plan -> float array -> float array -> off:int -> stride:int -> unit
(** [C(k) = sum_m x(m) cos(pi k (2m+1) / 2N)]. *)

val dct_iii :
  plan -> float array -> float array -> off:int -> stride:int -> unit
(** [y(m) = sum_k X(k) cos(pi k (2m+1) / 2N)], the transpose of
    {!dct_ii}. *)

val dst_iii :
  plan -> float array -> float array -> off:int -> stride:int -> unit
(** [y(m) = sum_k X(k) sin(pi k (2m+1) / 2N)] ([X(0)] has no weight). *)
