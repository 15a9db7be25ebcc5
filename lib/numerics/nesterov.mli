(** Nesterov's accelerated gradient method with ePlace's
    Lipschitz-prediction steplength and backtracking.

    The gradient callback may capture mutable state (e.g. a density
    weight lambda updated between iterations), which is how the global
    placers drive it. *)

type t

val create :
  ?alpha0:float option ->
  x0:float array ->
  grad:(float array -> float array -> unit) ->
  unit ->
  t
(** [grad x g] must write the gradient at [x] into [g]. When [alpha0] is
    absent the initial steplength is probed from a local Lipschitz
    estimate. *)

val step : t -> unit
(** One accelerated iteration (one or more gradient evaluations when
    backtracking triggers). It allocates no arrays: the optimizer owns
    two sets of buffers and swaps them. *)

val x : t -> float array
(** Current major solution v_k. The array is the optimizer's own: a
    caller may write into it between steps (the next step reads it),
    but it is reused as scratch by the step after next. *)

val gradient : t -> float array
(** Gradient at the current lookahead point; the same lifetime as
    {!x}. *)

val iteration : t -> int

val minimize :
  ?alpha0:float ->
  ?max_iter:int ->
  ?gtol:float ->
  x0:float array ->
  grad:(float array -> float array -> unit) ->
  unit ->
  float array
(** Convenience driver: iterate until [max_iter] or gradient norm below
    [gtol]; returns the final major solution. *)
