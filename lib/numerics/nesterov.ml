(* Nesterov's accelerated gradient method with the Lipschitz-prediction
   steplength of ePlace (Lu et al., TCAD'15): the step is the inverse of
   a local Lipschitz estimate |du| / |dg| between consecutive lookahead
   points, with a short backtracking loop. *)

type t = {
  grad : float array -> float array -> unit;
  dim : int;
  mutable v : float array;  (* major solution v_k *)
  mutable v_prev : float array;
  mutable u : float array;  (* lookahead u_k *)
  mutable g_u : float array;  (* gradient at u_k *)
  mutable u_ref : float array;  (* previous lookahead, for Lipschitz *)
  mutable g_ref : float array;
  mutable a : float;  (* momentum parameter a_k *)
  mutable alpha : float;  (* current steplength *)
  mutable iter : int;
}

let steps_counter = Telemetry.Counter.make "nesterov.steps"

let lipschitz_alpha ~u1 ~g1 ~u0 ~g0 ~fallback =
  let du = Vec.dist u1 u0 and dg = Vec.dist g1 g0 in
  if dg > 1e-30 && du > 1e-30 then du /. dg else fallback

let create ?(alpha0 = None) ~x0 ~grad () =
  let dim = Array.length x0 in
  let u = Array.copy x0 in
  let g_u = Array.make dim 0.0 in
  grad u g_u;
  (* Initial steplength: probe a small perturbation along -g. *)
  let alpha =
    match alpha0 with
    | Some a -> a
    | None ->
        let gn = Vec.norm g_u in
        if gn < 1e-30 then 1.0
        else begin
          let scale = 0.1 *. (1.0 +. Vec.max_abs u) /. gn in
          let u' = Array.mapi (fun i x -> x -. (scale *. g_u.(i))) u in
          let g' = Array.make dim 0.0 in
          grad u' g';
          lipschitz_alpha ~u1:u' ~g1:g' ~u0:u ~g0:g_u ~fallback:1.0
        end
  in
  {
    grad;
    dim;
    v = Array.copy x0;
    v_prev = Array.copy x0;
    u;
    g_u;
    u_ref = Array.copy u;
    g_ref = Array.copy g_u;
    a = 1.0;
    alpha;
    iter = 0;
  }

let x t = t.v
let gradient t = t.g_u
let iteration t = t.iter

let step t =
  Telemetry.Counter.incr steps_counter;
  let a_next = 0.5 *. (1.0 +. sqrt ((4.0 *. t.a *. t.a) +. 1.0)) in
  let coef = (t.a -. 1.0) /. a_next in
  let v_new = Array.make t.dim 0.0 in
  let u_new = Array.make t.dim 0.0 in
  let g_new = Array.make t.dim 0.0 in
  let rec attempt tries alpha =
    for i = 0 to t.dim - 1 do
      v_new.(i) <- t.u.(i) -. (alpha *. t.g_u.(i));
      u_new.(i) <- v_new.(i) +. (coef *. (v_new.(i) -. t.v.(i)))
    done;
    t.grad u_new g_new;
    let alpha_hat =
      lipschitz_alpha ~u1:u_new ~g1:g_new ~u0:t.u ~g0:t.g_u ~fallback:alpha
    in
    if alpha_hat < 0.95 *. alpha && tries < 3 then attempt (tries + 1) alpha_hat
    else (alpha, alpha_hat)
  in
  let _used, alpha_next = attempt 0 t.alpha in
  (* Adaptive restart (O'Donoghue & Candes): when the momentum direction
     opposes the gradient, reset the momentum to kill oscillation. *)
  let progress = ref 0.0 in
  for i = 0 to t.dim - 1 do
    progress := !progress +. (g_new.(i) *. (v_new.(i) -. t.v.(i)))
  done;
  t.a <- (if !progress > 0.0 then 1.0 else a_next);
  t.v_prev <- t.v;
  t.v <- Array.copy v_new;
  t.u_ref <- t.u;
  t.g_ref <- t.g_u;
  t.u <- Array.copy u_new;
  t.g_u <- Array.copy g_new;
  t.alpha <- alpha_next;
  t.iter <- t.iter + 1

let minimize ?alpha0 ?(max_iter = 1000) ?(gtol = 1e-8) ~x0 ~grad () =
  let t = create ?alpha0:(Option.map Option.some alpha0) ~x0 ~grad () in
  let continue_ = ref true in
  while !continue_ && t.iter < max_iter do
    step t;
    if Vec.norm t.g_u < gtol then continue_ := false
  done;
  t.v
