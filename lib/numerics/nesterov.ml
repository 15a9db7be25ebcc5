(* Nesterov's accelerated gradient method with the Lipschitz-prediction
   steplength of ePlace (Lu et al., TCAD'15): the step is the inverse of
   a local Lipschitz estimate |du| / |dg| between consecutive lookahead
   points, with a short backtracking loop. *)

type t = {
  grad : float array -> float array -> unit;
  dim : int;
  (* the current iterate; [step] writes the next one into the
     [*_next] buffers, then swaps them in *)
  mutable v : float array;  (* major solution v_k *)
  mutable u : float array;  (* lookahead u_k *)
  mutable g_u : float array;  (* gradient at u_k *)
  mutable v_next : float array;
  mutable u_next : float array;
  mutable g_next : float array;
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
    u;
    g_u;
    v_next = Array.make dim 0.0;
    u_next = Array.make dim 0.0;
    g_next = Array.make dim 0.0;
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
  let v = t.v and u = t.u and g_u = t.g_u in
  let v_new = t.v_next and u_new = t.u_next and g_new = t.g_next in
  (* backtracking: retry with the predicted steplength while it falls
     below 0.95 of the one tried, at most three times *)
  let alpha = ref t.alpha and alpha_next = ref t.alpha and tries = ref 0 in
  let retry = ref true in
  while !retry do
    for i = 0 to t.dim - 1 do
      v_new.(i) <- u.(i) -. (!alpha *. g_u.(i));
      u_new.(i) <- v_new.(i) +. (coef *. (v_new.(i) -. v.(i)))
    done;
    t.grad u_new g_new;
    let alpha_hat =
      lipschitz_alpha ~u1:u_new ~g1:g_new ~u0:u ~g0:g_u ~fallback:!alpha
    in
    if alpha_hat < 0.95 *. !alpha && !tries < 3 then begin
      incr tries;
      alpha := alpha_hat
    end
    else begin
      alpha_next := alpha_hat;
      retry := false
    end
  done;
  (* Adaptive restart (O'Donoghue & Candes): when the momentum direction
     opposes the gradient, reset the momentum to kill oscillation. *)
  let progress = ref 0.0 in
  for i = 0 to t.dim - 1 do
    progress := !progress +. (g_new.(i) *. (v_new.(i) -. v.(i)))
  done;
  t.a <- (if !progress > 0.0 then 1.0 else a_next);
  (* the new iterate becomes current; the old one is the next scratch *)
  t.v <- v_new;
  t.u <- u_new;
  t.g_u <- g_new;
  t.v_next <- v;
  t.u_next <- u;
  t.g_next <- g_u;
  t.alpha <- !alpha_next;
  t.iter <- t.iter + 1
[@@placer_lint.hot]

let minimize ?alpha0 ?(max_iter = 1000) ?(gtol = 1e-8) ~x0 ~grad () =
  let t = create ?alpha0:(Option.map Option.some alpha0) ~x0 ~grad () in
  let continue_ = ref true in
  while !continue_ && t.iter < max_iter do
    step t;
    if Vec.norm t.g_u < gtol then continue_ := false
  done;
  t.v
