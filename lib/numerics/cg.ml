(* Nonlinear conjugate gradient (Polak-Ribiere+) with Armijo
   backtracking. This is the NLP solver used by the NTUplace3-style
   reimplementation of the prior analytical work. *)

type stats = { iterations : int; f_evals : int; final_value : float }

let minimize ?(max_iter = 300) ?(gtol = 1e-7) ?(c1 = 1e-4) ?(t0 = 1.0)
    ?(callback = fun _ _ _ -> true) ~f ~x0 () =
  let n = Array.length x0 in
  let x = Array.copy x0 in
  let f_evals = ref 0 in
  let eval x =
    incr f_evals;
    f x
  in
  let fx = ref 0.0 in
  let g = Array.make n 0.0 in
  let v, g0 = eval x in
  fx := v;
  Vec.blit ~src:g0 ~dst:g;
  let d = Array.map (fun gi -> -.gi) g in
  let g_prev = Array.copy g in
  (* the steepest-descent direction when d is not a descent one, and
     the trial point of the line search *)
  let sd = Array.make n 0.0 and xt = Array.make n 0.0 in
  let iter = ref 0 in
  let stop = ref (Vec.norm g < gtol) in
  let t_prev = ref t0 in
  while (not !stop) && !iter < max_iter do
    (* Ensure a descent direction, then Armijo backtracking along it. *)
    let descent = Vec.dot g d < 0.0 in
    let dir =
      if descent then d
      else begin
        for i = 0 to n - 1 do
          sd.(i) <- -.g.(i)
        done;
        sd
      end
    in
    let slope = Vec.dot g dir in
    (* start near twice the previous accepted step to allow growth;
       halve it until the Armijo test passes, at most 61 times more *)
    let t = ref (Float.min 1e6 (Float.max (2.0 *. !t_prev) 1e-10)) in
    let tries = ref 0 and searching = ref true and found = ref false in
    while !searching do
      for i = 0 to n - 1 do
        xt.(i) <- x.(i) +. (!t *. dir.(i))
      done;
      let ft, gt = eval xt in
      if Float.is_finite ft && ft <= !fx +. (c1 *. !t *. slope) then begin
        (* accept: the trial point, its value and gradient are current *)
        searching := false;
        found := true;
        Vec.blit ~src:g ~dst:g_prev;
        Array.blit xt 0 x 0 n;
        fx := ft;
        Vec.blit ~src:gt ~dst:g
      end
      else if !tries > 60 then searching := false
      else begin
        t := 0.5 *. !t;
        incr tries
      end
    done;
    if not !found then
      (* no acceptable step even along steepest descent: converged or
         stuck at numeric precision *)
      stop := true
    else begin
      t_prev := !t;
      (* Polak-Ribiere+ beta with automatic restart *)
      let gg_prev = Vec.norm2 g_prev in
      let beta =
        if gg_prev < 1e-30 then 0.0
        else Float.max 0.0 ((Vec.norm2 g -. Vec.dot g g_prev) /. gg_prev)
      in
      for i = 0 to n - 1 do
        d.(i) <- -.g.(i) +. (beta *. d.(i))
      done;
      incr iter;
      if Vec.norm g < gtol then stop := true;
      if not (callback !iter x !fx) then stop := true
    end
  done;
  (x, { iterations = !iter; f_evals = !f_evals; final_value = !fx })
