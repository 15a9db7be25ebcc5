(* Window re-optimization as a sequence-pair ILP; see the .mli for the
   formulation. Variable layout, for k items and m nets:

     x_i = i                 item lower-left x      (0 <= i < k)
     y_i = k + i             item lower-left y
     W   = 2k, H = 2k + 1    envelope
     net e: Lx = 2k+2+4e, Rx = +1, Ly = +2, Ry = +3
     pair p = (i,j), i<j, enumerated i-major:
       s_p = bbase + 2p      1 iff i before j in Gamma+
       t_p = bbase + 2p + 1  1 iff i before j in Gamma-

   All variables are >= 0 (the simplex convention); binaries get their
   implicit <= 1 bound from the ILP layer. *)

type item = { iw : float; ih : float }

type pin = { p_item : int option; p_x : float; p_y : float }

type net = { n_weight : float; n_pins : pin list }

type inst = {
  items : item array;
  nets : net list;
  frame_w : float;
  frame_h : float;
  area_lambda : float;
}

type solved = {
  sol_pos : int array;
  sol_neg : int array;
  sol_objective : float;
  sol_nodes : int;
  sol_proved : bool;
}

let pair_index k i j =
  (* i < j; pairs enumerated i-major *)
  (i * k) - (i * (i + 1) / 2) + (j - i - 1)

let n_pairs k = k * (k - 1) / 2

(* Continuous core shared by both problem forms: frame containment,
   envelope rows, net bound rows, and the linearized objective. *)
let core_problem inst =
  let k = Array.length inst.items in
  let nets = Array.of_list inst.nets in
  let m = Array.length nets in
  let x_v i = i and y_v i = k + i in
  let w_v = 2 * k and h_v = (2 * k) + 1 in
  let nbase = (2 * k) + 2 in
  let lx_v e = nbase + (4 * e)
  and rx_v e = nbase + (4 * e) + 1
  and ly_v e = nbase + (4 * e) + 2
  and ry_v e = nbase + (4 * e) + 3 in
  let n_core = nbase + (4 * m) in
  let rows = ref [] in
  let row coeffs op rhs = rows := { Numerics.Simplex.coeffs; op; rhs } :: !rows in
  let le = Numerics.Simplex.Le and ge = Numerics.Simplex.Ge in
  Array.iteri
    (fun i (it : item) ->
      (* inside the frame *)
      row [ (x_v i, 1.0) ] le (inst.frame_w -. it.iw);
      row [ (y_v i, 1.0) ] le (inst.frame_h -. it.ih);
      (* envelope: W >= x_i + iw, H >= y_i + ih *)
      row [ (x_v i, 1.0); (w_v, -1.0) ] le (-.it.iw);
      row [ (y_v i, 1.0); (h_v, -1.0) ] le (-.it.ih))
    inst.items;
  Array.iteri
    (fun e (n : net) ->
      List.iter
        (fun (p : pin) ->
          match p.p_item with
          | Some i ->
              (* Lx <= x_i + off, Rx >= x_i + off; same in y *)
              row [ (lx_v e, 1.0); (x_v i, -1.0) ] le p.p_x;
              row [ (x_v i, 1.0); (rx_v e, -1.0) ] le (-.p.p_x);
              row [ (ly_v e, 1.0); (y_v i, -1.0) ] le p.p_y;
              row [ (y_v i, 1.0); (ry_v e, -1.0) ] le (-.p.p_y)
          | None ->
              let px = Float.max 0.0 p.p_x and py = Float.max 0.0 p.p_y in
              row [ (lx_v e, 1.0) ] le px;
              row [ (rx_v e, 1.0) ] ge px;
              row [ (ly_v e, 1.0) ] le py;
              row [ (ry_v e, 1.0) ] ge py)
        n.n_pins)
    nets;
  let objective n_vars =
    let obj = Array.make n_vars 0.0 in
    obj.(w_v) <- inst.area_lambda;
    obj.(h_v) <- inst.area_lambda;
    Array.iteri
      (fun e (n : net) ->
        obj.(rx_v e) <- obj.(rx_v e) +. n.n_weight;
        obj.(lx_v e) <- obj.(lx_v e) -. n.n_weight;
        obj.(ry_v e) <- obj.(ry_v e) +. n.n_weight;
        obj.(ly_v e) <- obj.(ly_v e) -. n.n_weight)
      nets;
    obj
  in
  (n_core, rows, objective)

(* The four sequence-pair relation rows of one pair, as coefficients on
   the binaries; with [pin]ned integral binaries the three inactive
   rows are slack by at least M and the active one is exact. *)
let relation_rows inst row i j ~s ~t =
  let k = Array.length inst.items in
  let x_v i = i and y_v i = k + i in
  let wi = inst.items.(i).iw and wj = inst.items.(j).iw in
  let hi = inst.items.(i).ih and hj = inst.items.(j).ih in
  let m_big = inst.frame_w +. inst.frame_h in
  (* (1,1) i left of j:  x_i + wi <= x_j + M(2 - s - t) *)
  row
    [ (x_v i, 1.0); (x_v j, -1.0); (s, m_big); (t, m_big) ]
    Numerics.Simplex.Le
    ((2.0 *. m_big) -. wi);
  (* (0,0) i right of j: x_j + wj <= x_i + M(s + t) *)
  row
    [ (x_v j, 1.0); (x_v i, -1.0); (s, -.m_big); (t, -.m_big) ]
    Numerics.Simplex.Le (-.wj);
  (* (1,0) i above j:    y_j + hj <= y_i + M(1 - s + t) *)
  row
    [ (y_v j, 1.0); (y_v i, -1.0); (s, m_big); (t, -.m_big) ]
    Numerics.Simplex.Le (m_big -. hj);
  (* (0,1) i below j:    y_i + hi <= y_j + M(1 + s - t) *)
  row
    [ (y_v i, 1.0); (y_v j, -1.0); (s, -.m_big); (t, m_big) ]
    Numerics.Simplex.Le (m_big -. hi)

let ilp_problem inst =
  let k = Array.length inst.items in
  let n_core, rows, objective = core_problem inst in
  let bbase = n_core in
  let s_v p = bbase + (2 * p) and t_v p = bbase + (2 * p) + 1 in
  let n_vars = bbase + (2 * n_pairs k) in
  let row coeffs op rhs = rows := { Numerics.Simplex.coeffs; op; rhs } :: !rows in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let p = pair_index k i j in
      relation_rows inst row i j ~s:(s_v p) ~t:(t_v p)
    done
  done;
  (* linear-ordering transitivity on each sorted triple i<j<k', for
     both permutations: b_ij + b_jk - b_ik in [0, 1]. Together with
     b_ji = 1 - b_ij (implicit in the encoding) this excludes every
     3-cycle, so integral solutions are total orders. *)
  let transitivity b =
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        for k' = j + 1 to k - 1 do
          let ij = b (pair_index k i j)
          and jk = b (pair_index k j k')
          and ik = b (pair_index k i k') in
          row [ (ij, 1.0); (jk, 1.0); (ik, -1.0) ] Numerics.Simplex.Le 1.0;
          row [ (ik, 1.0); (ij, -1.0); (jk, -1.0) ] Numerics.Simplex.Le 0.0
        done
      done
    done
  in
  transitivity s_v;
  transitivity t_v;
  let kinds = Array.make n_vars Numerics.Ilp.Continuous in
  for p = 0 to n_pairs k - 1 do
    kinds.(s_v p) <- Numerics.Ilp.Binary;
    kinds.(t_v p) <- Numerics.Ilp.Binary
  done;
  ( {
      Numerics.Ilp.base =
        {
          Numerics.Simplex.n_vars;
          objective = objective n_vars;
          constraints = List.rev !rows;
        };
      kinds;
    },
    s_v,
    t_v )

(* Total order from the pairwise binaries: an item's rank is the count
   of items it precedes (distinct 0..k-1 by transitivity). *)
let order_of_wins k before =
  let wins = Array.make k 0 in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if before i j then wins.(i) <- wins.(i) + 1
      else wins.(j) <- wins.(j) + 1
    done
  done;
  let order = Array.init k Fun.id in
  Array.sort
    (fun a b ->
      match compare wins.(b) wins.(a) with 0 -> compare a b | c -> c)
    order;
  order

let solve ?(node_budget = 400) ?on_lp inst =
  let k = Array.length inst.items in
  if k = 0 then None
  else
    let prob, s_v, t_v = ilp_problem inst in
    let r = Numerics.Ilp.solve ~max_nodes:node_budget ?on_lp prob in
    match r.Numerics.Ilp.status with
    | Numerics.Ilp.Ilp_optimal | Numerics.Ilp.Ilp_feasible ->
        let x = r.Numerics.Ilp.x in
        let bin v = x.(v) > 0.5 in
        Some
          {
            sol_pos =
              order_of_wins k (fun i j -> bin (s_v (pair_index k i j)));
            sol_neg =
              order_of_wins k (fun i j -> bin (t_v (pair_index k i j)));
            sol_objective = r.Numerics.Ilp.objective_value;
            sol_nodes = r.Numerics.Ilp.nodes;
            sol_proved =
              (match r.Numerics.Ilp.status with
              | Numerics.Ilp.Ilp_optimal -> true
              | _ -> false);
          }
    | Numerics.Ilp.Ilp_infeasible | Numerics.Ilp.Ilp_unbounded -> None

let lp_for_orders inst ~pos ~neg =
  let k = Array.length inst.items in
  if Array.length pos <> k || Array.length neg <> k then
    invalid_arg "Window_ilp.lp_for_orders: order size mismatch";
  let n_vars, rows, objective = core_problem inst in
  let x_v i = i and y_v i = k + i in
  let row coeffs op rhs = rows := { Numerics.Simplex.coeffs; op; rhs } :: !rows in
  let rank_pos = Array.make k 0 and rank_neg = Array.make k 0 in
  Array.iteri (fun r i -> rank_pos.(i) <- r) pos;
  Array.iteri (fun r i -> rank_neg.(i) <- r) neg;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let sp = rank_pos.(i) < rank_pos.(j)
      and sn = rank_neg.(i) < rank_neg.(j) in
      let wi = inst.items.(i).iw and wj = inst.items.(j).iw in
      let hi = inst.items.(i).ih and hj = inst.items.(j).ih in
      match (sp, sn) with
      | true, true ->
          row [ (x_v i, 1.0); (x_v j, -1.0) ] Numerics.Simplex.Le (-.wi)
      | false, false ->
          row [ (x_v j, 1.0); (x_v i, -1.0) ] Numerics.Simplex.Le (-.wj)
      | true, false ->
          row [ (y_v j, 1.0); (y_v i, -1.0) ] Numerics.Simplex.Le (-.hj)
      | false, true ->
          row [ (y_v i, 1.0); (y_v j, -1.0) ] Numerics.Simplex.Le (-.hi)
    done
  done;
  let problem =
    {
      Numerics.Simplex.n_vars;
      objective = objective n_vars;
      constraints = List.rev !rows;
    }
  in
  match Numerics.Simplex.solve problem with
  | Numerics.Simplex.Optimal sol ->
      Some sol.Numerics.Simplex.objective_value
  | Numerics.Simplex.Infeasible | Numerics.Simplex.Unbounded
  | Numerics.Simplex.Iter_limit -> None
