(* Integrated ILP legalization + detailed placement (paper Sec. IV-B,
   Eq. 4): single-stage area + wirelength minimisation with device
   flipping, hard symmetry, alignment and ordering constraints. The
   rows, the two-attempt axis driver and the layout assembly live in
   [Place_common.Dp_flow], shared with the prior work [11]; this module
   owns the objective (net weights plus mu * tilde-W/2 on the extent)
   and the flip binaries.

   Deviation noted in DESIGN.md: the paper adds relative-order
   constraints only for device pairs that overlap after global
   placement (Eq. 4e); we add one for *every* pair (direction taken
   from the global placement), which is the constraint-graph closure of
   that rule and guarantees a legal result for any GP input. Pairs
   bound by a cross-coordinate equality (symmetric pairs, alignment
   pairs) or by an ordering chain have their separation axis forced to
   the consistent one. *)

module DF = Place_common.Dp_flow
module Sx = Numerics.Simplex
module I = Numerics.Ilp

type flip_strategy =
  | Flip_exact  (* binaries solved by branch and bound *)
  | Flip_round  (* LP relaxation, round, one re-solve: near-exact, fast *)
  | Flip_off  (* no flipping, as in the prior work [11] *)

type params = {
  mu : float;  (* area weight in the DP objective (Eq. 4a) *)
  zeta : float;  (* utilization for the tilde W/H estimate *)
  flip : flip_strategy;
  max_nodes : int;  (* branch-and-bound budget per axis (Flip_exact) *)
}

let default_params =
  { mu = 0.35; zeta = 0.55; flip = Flip_round; max_nodes = 60 }

let solve_axis p c ~tilde ~seps (axis : Place_common.Sep_plan.axis) =
  let name = match axis with X_axis -> "dp.axis_x" | Y_axis -> "dp.axis_y" in
  Telemetry.Span.with_ ~name @@ fun () ->
  let lp =
    DF.axis_lp ~flips:(p.flip <> Flip_off) ~nets:true
      ~extent_cost:(p.mu *. tilde /. 2.0) ~axis ~seps c
  in
  let base = lp.DF.problem in
  let kinds = Array.make base.Sx.n_vars I.Continuous in
  let solve ?(rows = []) max_nodes =
    I.solve ~max_nodes
      { I.base = { base with Sx.constraints = rows @ base.Sx.constraints };
        kinds }
  in
  (* one row per flip variable, in device order *)
  let flip_rows op rhs =
    Array.to_list lp.DF.flip_var
    |> List.filter_map (fun v ->
           if v < 0 then None
           else Some { Sx.coeffs = [ (v, 1.0) ]; op; rhs = rhs v })
  in
  let r =
    match p.flip with
    | Flip_exact | Flip_off (* Flip_off built no flip vars *) ->
        Array.iter
          (fun v -> if v >= 0 then kinds.(v) <- I.Binary)
          lp.DF.flip_var;
        solve p.max_nodes
    | Flip_round -> (
        (* solve the relaxation (f in [0,1]), round the flips, then
           re-solve with flips pinned: two LPs instead of a tree *)
        let relax = solve ~rows:(flip_rows Sx.Le (fun _ -> 1.0)) 1 in
        match relax.I.status with
        | I.Ilp_infeasible | I.Ilp_unbounded -> relax
        | I.Ilp_optimal | I.Ilp_feasible ->
            let pin v = if relax.I.x.(v) > 0.5 then 1.0 else 0.0 in
            solve ~rows:(flip_rows Sx.Eq pin) 1)
  in
  match r.I.status with
  | I.Ilp_optimal | I.Ilp_feasible ->
      Some (DF.solution lp r.I.x ~nodes:r.I.nodes)
  | I.Ilp_infeasible | I.Ilp_unbounded -> None

type result = DF.legalized = {
  layout : Netlist.Layout.t;
  runtime_s : float;
  nodes_x : int;
  nodes_y : int;
  fell_back : bool;  (* true when the all-pairs closure was infeasible *)
}

let run ?(params = default_params) (c : Netlist.Circuit.t) ~gp =
  let tilde = sqrt (Netlist.Circuit.total_device_area c /. params.zeta) in
  DF.legalize c ~gp ~solve_axis:(solve_axis params c ~tilde)
