(* ePlace-A: the paper's conventional (performance-oblivious) analog
   placer — electrostatic global placement followed by the ILP
   integrated legalization / detailed placement. *)

type params = {
  gp : Gp_params.t;
  dp : Dp_ilp.params;
  dp_passes : int;  (* re-running DP on its own output compacts further *)
  restarts : int;  (* GP seeds tried; best area*HPWL kept *)
}

let default_params =
  { gp = Gp_params.default; dp = Dp_ilp.default_params; dp_passes = 3;
    restarts = 5 }

type result = {
  layout : Netlist.Layout.t;
  gp_result : Global_place.result;
  runtime_s : float;
}

let default_score = Place_common.Dp_flow.default_score

let place ?(params = default_params) ?perf ?(score = default_score)
    (c : Netlist.Circuit.t) =
  let gp ~seed =
    let gp_params = { params.gp with Gp_params.seed } in
    let r = Global_place.run ~params:gp_params ?perf c in
    (r, r.Global_place.layout)
  in
  Place_common.Dp_flow.best_of_restarts ~restarts:params.restarts
    ~passes:params.dp_passes ~seed:params.gp.Gp_params.seed ~score ~gp
    ~dp:(fun gp -> Dp_ilp.run ~params:params.dp c ~gp)
    ~layout:(fun (r : Dp_ilp.result) -> r.layout)
  |> Option.map (fun (gp_result, (dp_result : Dp_ilp.result), runtime_s) ->
         { layout = dp_result.layout; gp_result; runtime_s })
