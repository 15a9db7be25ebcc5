(* Reimplementation of the prior analytical analog placer [11]
   (Xu et al., ISPD'19), the paper's second comparison point: LSE +
   bell-shaped-density global placement followed by two-stage LP
   legalization and detailed placement. The restart/refinement loop is
   ePlace-A's own ([Place_common.Dp_flow.best_of_restarts]), so the
   measured differences isolate the paper's three stated causes: no
   area term, LSE vs WA smoothing, and no device flipping. *)

type params = { gp : Ntu_gp.params; passes : int; restarts : int }

let default_params = { gp = Ntu_gp.default; passes = 3; restarts = 5 }

type result = { layout : Netlist.Layout.t; runtime_s : float }

let default_score = Place_common.Dp_flow.default_score

let place ?(params = default_params) ?perf ?(score = default_score)
    (c : Netlist.Circuit.t) =
  let gp ~seed =
    ((), Ntu_gp.run ~params:{ params.gp with Ntu_gp.seed } ?perf c)
  in
  Place_common.Dp_flow.best_of_restarts ~restarts:params.restarts
    ~passes:params.passes ~seed:params.gp.Ntu_gp.seed ~score ~gp
    ~dp:(fun gp -> Lp_stages.run c ~gp)
    ~layout:(fun (r : Lp_stages.result) -> r.layout)
  |> Option.map (fun ((), (lp_result : Lp_stages.result), runtime_s) ->
         { layout = lp_result.layout; runtime_s })
