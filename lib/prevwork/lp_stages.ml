(* Two-stage LP legalization and detailed placement of the prior work
   [11]: stage 1 compacts area (minimise the extents), stage 2
   minimises wirelength with the extents capped at the stage-1 optimum.
   No device flipping (the paper's reason (3) for its losses), and the
   two objectives are optimised sequentially instead of jointly (its
   structural difference from ePlace-A's single-stage ILP). The rows
   and the axis driver are [Place_common.Dp_flow]'s, shared with
   ePlace-A; both stages are plain LPs solved by the simplex. *)

module DF = Place_common.Dp_flow
module Sx = Numerics.Simplex

let solve_axis c ~seps axis =
  let stage name ?cap ~nets ~extent_cost () =
    Telemetry.Span.with_ ~name (fun () ->
        let lp =
          DF.axis_lp ?cap ~flips:false ~nets ~extent_cost ~axis ~seps c
        in
        match Sx.solve lp.DF.problem with
        | Sx.Optimal s -> Some (DF.solution lp s.Sx.x ~nodes:0)
        | Sx.Infeasible | Sx.Unbounded | Sx.Iter_limit -> None)
  in
  match stage "dp.area_stage" ~nets:false ~extent_cost:1.0 () with
  | None -> None
  | Some area ->
      stage "dp.wl_stage" ~cap:(area.DF.extent +. 1e-6) ~nets:true
        ~extent_cost:0.0 ()

type result = { layout : Netlist.Layout.t; runtime_s : float }

let run c ~gp =
  Option.map
    (fun (r : DF.legalized) -> { layout = r.layout; runtime_s = r.runtime_s })
    (DF.legalize c ~gp ~solve_axis:(solve_axis c))
