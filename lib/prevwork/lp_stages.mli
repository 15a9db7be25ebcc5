(** The prior work's two-stage LP legalization + detailed placement:
    area compaction first, then wirelength minimisation with the
    extents capped; no device flipping. Each stage is one
    {!Place_common.Dp_flow.axis_lp} (the rows ePlace-A's ILP uses too)
    with its own objective. *)

type result = { layout : Netlist.Layout.t; runtime_s : float }

val run : Netlist.Circuit.t -> gp:Netlist.Layout.t -> result option
