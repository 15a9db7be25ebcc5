(** Exact sequence-pair re-optimization of a bounded window.

    A window is a handful of rigid items (whole symmetry islands) cut
    out of the floorplan, plus the nets that touch them; everything
    outside the window is frozen and enters as fixed pins. The ILP
    decides, per unordered item pair, the two relative-order binaries
    of a sequence pair — [s]: before in Γ+, [t]: before in Γ− — so
    every 0/1 assignment satisfying the linear-ordering transitivity
    rows {e is} a sequence pair over the window:

    - (s,t) = (1,1): left-of, (0,0): right-of, (1,0): above,
      (0,1): below — enforced by big-M non-overlap disjunctions with
      [M = frame_w + frame_h];
    - HPWL is linearized with per-net min/max bound variables
      ([Lx <= every pin x], [Rx >= every pin x], same in y), so the
      objective [sum w_e (Rx-Lx+Ry-Ly) + area_lambda (W+H)] is linear;
    - [W]/[H] envelope the window's items.

    Solved with the repo's own {!Numerics.Simplex} relaxations under
    {!Numerics.Ilp} branch & bound, time-boxed by a node budget only
    (never wall clock — determinism rule D1), so equal inputs always
    return equal orders. *)

type item = { iw : float; ih : float }
(** Rigid rectangle (a symmetry island's bounding box). *)

type pin = {
  p_item : int option;
      (** [Some i]: the pin rides window item [i], offset from the
          item's lower-left corner. [None]: frozen pin of the
          surrounding placement, in frame coordinates (must be
          non-negative; negative coordinates are clamped to 0). *)
  p_x : float;
  p_y : float;
}

type net = { n_weight : float; n_pins : pin list }

type inst = {
  items : item array;
  nets : net list;
  frame_w : float;  (** window placement region; items stay inside *)
  frame_h : float;
  area_lambda : float;  (** weight of the [W + H] envelope term *)
}

type solved = {
  sol_pos : int array;
      (** window sequence pair: [sol_pos.(r)] is the item at rank [r]
          of Γ+ *)
  sol_neg : int array;
  sol_objective : float;
  sol_nodes : int;  (** LP relaxations the branch & bound solved *)
  sol_proved : bool;  (** optimality proved within the node budget *)
}

val solve :
  ?node_budget:int ->
  ?on_lp:(Numerics.Simplex.problem -> unit) ->
  inst ->
  solved option
(** Best window sequence pair under the linearized objective, or
    [None] when no incumbent was found within the node budget (or the
    instance is infeasible — an oversized frame rules that out in
    practice). The default budget is 400 nodes. [on_lp] sees every
    node's LP relaxation ({!Numerics.Ilp.solve}'s probe). *)

val lp_for_orders : inst -> pos:int array -> neg:int array -> float option
(** Optimum of the window LP with every pairwise relation pinned by
    the given sequence pair (no binaries — the relation rows are
    emitted directly). This is the brute-force oracle the property
    tests enumerate: minimizing it over all [(pos, neg)] permutation
    pairs must match {!solve}'s objective exactly. [None] if the LP is
    infeasible for these orders. *)
