(* The detailed-placement flow shared by ePlace-A's single-stage ILP
   (paper Eq. 4) and the prior work [11]'s two-stage LP. The two share
   every constraint row (boundary, separations 4e, symmetry 4f,
   alignment 4g/h, ordering 4i) and differ only in the objective, the
   staging and the flip binaries, which the callers pick through
   [axis_lp]'s arguments. The paper's formulation is separable, so each
   axis is its own problem. *)

module CS = Netlist.Constraint_set
module Sx = Numerics.Simplex

type axis_lp = { problem : Sx.problem; flip_var : int array; extent_var : int }

(* Variable layout: 0..n-1 device coords; one flip var per device whose
   flip can move a pin of a multi-pin net; (lo, hi) per multi-pin net
   when [nets]; the extent; one axis var per symmetry group active on
   this axis. *)
let axis_lp ?cap ~flips ~nets ~extent_cost ~(axis : Sep_plan.axis)
    ~(seps : Sep_plan.sep list) (c : Netlist.Circuit.t) =
  let n = Netlist.Circuit.n_devices c in
  let cs = c.Netlist.Circuit.constraints in
  let size i =
    let d = Netlist.Circuit.device c i in
    match axis with
    | X_axis -> d.Netlist.Device.w
    | Y_axis -> d.Netlist.Device.h
  in
  (* pin offset along this axis in the unflipped orientation *)
  let pin_off i pin =
    let pq = (Netlist.Circuit.device c i).Netlist.Device.pins.(pin) in
    match axis with
    | X_axis -> pq.Netlist.Device.ox
    | Y_axis -> pq.Netlist.Device.oy
  in
  let flip_var = Array.make n (-1) in
  let n_flip = ref 0 in
  if flips then begin
    let view = Netlist.Netview.of_circuit c in
    let off_centre i (t : Netlist.Net.terminal) =
      t.Netlist.Net.dev = i
      && abs_float (pin_off i t.Netlist.Net.pin -. (0.5 *. size i)) > 1e-9
    in
    let needs_flip i =
      Array.exists
        (fun e ->
          let net = Netlist.Circuit.net c e in
          Netlist.Net.degree net >= 2
          && Array.exists (off_centre i) net.Netlist.Net.terminals)
        (Netlist.Netview.nets_of_device view i)
    in
    for i = 0 to n - 1 do
      if needs_flip i then begin
        flip_var.(i) <- n + !n_flip;
        incr n_flip
      end
    done
  end;
  let multi_nets =
    if nets then
      Array.to_list c.Netlist.Circuit.nets
      |> List.filter (fun e -> Netlist.Net.degree e >= 2)
    else []
  in
  let lo_var k = n + !n_flip + (2 * k) in
  let hi_var k = lo_var k + 1 in
  let extent_var = lo_var (List.length multi_nets) in
  let groups =
    List.filter
      (fun (g : CS.sym_group) ->
        match (g.CS.sym_axis, axis) with
        | CS.Vertical, X_axis | CS.Horizontal, Y_axis -> true
        | CS.Vertical, Y_axis | CS.Horizontal, X_axis -> false)
      cs.CS.sym_groups
  in
  let axis_var = List.mapi (fun k g -> (g, extent_var + 1 + k)) groups in
  let n_vars = extent_var + 1 + List.length groups in
  let objective = Array.make n_vars 0.0 in
  List.iteri
    (fun k (e : Netlist.Net.t) ->
      objective.(lo_var k) <- -.e.Netlist.Net.weight;
      objective.(hi_var k) <- e.Netlist.Net.weight)
    multi_nets;
  objective.(extent_var) <- extent_cost;
  let rows = ref [] in
  let add coeffs op rhs = rows := { Sx.coeffs; op; rhs } :: !rows in
  (* boundary: size/2 <= coord <= extent - size/2 *)
  for i = 0 to n - 1 do
    add [ (i, 1.0) ] Sx.Ge (0.5 *. size i);
    add [ (i, 1.0); (extent_var, -1.0) ] Sx.Le (-0.5 *. size i)
  done;
  Option.iter (fun cap -> add [ (extent_var, 1.0) ] Sx.Le cap) cap;
  (* net bounds with flipping (Eq. 4b + 4d) *)
  List.iteri
    (fun k (e : Netlist.Net.t) ->
      Array.iter
        (fun (t : Netlist.Net.terminal) ->
          let i = t.Netlist.Net.dev in
          let off = pin_off i t.Netlist.Net.pin in
          let a = off -. (0.5 *. size i) in
          let b = size i -. (2.0 *. off) in
          let fterm = if flip_var.(i) >= 0 then [ (flip_var.(i), b) ] else [] in
          (* lo_e <= coord_i + a + f*b *)
          add ((lo_var k, 1.0) :: (i, -1.0)
               :: List.map (fun (v, cf) -> (v, -.cf)) fterm)
            Sx.Le a;
          (* coord_i + a + f*b <= hi_e *)
          add ((i, 1.0) :: (hi_var k, -1.0) :: fterm) Sx.Le (-.a))
        e.Netlist.Net.terminals)
    multi_nets;
  (* separations along this axis (Eq. 4e / closure) *)
  List.iter
    (fun (s : Sep_plan.sep) ->
      if s.along = axis then
        add [ (s.lo, 1.0); (s.hi, -1.0) ] Sx.Le
          (-0.5 *. (size s.lo +. size s.hi)))
    seps;
  (* symmetry (Eq. 4f): mirrored coordinate about the group axis *)
  List.iter
    (fun ((g : CS.sym_group), av) ->
      List.iter
        (fun (q1, q2) -> add [ (q1, 1.0); (q2, 1.0); (av, -2.0) ] Sx.Eq 0.0)
        g.CS.pairs;
      List.iter (fun r -> add [ (r, 1.0); (av, -1.0) ] Sx.Eq 0.0) g.CS.selfs)
    axis_var;
  (* symmetry cross-coordinate: pairs of a vertical group share y (and
     dually); these groups are the ones *not* active on this axis *)
  List.iter
    (fun (g : CS.sym_group) ->
      match (g.CS.sym_axis, axis) with
      | CS.Vertical, Y_axis | CS.Horizontal, X_axis ->
          List.iter
            (fun (q1, q2) -> add [ (q1, 1.0); (q2, -1.0) ] Sx.Eq 0.0)
            g.CS.pairs
      | CS.Vertical, X_axis | CS.Horizontal, Y_axis -> ())
    cs.CS.sym_groups;
  (* alignment (Eq. 4g/4h) *)
  List.iter
    (fun (al : CS.align_pair) ->
      let a = al.CS.a and b = al.CS.b in
      match (al.CS.align_kind, axis) with
      | CS.Vcenter, X_axis | CS.Hcenter, Y_axis ->
          add [ (a, 1.0); (b, -1.0) ] Sx.Eq 0.0
      | CS.Bottom, Y_axis ->
          add [ (a, 1.0); (b, -1.0) ] Sx.Eq (0.5 *. (size a -. size b))
      | CS.Top, Y_axis ->
          add [ (a, 1.0); (b, -1.0) ] Sx.Eq (0.5 *. (size b -. size a))
      | _ -> ())
    cs.CS.aligns;
  (* ordering chains (Eq. 4i): consecutive members *)
  let rec order = function
    | a :: (b :: _ as rest) ->
        add [ (a, 1.0); (b, -1.0) ] Sx.Le (-0.5 *. (size a +. size b));
        order rest
    | _ -> ()
  in
  List.iter
    (fun (o : CS.order_chain) ->
      match (o.CS.order_dir, axis) with
      | CS.Left_to_right, X_axis | CS.Bottom_to_top, Y_axis -> order o.CS.chain
      | CS.Left_to_right, Y_axis | CS.Bottom_to_top, X_axis -> ())
    cs.CS.orders;
  {
    problem = { Sx.n_vars; objective; constraints = List.rev !rows };
    flip_var;
    extent_var;
  }

type axis_solution = {
  coords : float array;
  flips : bool array;
  extent : float;
  nodes : int;
}

let solution lp x ~nodes =
  {
    coords = Array.sub x 0 (Array.length lp.flip_var);
    flips = Array.map (fun v -> v >= 0 && x.(v) > 0.5) lp.flip_var;
    extent = x.(lp.extent_var);
    nodes;
  }

type legalized = {
  layout : Netlist.Layout.t;
  runtime_s : float;
  nodes_x : int;
  nodes_y : int;
  fell_back : bool;
}

let legalize (c : Netlist.Circuit.t) ~gp ~solve_axis =
  let go () =
    let attempt ~all_pairs =
      let seps = Sep_plan.plan c ~gp ~all_pairs in
      match solve_axis ~seps Sep_plan.X_axis with
      | None -> None
      | Some rx ->
          Option.map (fun ry -> (rx, ry)) (solve_axis ~seps Sep_plan.Y_axis)
    in
    let solved, fell_back =
      match attempt ~all_pairs:true with
      | Some r -> (Some r, false)
      | None -> (attempt ~all_pairs:false, true)
    in
    Option.map
      (fun (rx, ry) ->
        let l = Netlist.Layout.create c in
        for i = 0 to Netlist.Layout.n_devices l - 1 do
          Netlist.Layout.set l i ~x:rx.coords.(i) ~y:ry.coords.(i);
          Netlist.Layout.set_orient l i
            (Geometry.Orient.make ~fx:rx.flips.(i) ~fy:ry.flips.(i))
        done;
        Netlist.Layout.normalize l;
        { layout = l; runtime_s = 0.0; nodes_x = rx.nodes; nodes_y = ry.nodes;
          fell_back })
      solved
  in
  let r, dt = Telemetry.Span.timed ~name:"dp" go in
  Option.map (fun r -> { r with runtime_s = dt }) r

let default_score l = Netlist.Layout.area l *. Netlist.Layout.hpwl l

let best_of_restarts ~restarts ~passes ~seed ~score ~gp ~dp ~layout =
  let t0 = Telemetry.now () in
  let rec refine l pass last =
    if pass >= passes then last
    else
      match dp l with
      | Some r -> refine (layout r) (pass + 1) (Some r)
      | None -> last
  in
  let best = ref None in
  for k = 0 to max 0 (restarts - 1) do
    let gp_result, gp_layout = gp ~seed:(seed + k) in
    match refine gp_layout 0 None with
    | Some r -> (
        let s = score (layout r) in
        match !best with
        | Some (s0, _, _) when s0 <= s -> ()
        | _ -> best := Some (s, gp_result, r))
    | None -> ()
  done;
  Option.map (fun (_, g, r) -> (g, r, Telemetry.now () -. t0)) !best
