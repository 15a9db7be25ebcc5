(* Symmetry islands (Lin et al., TCAD'09): each symmetry group — and
   each alignment cluster of otherwise-free devices — is packed into a
   rigid macro whose internal placement satisfies its constraints by
   construction. Simulated annealing then floorplans the macros with a
   sequence pair, so every intermediate solution is constraint-clean.

   This module is the only home of an island's packing arithmetic:
   the annealer's islands, the template families (built in slot space
   through the same constructors) and every layout written from a
   packed floorplan all go through it. Islands are immutable values —
   a mirror or a relabel builds fresh arrays and may share the
   unchanged ones. *)

module CS = Netlist.Constraint_set

type t = {
  devs : int array;
  dx : float array;  (* centre offset from island lower-left corner *)
  dy : float array;
  orient : Geometry.Orient.t array;
  w : float;
  h : float;
  (* for vertical-axis groups, x offset of the internal symmetry axis;
     used to re-derive the axis after placement *)
  axis_dx : float option;
}

type selfs_pos = Center | Above | Below

let dev_wh c i =
  let d = Netlist.Circuit.device c i in
  (d.Netlist.Device.w, d.Netlist.Device.h)

(* Pack a vertical-axis symmetry group around its axis: mirrored pair
   devices in two columns (right-hand device x-flipped so the pair is
   a true reflection) and self-symmetric devices stacked on the axis.
   [Center] puts the selfs in a column between the pair columns, which
   keeps mirror rows (out / diode / out) bottom-aligned and
   order-consistent — the layout {!decompose} uses; [Above]/[Below]
   close the pair columns up and stack the selfs over/under them.
   Members are pairs in order (a then b), then selfs. *)
let pack_sym ~dims ~selfs_pos ~pairs ~selfs =
  let wc = List.fold_left (fun m r -> Float.max m (fst (dims r))) 0.0 selfs in
  let wp =
    List.fold_left
      (fun m (a, b) -> Float.max m (Float.max (fst (dims a)) (fst (dims b))))
      0.0 pairs
  in
  let w, gap =
    match selfs_pos with
    | Center -> (wc +. (2.0 *. wp), wc)
    | Above | Below -> (Float.max (2.0 *. wp) wc, 0.0)
  in
  let axis = 0.5 *. w in
  let n_pairs = 2 * List.length pairs in
  let n = n_pairs + List.length selfs in
  let devs = Array.make n 0 and dx = Array.make n 0.0 in
  let dy = Array.make n 0.0 and orient = Array.make n Geometry.Orient.identity in
  let put i d x y =
    devs.(i) <- d;
    dx.(i) <- x;
    dy.(i) <- y
  in
  let place_pairs y0 =
    let y = ref y0 in
    List.iteri
      (fun k (a, b) ->
        let wa, ha = dims a and wb, hb = dims b in
        put (2 * k) a (axis -. (0.5 *. gap) -. (0.5 *. wa)) (!y +. (0.5 *. ha));
        put ((2 * k) + 1) b
          (axis +. (0.5 *. gap) +. (0.5 *. wb))
          (!y +. (0.5 *. hb));
        orient.((2 * k) + 1) <- Geometry.Orient.make ~fx:true ~fy:false;
        y := !y +. Float.max ha hb)
      pairs;
    !y
  in
  let place_selfs y0 =
    let y = ref y0 in
    List.iteri
      (fun k r ->
        let hr = snd (dims r) in
        put (n_pairs + k) r axis (!y +. (0.5 *. hr));
        y := !y +. hr)
      selfs;
    !y
  in
  let h =
    match selfs_pos with
    | Center ->
        let yp = place_pairs 0.0 in
        Float.max yp (place_selfs 0.0)
    | Above -> place_selfs (place_pairs 0.0)
    | Below -> place_pairs (place_selfs 0.0)
  in
  { devs; dx; dy; orient; w; h; axis_dx = Some axis }

(* Swap the axes: a vertical-axis group becomes a horizontal-axis one.
   The flip components swap faithfully ({fx; fy} becomes {fy; fx}), so
   orientations carrying [fy] — e.g. a template stored
   mirror-canonical and re-transposed — round-trip exactly instead of
   collapsing onto the identity. *)
let transpose t =
  {
    t with
    dx = t.dy;
    dy = t.dx;
    orient =
      Array.map
        (fun (o : Geometry.Orient.t) ->
          Geometry.Orient.make ~fx:o.Geometry.Orient.fy
            ~fy:o.Geometry.Orient.fx)
        t.orient;
    w = t.h;
    h = t.w;
    axis_dx = None;
  }

(* A bottom-aligned row in list order: alignment clusters of free
   devices (the only cross-device alignment kind the generators emit
   for free devices; other kinds fall back to bottom rows too, which
   keeps the macro rigid and the checks conservative) and, as a row of
   one, every free device. *)
let pack_row ~dims ds =
  let n = List.length ds in
  let dx = Array.make n 0.0 and dy = Array.make n 0.0 in
  let x = ref 0.0 and h = ref 0.0 in
  List.iteri
    (fun i d ->
      let w, hd = dims d in
      dx.(i) <- !x +. (0.5 *. w);
      dy.(i) <- 0.5 *. hd;
      x := !x +. w;
      h := Float.max !h hd)
    ds;
  {
    devs = Array.of_list ds;
    dx;
    dy;
    orient = Array.make n Geometry.Orient.identity;
    w = !x;
    h = !h;
    axis_dx = None;
  }

let of_sym_group c (g : CS.sym_group) =
  let v =
    pack_sym ~dims:(dev_wh c) ~selfs_pos:Center ~pairs:g.CS.pairs
      ~selfs:g.CS.selfs
  in
  match g.CS.sym_axis with CS.Vertical -> v | CS.Horizontal -> transpose v

(* Mirror an island about its vertical centreline (a legal SA move:
   symmetry is preserved, pin positions change). The internal symmetry
   axis mirrors with the devices; for the centred axes the generators
   emit (axis = w/2) the reflection is a floating-point fixed point, so
   existing goldens are unaffected. *)
let mirror_x t =
  {
    t with
    dx = Array.map (fun x -> t.w -. x) t.dx;
    orient = Array.map Geometry.Orient.flip_x t.orient;
    axis_dx = Option.map (fun a -> t.w -. a) t.axis_dx;
  }

(* Write island [t]'s members into [l], its lower-left corner at
   ([xs.(b)], [ys.(b)]) — the packed floorplan's arrays and the
   island's index, so no float crosses the call boxed. *)
let place t ~xs ~ys b (l : Netlist.Layout.t) =
  let lx = l.Netlist.Layout.xs and ly = l.Netlist.Layout.ys in
  let lo = l.Netlist.Layout.orients in
  for i = 0 to Array.length t.devs - 1 do
    let d = t.devs.(i) in
    lx.(d) <- xs.(b) +. t.dx.(i);
    ly.(d) <- ys.(b) +. t.dy.(i);
    lo.(d) <- t.orient.(i)
  done
[@@placer_lint.hot]

(* Decompose a circuit into islands: one per symmetry group, one per
   alignment cluster of remaining devices, one per remaining free
   device. Returns the island list. *)
let decompose (c : Netlist.Circuit.t) =
  let n = Netlist.Circuit.n_devices c in
  let cs = c.Netlist.Circuit.constraints in
  let in_sym = Array.make n false in
  let sym_islands =
    List.map
      (fun g ->
        List.iter (fun d -> in_sym.(d) <- true) (CS.sym_devices g);
        of_sym_group c g)
      cs.CS.sym_groups
  in
  (* union-find over align pairs of non-symmetry devices *)
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter
    (fun (p : CS.align_pair) ->
      if (not in_sym.(p.CS.a)) && not in_sym.(p.CS.b) then union p.CS.a p.CS.b)
    cs.CS.aligns;
  (* bucket free devices by union-find root, indexed by root id: the
     resulting islands enumerate in ascending device order, independent
     of any hash order (filling from n-1 down keeps each member list
     ascending without a sort) *)
  let members = Array.make (max n 1) [] in
  for d = n - 1 downto 0 do
    if not in_sym.(d) then begin
      let r = find d in
      members.(r) <- d :: members.(r)
    end
  done;
  let free_islands =
    Array.to_list members
    |> List.concat_map (function
         | [] -> []
         | ds -> [ pack_row ~dims:(dev_wh c) ds ])
  in
  sym_islands @ free_islands
