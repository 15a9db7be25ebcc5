type t = {
  nx : int;
  ny : int;
  x0 : float;
  y0 : float;
  bw : float;  (* bin width *)
  bh : float;
}

let create ~(region : Geometry.Rect.t) ~nx ~ny =
  if nx <= 0 || ny <= 0 then invalid_arg "Bin_grid.create: bins";
  let w = Geometry.Rect.width region and h = Geometry.Rect.height region in
  if w <= 0.0 || h <= 0.0 then invalid_arg "Bin_grid.create: empty region";
  {
    nx;
    ny;
    x0 = region.Geometry.Rect.x0;
    y0 = region.Geometry.Rect.y0;
    bw = w /. float_of_int nx;
    bh = h /. float_of_int ny;
  }

let bin_area g = g.bw *. g.bh
let bin_center_x g i = g.x0 +. ((float_of_int i +. 0.5) *. g.bw)
let bin_center_y g j = g.y0 +. ((float_of_int j +. 0.5) *. g.bh)

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

type cover = {
  mutable i0 : int;
  mutable i1 : int;
  mutable j0 : int;
  mutable j1 : int;
  ox : float array;
  oy : float array;
}

let cover g =
  { i0 = 0; i1 = -1; j0 = 0; j1 = -1; ox = Array.make g.nx 0.0;
    oy = Array.make g.ny 0.0 }

(* The bins overlapping the box [x0, x1] x [y0, y1], clipped to the
   grid region, with the exact overlap of each column and row. *)
let overlaps g c ~x0 ~x1 ~y0 ~y1 =
  (* bw/bh > 0 is a create invariant; restating it here makes the
     floor/ceil divisors provably positive (N2) *)
  if g.bw <= 0.0 || g.bh <= 0.0 then invalid_arg "Bin_grid.overlaps: bin size";
  let xr0 = g.x0 and yr0 = g.y0 in
  let xr1 = g.x0 +. (float_of_int g.nx *. g.bw) in
  let yr1 = g.y0 +. (float_of_int g.ny *. g.bh) in
  let rx0 = clamp xr0 xr1 x0 and rx1 = clamp xr0 xr1 x1 in
  let ry0 = clamp yr0 yr1 y0 and ry1 = clamp yr0 yr1 y1 in
  if rx1 > rx0 && ry1 > ry0 then begin
    let i0 = int_of_float (Float.floor ((rx0 -. g.x0) /. g.bw)) in
    let i1 = int_of_float (Float.ceil ((rx1 -. g.x0) /. g.bw)) - 1 in
    let j0 = int_of_float (Float.floor ((ry0 -. g.y0) /. g.bh)) in
    let j1 = int_of_float (Float.ceil ((ry1 -. g.y0) /. g.bh)) - 1 in
    c.i0 <- max 0 i0;
    c.i1 <- min (g.nx - 1) i1;
    c.j0 <- max 0 j0;
    c.j1 <- min (g.ny - 1) j1;
    for i = c.i0 to c.i1 do
      let bx0 = g.x0 +. (float_of_int i *. g.bw) in
      c.ox.(i) <- Float.min rx1 (bx0 +. g.bw) -. Float.max rx0 bx0
    done;
    for j = c.j0 to c.j1 do
      let by0 = g.y0 +. (float_of_int j *. g.bh) in
      c.oy.(j) <- Float.min ry1 (by0 +. g.bh) -. Float.max ry0 by0
    done
  end
  else begin
    c.i0 <- 0;
    c.i1 <- -1
  end

let splat g (r : Geometry.Rect.t) ~f =
  let c = cover g in
  overlaps g c ~x0:r.Geometry.Rect.x0 ~x1:r.Geometry.Rect.x1
    ~y0:r.Geometry.Rect.y0 ~y1:r.Geometry.Rect.y1;
  for i = c.i0 to c.i1 do
    let dx = c.ox.(i) in
    if dx > 0.0 then
      for j = c.j0 to c.j1 do
        let dy = c.oy.(j) in
        if dy > 0.0 then f i j (dx *. dy)
      done
  done
