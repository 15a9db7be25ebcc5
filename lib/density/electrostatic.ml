(* The electrostatic density model of ePlace: devices are positive
   charges (charge = area); the density map is treated as a charge
   distribution; the potential solves Poisson's equation via the
   spectral solver; the force on a device is the field integrated over
   its footprint. The density gradient used by the placer is

     dN/dx_i = -(1/bw) * sum_b ovl(i, b) * xi_x(b)

   where ovl is the device/bin overlap area (bw converts from bin-index
   space to micrometres).

   The placer evaluates it from centre and extent arrays
   ([density_grad]); [compute] and [grad] do the same from rectangles.
   Both read each device's bins from Bin_grid.overlaps. *)

type t = {
  grid : Bin_grid.t;
  spectral : Numerics.Spectral.t;
  density : Numerics.Matrix.t;  (* occupancy fraction per bin *)
  inv_ba : float;  (* 1 / bin area *)
  mutable xi : Numerics.Spectral.xi option;  (* the last solve's field *)
  cover : Bin_grid.cover;  (* the current device's bins *)
  one_x : float array;  (* [grad]'s result *)
  one_y : float array;
}

let create ~region ~nx ~ny =
  let grid = Bin_grid.create ~region ~nx ~ny in
  let ba = Bin_grid.bin_area grid in
  (* positive bin area is a Bin_grid.create invariant (N2) *)
  if ba <= 0.0 then invalid_arg "Electrostatic.create: bin area";
  {
    grid;
    spectral = Numerics.Spectral.create ~nx ~ny;
    density = Numerics.Matrix.create nx ny;
    inv_ba = 1.0 /. ba;
    xi = None;
    cover = Bin_grid.cover grid;
    one_x = [| 0.0 |];
    one_y = [| 0.0 |];
  }

(* Add the box's charge to the density map. *)
let deposit t ~x0 ~x1 ~y0 ~y1 =
  let c = t.cover in
  Bin_grid.overlaps t.grid c ~x0 ~x1 ~y0 ~y1;
  let rho = Numerics.Matrix.storage t.density and ny = t.grid.Bin_grid.ny in
  for i = c.i0 to c.i1 do
    let dx = c.ox.(i) in
    if dx > 0.0 then
      for j = c.j0 to c.j1 do
        let dy = c.oy.(j) in
        if dy > 0.0 then begin
          let k = (i * ny) + j in
          rho.(k) <- rho.(k) +. (dx *. dy *. t.inv_ba)
        end
      done
  done

(* Write the gradient of the energy w.r.t. the centre of the box,
   -integral of the field over it in physical units, to gx.(d), gy.(d). *)
let field_at t (xi : Numerics.Spectral.xi) ~x0 ~x1 ~y0 ~y1 ~gx ~gy d =
  let bw = t.grid.Bin_grid.bw and bh = t.grid.Bin_grid.bh in
  (* bw/bh > 0 is a Bin_grid.create invariant; restating it here makes
     the divisions below provably safe (N2) *)
  if bw <= 0.0 || bh <= 0.0 then invalid_arg "Electrostatic: bin size";
  let c = t.cover in
  Bin_grid.overlaps t.grid c ~x0 ~x1 ~y0 ~y1;
  let ex = Numerics.Matrix.storage xi.Numerics.Spectral.xi_x
  and ey = Numerics.Matrix.storage xi.Numerics.Spectral.xi_y
  and ny = t.grid.Bin_grid.ny in
  let fx = ref 0.0 and fy = ref 0.0 in
  for i = c.i0 to c.i1 do
    let dx = c.ox.(i) in
    if dx > 0.0 then
      for j = c.j0 to c.j1 do
        let dy = c.oy.(j) in
        if dy > 0.0 then begin
          let k = (i * ny) + j and a = dx *. dy in
          fx := !fx +. (a *. ex.(k));
          fy := !fy +. (a *. ey.(k))
        end
      done
  done;
  gx.(d) <- -. !fx /. bw;
  gy.(d) <- -. !fy /. bh

let solve t =
  let xi = Numerics.Spectral.solve_field t.spectral t.density in
  t.xi <- Some xi;
  xi

let clear t =
  Array.fill (Numerics.Matrix.storage t.density) 0
    (t.grid.Bin_grid.nx * t.grid.Bin_grid.ny) 0.0

let density_grad t ~xs ~ys ~widths ~heights ~gx ~gy =
  clear t;
  for d = 0 to Array.length xs - 1 do
    let hw = 0.5 *. widths.(d) and hh = 0.5 *. heights.(d) in
    deposit t ~x0:(xs.(d) -. hw) ~x1:(xs.(d) +. hw) ~y0:(ys.(d) -. hh)
      ~y1:(ys.(d) +. hh)
  done;
  let xi = solve t in
  for d = 0 to Array.length xs - 1 do
    let hw = 0.5 *. widths.(d) and hh = 0.5 *. heights.(d) in
    field_at t xi ~x0:(xs.(d) -. hw) ~x1:(xs.(d) +. hw) ~y0:(ys.(d) -. hh)
      ~y1:(ys.(d) +. hh) ~gx ~gy d
  done

let compute t (rects : Geometry.Rect.t array) =
  clear t;
  Array.iter
    (fun (r : Geometry.Rect.t) ->
      deposit t ~x0:r.x0 ~x1:r.x1 ~y0:r.y0 ~y1:r.y1)
    rects;
  ignore (solve t)

let xi t =
  match t.xi with
  | Some xi -> xi
  | None -> invalid_arg "Electrostatic: call compute first"

(* Potential energy N(v) = 1/2 sum_i q_i psi(cell_i). *)
let energy t (rects : Geometry.Rect.t array) =
  ignore (xi t);
  let psi = Numerics.Spectral.potential t.spectral in
  let acc = ref 0.0 in
  Array.iter
    (fun r ->
      Bin_grid.splat t.grid r ~f:(fun i j a ->
          acc := !acc +. (a *. Numerics.Matrix.get psi i j)))
    rects;
  0.5 *. !acc

let grad t (r : Geometry.Rect.t) =
  field_at t (xi t) ~x0:r.x0 ~x1:r.x1 ~y0:r.y0 ~y1:r.y1 ~gx:t.one_x
    ~gy:t.one_y 0;
  (t.one_x.(0), t.one_y.(0))

(* Density overflow: fraction of total movable area sitting above the
   target occupancy — ePlace's convergence criterion. *)
let overflow t ~target ~total_area =
  let ba = Bin_grid.bin_area t.grid in
  let rho = Numerics.Matrix.storage t.density in
  let acc = ref 0.0 in
  for k = 0 to Array.length rho - 1 do
    let occ = rho.(k) in
    if occ > target then acc := !acc +. ((occ -. target) *. ba)
  done;
  if total_area <= 0.0 then 0.0 else !acc /. total_area

let grid t = t.grid
