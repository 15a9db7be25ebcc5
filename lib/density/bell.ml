(* NTUplace3's bell-shaped density smoothing, used by the prior
   analytical work's global placement. Each device spreads its area
   into nearby bins through a C1 bell function of the centre distance;
   the penalty is sum_b (D_b - target_b)^2.

   Along one axis, for device extent w and bin size wb, with
   d = |centre - bin centre|:

     p(d) = 1 - a d^2                      for d <= w/2 + wb
          = b (d - w/2 - 2 wb)^2           for w/2 + wb < d <= w/2 + 2 wb
          = 0                              otherwise
     a = 4 / ((w + 2 wb)(w + 4 wb)),  b = 2 / (wb (w + 4 wb))

   Each device's contributions are normalised to its exact area. *)

(* Per-device tables of one pass: each device's bell along x and y,
   tabulated once by bin index, with the range of bins it reaches.
   Device d's x profile sits at d * nx + i, its y profile at
   d * ny + j; entries outside lo..hi are stale. *)
type tables = {
  xlo : int array;
  xhi : int array;
  ylo : int array;
  yhi : int array;
  vx : float array;  (* kernel *)
  dvx : float array;  (* and its derivative *)
  vy : float array;
  dvy : float array;
  norms : float array;  (* c_d = area_d / S_d, 0 when S_d is negligible *)
  sums : float array;  (* S_d = sum_b px py *)
}

type t = {
  grid : Bin_grid.t;
  target : float;  (* target occupancy fraction per bin *)
  dmap : float array;  (* nx * ny row-major density *)
  shape : float array;  (* one axis's r1, r2, a, b (see [set_shape]) *)
  mutable tab : tables;  (* grown on demand to the device count *)
}

let tables ~nx ~ny n =
  let ints () = Array.make n 0 and floats k = Array.make (n * k) 0.0 in
  {
    xlo = ints (); xhi = ints (); ylo = ints (); yhi = ints ();
    vx = floats nx; dvx = floats nx; vy = floats ny; dvy = floats ny;
    norms = floats 1; sums = floats 1;
  }

let create ~region ~nx ~ny ~target =
  {
    grid = Bin_grid.create ~region ~nx ~ny;
    target;
    dmap = Array.make (nx * ny) 0.0;
    shape = Array.make 4 0.0;
    tab = tables ~nx ~ny 0;
  }

(* The constants of one axis of a bell, for extent w on bins of size
   wb, into k: the radii r1, r2 of its two pieces and their
   coefficients a, b. *)
let set_shape k ~w ~wb =
  (* wb > 0 and w >= 0 make both bell denominators strictly positive (N2) *)
  if wb <= 0.0 || w < 0.0 then invalid_arg "Bell: extent";
  k.(0) <- (0.5 *. w) +. wb;
  k.(1) <- (0.5 *. w) +. (2.0 *. wb);
  k.(2) <- 4.0 /. ((w +. (2.0 *. wb)) *. (w +. (4.0 *. wb)));
  k.(3) <- 2.0 /. (wb *. (w +. (4.0 *. wb)))

(* The bell and its derivative at centre distance d, from its
   constants: the one formula behind [bell], [bell_deriv] and the
   kernel's tables. *)
let[@inline] bell_at ~r1 ~r2 ~a ~b d =
  let d = abs_float d in
  if d <= r1 then 1.0 -. (a *. d *. d)
  else if d <= r2 then b *. (d -. r2) *. (d -. r2)
  else 0.0

let[@inline] deriv_at ~r1 ~r2 ~a ~b d =
  let s = if d < 0.0 then -1.0 else 1.0 in
  let ad = abs_float d in
  if ad <= r1 then -2.0 *. a *. ad *. s
  else if ad <= r2 then 2.0 *. b *. (ad -. r2) *. s
  else 0.0

let bell ~w ~wb d =
  let k = Array.make 4 0.0 in
  set_shape k ~w ~wb;
  bell_at ~r1:k.(0) ~r2:k.(1) ~a:k.(2) ~b:k.(3) d

let bell_deriv ~w ~wb d =
  let k = Array.make 4 0.0 in
  set_shape k ~w ~wb;
  deriv_at ~r1:k.(0) ~r2:k.(1) ~a:k.(2) ~b:k.(3) d

(* Bins whose centre may receive weight from a device centred at c. *)
let bin_range1d ~c ~w ~wb ~x0 ~n =
  if wb <= 0.0 then invalid_arg "Bell.bin_range1d: bin size";
  let r = (0.5 *. w) +. (2.0 *. wb) in
  let lo = int_of_float (Float.floor ((c -. r -. x0) /. wb -. 0.5)) in
  let hi = int_of_float (Float.ceil ((c +. r -. x0) /. wb -. 0.5)) in
  (max 0 lo, min (n - 1) hi)

(* Tabulate one axis of device d's bell (centre c, extent w) over the
   bins it reaches, into v/dv at d * n + i and lo/hi at d; bin i's
   centre is x0 + (i + 1/2) wb, as in Bin_grid.bin_center_x/y. *)
let tabulate k ~lo ~hi ~v ~dv d ~c ~w ~wb ~x0 ~n =
  let l, h = bin_range1d ~c ~w ~wb ~x0 ~n in
  lo.(d) <- l;
  hi.(d) <- h;
  set_shape k ~w ~wb;
  let r1 = k.(0) and r2 = k.(1) and a = k.(2) and b = k.(3) in
  let base = d * n in
  for i = l to h do
    let x = c -. (x0 +. ((float_of_int i +. 0.5) *. wb)) in
    v.(base + i) <- bell_at ~r1 ~r2 ~a ~b x;
    dv.(base + i) <- deriv_at ~r1 ~r2 ~a ~b x
  done

(* Evaluate the quadratic density penalty and accumulate its gradient.
   widths/heights are device extents; xs/ys device centres. The
   density pass tabulates each device's bell once per axis; the
   gradient pass reads the same tables. *)
let value_grad t ~widths ~heights ~xs ~ys ~gx ~gy =
  let g = t.grid in
  let nx = g.Bin_grid.nx and ny = g.Bin_grid.ny in
  let wb = g.Bin_grid.bw and hb = g.Bin_grid.bh in
  let ba = Bin_grid.bin_area g in
  let n = Array.length xs in
  if Array.length t.tab.norms < n then t.tab <- tables ~nx ~ny n;
  let tb = t.tab and dmap = t.dmap and k = t.shape in
  let vx = tb.vx and dvx = tb.dvx and vy = tb.vy and dvy = tb.dvy in
  let norms = tb.norms and sums = tb.sums in
  (* per-device tables, normalisation and density accumulation *)
  Array.fill dmap 0 (nx * ny) 0.0;
  for d = 0 to n - 1 do
    tabulate k ~lo:tb.xlo ~hi:tb.xhi ~v:vx ~dv:dvx d ~c:xs.(d) ~w:widths.(d)
      ~wb ~x0:g.Bin_grid.x0 ~n:nx;
    tabulate k ~lo:tb.ylo ~hi:tb.yhi ~v:vy ~dv:dvy d ~c:ys.(d) ~w:heights.(d)
      ~wb:hb ~x0:g.Bin_grid.y0 ~n:ny;
    let xb = d * nx and yb = d * ny in
    let ylo = tb.ylo.(d) and yhi = tb.yhi.(d) in
    let s = ref 0.0 in
    for i = tb.xlo.(d) to tb.xhi.(d) do
      let pxi = vx.(xb + i) in
      if pxi > 0.0 then
        for j = ylo to yhi do
          s := !s +. (pxi *. vy.(yb + j))
        done
    done;
    sums.(d) <- !s;
    norms.(d) <-
      (if !s > 1e-12 then widths.(d) *. heights.(d) /. !s else 0.0);
    let c = norms.(d) in
    if c > 0.0 then
      for i = tb.xlo.(d) to tb.xhi.(d) do
        let pxi = vx.(xb + i) in
        if pxi > 0.0 then begin
          let cpx = c *. pxi and row = i * ny in
          for j = ylo to yhi do
            let pyj = vy.(yb + j) in
            if pyj > 0.0 then
              dmap.(row + j) <- dmap.(row + j) +. (cpx *. pyj)
          done
        end
      done
  done;
  (* penalty value: sum_b max(0, D_b - target_b)^2 (one-sided: bins
     below target are not penalised, they are simply empty space) *)
  let tgt = t.target *. ba in
  let value = ref 0.0 in
  for b = 0 to (nx * ny) - 1 do
    let e = dmap.(b) -. tgt in
    if e > 0.0 then value := !value +. (e *. e)
  done;
  (* gradient, including the derivative of the per-device
     normalisation c_d = area_d / S_d with S_d = sum_b px py:

       dP/dx_d = c_d * sum_b 2 e_b px' py
                 - (c_d / S_d) * (sum_b px' py) * (sum_b 2 e_b px py)

     S_d is the density pass's sum: the bins it skips (px = 0) add
     exact zeros. *)
  for d = 0 to n - 1 do
    let c = norms.(d) and s = sums.(d) in
    if c > 0.0 && s > 1e-12 then begin
      let xb = d * nx and yb = d * ny in
      let ylo = tb.ylo.(d) and yhi = tb.yhi.(d) in
      let a1 = ref 0.0 (* sum 2e px' py *) in
      let a2 = ref 0.0 (* sum 2e px py' *) in
      let b = ref 0.0 (* sum 2e px py *) in
      let sx' = ref 0.0 and sy' = ref 0.0 in
      for i = tb.xlo.(d) to tb.xhi.(d) do
        let pxi = vx.(xb + i) and pxi' = dvx.(xb + i) and row = i * ny in
        for j = ylo to yhi do
          let pyj = vy.(yb + j) and pyj' = dvy.(yb + j) in
          sx' := !sx' +. (pxi' *. pyj);
          sy' := !sy' +. (pxi *. pyj');
          let e = dmap.(row + j) -. tgt in
          if e > 0.0 then begin
            let e2 = 2.0 *. e in
            a1 := !a1 +. (e2 *. pxi' *. pyj);
            a2 := !a2 +. (e2 *. pxi *. pyj');
            b := !b +. (e2 *. pxi *. pyj)
          end
        done
      done;
      gx.(d) <- gx.(d) +. ((c *. !a1) -. (c /. s *. !sx' *. !b));
      gy.(d) <- gy.(d) +. ((c *. !a2) -. (c /. s *. !sy' *. !b))
    end
  done;
  !value

let grid t = t.grid
