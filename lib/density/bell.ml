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

(* One axis of the current device's bell, tabulated by bin index: the
   kernel and its derivative at the centres of bins lo..hi. *)
type profile = {
  mutable lo : int;
  mutable hi : int;
  v : float array;
  dv : float array;
}

type t = {
  grid : Bin_grid.t;
  target : float;  (* target occupancy fraction per bin *)
  dmap : Numerics.Matrix.t;
  px : profile;
  py : profile;
  mutable norms : float array;  (* per-device normalisation, grown on demand *)
}

let create ~region ~nx ~ny ~target =
  let profile n =
    { lo = 0; hi = -1; v = Array.make n 0.0; dv = Array.make n 0.0 }
  in
  {
    grid = Bin_grid.create ~region ~nx ~ny;
    target;
    dmap = Numerics.Matrix.create nx ny;
    px = profile nx;
    py = profile ny;
    norms = [||];
  }

let bell ~w ~wb d =
  (* wb > 0 and w >= 0 make both bell denominators strictly positive (N2) *)
  if wb <= 0.0 || w < 0.0 then invalid_arg "Bell.bell: extent";
  let d = abs_float d in
  let r1 = (0.5 *. w) +. wb in
  let r2 = (0.5 *. w) +. (2.0 *. wb) in
  if d <= r1 then begin
    let a = 4.0 /. ((w +. (2.0 *. wb)) *. (w +. (4.0 *. wb))) in
    1.0 -. (a *. d *. d)
  end
  else if d <= r2 then begin
    let b = 2.0 /. (wb *. (w +. (4.0 *. wb))) in
    b *. (d -. r2) *. (d -. r2)
  end
  else 0.0

let bell_deriv ~w ~wb d =
  if wb <= 0.0 || w < 0.0 then invalid_arg "Bell.bell_deriv: extent";
  let s = if d < 0.0 then -1.0 else 1.0 in
  let ad = abs_float d in
  let r1 = (0.5 *. w) +. wb in
  let r2 = (0.5 *. w) +. (2.0 *. wb) in
  if ad <= r1 then begin
    let a = 4.0 /. ((w +. (2.0 *. wb)) *. (w +. (4.0 *. wb))) in
    -2.0 *. a *. ad *. s
  end
  else if ad <= r2 then begin
    let b = 2.0 /. (wb *. (w +. (4.0 *. wb))) in
    2.0 *. b *. (ad -. r2) *. s
  end
  else 0.0

(* Bins whose centre may receive weight from a device centred at c. *)
let bin_range1d ~c ~w ~wb ~x0 ~n =
  if wb <= 0.0 then invalid_arg "Bell.bin_range1d: bin size";
  let r = (0.5 *. w) +. (2.0 *. wb) in
  let lo = int_of_float (Float.floor ((c -. r -. x0) /. wb -. 0.5)) in
  let hi = int_of_float (Float.ceil ((c +. r -. x0) /. wb -. 0.5)) in
  (max 0 lo, min (n - 1) hi)

(* Tabulate one axis of a device's bell (centre c, extent w) over the
   bins it reaches; bin i's centre is x0 + (i + 1/2) wb, as in
   Bin_grid.bin_center_x/y. *)
let tabulate pr ~c ~w ~wb ~x0 ~n =
  let lo, hi = bin_range1d ~c ~w ~wb ~x0 ~n in
  pr.lo <- lo;
  pr.hi <- hi;
  for i = lo to hi do
    let d = c -. (x0 +. ((float_of_int i +. 0.5) *. wb)) in
    pr.v.(i) <- bell ~w ~wb d;
    pr.dv.(i) <- bell_deriv ~w ~wb d
  done

(* Evaluate the quadratic density penalty and accumulate its gradient.
   widths/heights are device extents; xs/ys device centres. Each
   device's bell is tabulated once per axis and pass, so the bin loops
   only multiply table entries. *)
let value_grad t ~widths ~heights ~xs ~ys ~gx ~gy =
  let g = t.grid in
  let nx = g.Bin_grid.nx and ny = g.Bin_grid.ny in
  let wb = g.Bin_grid.bw and hb = g.Bin_grid.bh in
  let ba = Bin_grid.bin_area g in
  let n = Array.length xs in
  let px = t.px and py = t.py in
  let tabulate_device d =
    tabulate px ~c:xs.(d) ~w:widths.(d) ~wb ~x0:g.Bin_grid.x0 ~n:nx;
    tabulate py ~c:ys.(d) ~w:heights.(d) ~wb:hb ~x0:g.Bin_grid.y0 ~n:ny
  in
  (* per-device normalisation and density accumulation *)
  if Array.length t.norms < n then t.norms <- Array.make n 0.0;
  let norms = t.norms in
  for i = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      Numerics.Matrix.set t.dmap i j 0.0
    done
  done;
  for d = 0 to n - 1 do
    tabulate_device d;
    let s = ref 0.0 in
    for i = px.lo to px.hi do
      let pxi = px.v.(i) in
      if pxi > 0.0 then
        for j = py.lo to py.hi do
          s := !s +. (pxi *. py.v.(j))
        done
    done;
    norms.(d) <-
      (if !s > 1e-12 then widths.(d) *. heights.(d) /. !s else 0.0);
    if norms.(d) > 0.0 then
      for i = px.lo to px.hi do
        let pxi = px.v.(i) in
        if pxi > 0.0 then
          for j = py.lo to py.hi do
            let pyj = py.v.(j) in
            if pyj > 0.0 then
              Numerics.Matrix.set t.dmap i j
                (Numerics.Matrix.get t.dmap i j +. (norms.(d) *. pxi *. pyj))
          done
      done
  done;
  (* penalty value: sum_b max(0, D_b - target_b)^2 (one-sided: bins
     below target are not penalised, they are simply empty space) *)
  let tgt = t.target *. ba in
  let value = ref 0.0 in
  for i = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      let e = Numerics.Matrix.get t.dmap i j -. tgt in
      if e > 0.0 then value := !value +. (e *. e)
    done
  done;
  (* gradient, including the derivative of the per-device
     normalisation c_d = area_d / S_d with S_d = sum_b px py:

       dP/dx_d = c_d * sum_b 2 e_b px' py
                 - (c_d / S_d) * (sum_b px' py) * (sum_b 2 e_b px py)  *)
  for d = 0 to n - 1 do
    if norms.(d) > 0.0 then begin
      tabulate_device d;
      let a1 = ref 0.0 (* sum 2e px' py *) in
      let a2 = ref 0.0 (* sum 2e px py' *) in
      let b = ref 0.0 (* sum 2e px py *) in
      let s = ref 0.0 (* sum px py *) in
      let sx' = ref 0.0 and sy' = ref 0.0 in
      for i = px.lo to px.hi do
        let pxi = px.v.(i) and pxi' = px.dv.(i) in
        for j = py.lo to py.hi do
          let pyj = py.v.(j) and pyj' = py.dv.(j) in
          s := !s +. (pxi *. pyj);
          sx' := !sx' +. (pxi' *. pyj);
          sy' := !sy' +. (pxi *. pyj');
          let e = Numerics.Matrix.get t.dmap i j -. tgt in
          if e > 0.0 then begin
            a1 := !a1 +. (2.0 *. e *. pxi' *. pyj);
            a2 := !a2 +. (2.0 *. e *. pxi *. pyj');
            b := !b +. (2.0 *. e *. pxi *. pyj)
          end
        done
      done;
      let c = norms.(d) in
      if !s > 1e-12 then begin
        gx.(d) <- gx.(d) +. ((c *. !a1) -. (c /. !s *. !sx' *. !b));
        gy.(d) <- gy.(d) +. ((c *. !a2) -. (c /. !s *. !sy' *. !b))
      end
    end
  done;
  !value

let grid t = t.grid
