(* Spectral Poisson solver on a regular grid with Neumann boundary
   conditions, the core of ePlace's electrostatic density model.

   Basis: cos(w_u (i + 1/2)) with w_u = pi * u / M along each axis.
   For density rho = sum a_uv cos cos, the potential solving
   lap(psi) = -rho is psi = sum a_uv / (w_u^2 + w_v^2) cos cos, and the
   field xi = -grad(psi) has a sin expansion along the derivative axis.

   A plan holds one cached FFT plan per axis (Fft.plan) and every
   buffer of a solve, so a solve allocates nothing:
   - analysis: a DCT-II along each row, then along each column;
   - spectral scaling by 1 / (w_u^2 + w_v^2);
   - synthesis: DCT-III along both axes for psi, with a DST-III along
     the derivative axis for xi_x and xi_y.
   The field needs psi's synthesis along y only, so [solve_field] stops
   there and [potential] finishes psi along x on request. Every line
   transform is independent of the others, so leaving one out changes
   no other result. *)

type field = { psi : Matrix.t; ex : Matrix.t; ey : Matrix.t }
type xi = { xi_x : Matrix.t; xi_y : Matrix.t }

type t = {
  nx : int;
  ny : int;
  plan_x : Fft.plan;  (* columns: lines of length nx, stride ny *)
  plan_y : Fft.plan;  (* rows: lines of length ny, stride 1 *)
  wx : float array;  (* w_u = pi u / nx *)
  wy : float array;
  cx : float array;  (* cosine-analysis weights: 1/nx for u = 0, else 2/nx *)
  cy : float array;
  coef : float array;  (* nx * ny row-major coefficients *)
  field : field;  (* the result, overwritten by every solve *)
  xi : xi;  (* field's ex and ey *)
  mutable psi_done : bool;  (* psi synthesised along x for the last solve *)
}

let create ~nx ~ny =
  if not (Fft.is_pow2 nx && Fft.is_pow2 ny) then
    invalid_arg "Spectral.create: sizes must be powers of two";
  (* frequencies w_u and analysis weights c_u of one axis *)
  let axis n =
    (* redundant with the guard above, but keeps the divisor provably
       positive inside this helper (N2) *)
    if n <= 0 then invalid_arg "Spectral.create: size";
    let fn = float_of_int n in
    ( Array.init n (fun u -> Float.pi *. float_of_int u /. fn),
      Array.init n (fun u -> if u = 0 then 1.0 /. fn else 2.0 /. fn) )
  in
  let wx, cx = axis nx and wy, cy = axis ny in
  let psi = Matrix.create nx ny
  and ex = Matrix.create nx ny
  and ey = Matrix.create nx ny in
  {
    nx;
    ny;
    plan_x = Fft.plan nx;
    plan_y = Fft.plan ny;
    wx;
    wy;
    cx;
    cy;
    coef = Array.make (nx * ny) 0.0;
    field = { psi; ex; ey };
    xi = { xi_x = ex; xi_y = ey };
    psi_done = false;
  }

(* Forward cosine analysis into [t.coef], with orthogonality scaling,
   so that rho(i,j) = sum_uv a(u,v) cos(w_u (i+1/2)) cos(w_v (j+1/2)). *)
let analyze_into t rho =
  if Matrix.rows rho <> t.nx || Matrix.cols rho <> t.ny then
    invalid_arg "Spectral.analyze: grid size";
  let ny = t.ny and a = t.coef in
  let src = Matrix.storage rho in
  for i = 0 to t.nx - 1 do
    Fft.dct_ii t.plan_y src a ~off:(i * ny) ~stride:1
  done;
  for j = 0 to ny - 1 do
    Fft.dct_ii t.plan_x a a ~off:j ~stride:ny
  done;
  for u = 0 to t.nx - 1 do
    for v = 0 to ny - 1 do
      let k = (u * ny) + v in
      a.(k) <- a.(k) *. t.cx.(u) *. t.cy.(v)
    done
  done
[@@placer_lint.hot]

let analyze t rho =
  analyze_into t rho;
  Matrix.init t.nx t.ny (fun u v -> t.coef.((u * t.ny) + v))

(* The field of [rho]; psi is left synthesised along y only. *)
let solve_field t rho =
  analyze_into t rho;
  t.psi_done <- false;
  let nx = t.nx and ny = t.ny and a = t.coef in
  let psi = Matrix.storage t.field.psi
  and ex = Matrix.storage t.field.ex
  and ey = Matrix.storage t.field.ey in
  (* spectral scaling: psi's coefficients a / w2, and xi_y's
     a wy / w2 ahead of its sin synthesis along y *)
  for u = 0 to nx - 1 do
    for v = 0 to ny - 1 do
      let k = (u * ny) + v in
      let w2 = (t.wx.(u) *. t.wx.(u)) +. (t.wy.(v) *. t.wy.(v)) in
      (* w2 = 0 exactly for the (0,0) DC mode, which the Neumann
         solver drops; guarding on w2 itself (rather than u/v) makes
         the divisor provably positive (N2) *)
      let b = if w2 > 0.0 then a.(k) /. w2 else 0.0 in
      psi.(k) <- b;
      ey.(k) <- b *. t.wy.(v)
    done
  done;
  (* synthesis along y: cos for psi, sin for xi_y *)
  for u = 0 to nx - 1 do
    Fft.dct_iii t.plan_y psi psi ~off:(u * ny) ~stride:1;
    Fft.dst_iii t.plan_y ey ey ~off:(u * ny) ~stride:1
  done;
  (* xi_x shares psi's cos synthesis along y, weighted by wx *)
  for u = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      let k = (u * ny) + j in
      ex.(k) <- psi.(k) *. t.wx.(u)
    done
  done;
  (* synthesis along x: sin for xi_x, cos for xi_y *)
  for j = 0 to ny - 1 do
    Fft.dst_iii t.plan_x ex ex ~off:j ~stride:ny;
    Fft.dct_iii t.plan_x ey ey ~off:j ~stride:ny
  done;
  t.xi
[@@placer_lint.hot]

let potential t =
  if not t.psi_done then begin
    let psi = Matrix.storage t.field.psi in
    for j = 0 to t.ny - 1 do
      Fft.dct_iii t.plan_x psi psi ~off:j ~stride:t.ny
    done;
    t.psi_done <- true
  end;
  t.field.psi
[@@placer_lint.hot]

let solve_poisson t rho =
  ignore (solve_field t rho);
  ignore (potential t);
  t.field
[@@placer_lint.hot]
