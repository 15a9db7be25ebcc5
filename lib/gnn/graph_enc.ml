(* Circuit-graph encoding for the GNN performance model [19]: nodes are
   devices; edges come from clique-expanding each net with weight
   1/(degree-1); the adjacency is normalised as A_hat = D^-1 (A + I).

   Node features (the "customized" part of the customized GNN):
   - device-kind one-hot, normalised width/height (static),
   - critical-net incidence weight (static),
   - centred normalised position (translation invariant),
   - local span: adjacency-weighted mean L1 distance to neighbours
     along each axis (a differentiable wirelength surrogate),
   - matched-pair separation for devices in a symmetric pair.

   All position-derived features are piecewise differentiable;
   [backprop_positions] applies the exact (a.e.) Jacobian. *)

module M = Numerics.Matrix

type t = {
  circuit : Netlist.Circuit.t;
  ahat : M.t;  (* n x n *)
  static : M.t;  (* n x n_static *)
  partner : int array;  (* symmetric-pair partner or -1 *)
  s_ref : float;  (* position normalisation scale *)
}

let n_static = Netlist.Device.n_kinds + 3 (* w, h, critical incidence *)
let n_features = n_static + 5 (* + x, y, span_x, span_y, pair_dist *)

(* dynamic column indices *)
let col_x = n_static
let col_y = n_static + 1
let col_sx = n_static + 2
let col_sy = n_static + 3
let col_pd = n_static + 4

let of_circuit (c : Netlist.Circuit.t) =
  let n = Netlist.Circuit.n_devices c in
  let a = M.create n n in
  Array.iter
    (fun (e : Netlist.Net.t) ->
      let devs = Array.of_list (Netlist.Net.devices e) in
      let k = Array.length devs in
      if k >= 2 then begin
        let w = e.Netlist.Net.weight /. float_of_int (k - 1) in
        for i = 0 to k - 1 do
          for j = 0 to k - 1 do
            if i <> j then
              M.set a devs.(i) devs.(j) (M.get a devs.(i) devs.(j) +. w)
          done
        done
      end)
    c.Netlist.Circuit.nets;
  for i = 0 to n - 1 do
    M.set a i i (M.get a i i +. 1.0)
  done;
  let ahat = M.create n n in
  for i = 0 to n - 1 do
    let deg = ref 0.0 in
    for j = 0 to n - 1 do
      deg := !deg +. M.get a i j
    done;
    let inv = if !deg > 0.0 then 1.0 /. !deg else 0.0 in
    for j = 0 to n - 1 do
      M.set ahat i j (M.get a i j *. inv)
    done
  done;
  (* the 1e-12 floor only engages for a degenerate all-zero-area
     circuit; any real netlist leaves the value untouched (N2) *)
  (* placer-lint: allow N2 total device area is a sum of nonnegative w*h terms *)
  let s_ref = Float.max 1e-12 (sqrt (Netlist.Circuit.total_device_area c)) in
  let static = M.create n n_static in
  let crit = Array.make n 0.0 in
  Array.iter
    (fun (e : Netlist.Net.t) ->
      if e.Netlist.Net.critical then
        List.iter
          (fun d -> crit.(d) <- crit.(d) +. e.Netlist.Net.weight)
          (Netlist.Net.devices e))
    c.Netlist.Circuit.nets;
  for i = 0 to n - 1 do
    let d = Netlist.Circuit.device c i in
    M.set static i (Netlist.Device.kind_index d.Netlist.Device.kind) 1.0;
    M.set static i Netlist.Device.n_kinds (d.Netlist.Device.w /. s_ref);
    M.set static i (Netlist.Device.n_kinds + 1) (d.Netlist.Device.h /. s_ref);
    M.set static i (Netlist.Device.n_kinds + 2) crit.(i)
  done;
  let partner = Array.make n (-1) in
  List.iter
    (fun (a, b) ->
      partner.(a) <- b;
      partner.(b) <- a)
    (Netlist.Constraint_set.matched_pairs c.Netlist.Circuit.constraints);
  { circuit = c; ahat; static; partner; s_ref }

let sign v = if v > 0.0 then 1.0 else if v < 0.0 then -1.0 else 0.0

(* Feature matrix for given centre coordinates. Returns the matrix and
   the centred coordinates kept for the backward pass. *)
let features t ~xs ~ys =
  let n = Array.length xs in
  let mx = Numerics.Vec.mean xs and my = Numerics.Vec.mean ys in
  (* placer-lint: allow N2 t.s_ref is clamped >= 1e-12 in create *)
  let xc = Array.init n (fun i -> (xs.(i) -. mx) /. t.s_ref) in
  (* placer-lint: allow N2 t.s_ref is clamped >= 1e-12 in create *)
  let yc = Array.init n (fun i -> (ys.(i) -. my) /. t.s_ref) in
  let x = M.create n n_features in
  for i = 0 to n - 1 do
    for j = 0 to n_static - 1 do
      M.set x i j (M.get t.static i j)
    done;
    M.set x i col_x xc.(i);
    M.set x i col_y yc.(i);
    let sx = ref 0.0 and sy = ref 0.0 in
    for j = 0 to n - 1 do
      let w = M.get t.ahat i j in
      if w > 0.0 && j <> i then begin
        sx := !sx +. (w *. abs_float (xc.(i) -. xc.(j)));
        sy := !sy +. (w *. abs_float (yc.(i) -. yc.(j)))
      end
    done;
    M.set x i col_sx !sx;
    M.set x i col_sy !sy;
    if t.partner.(i) >= 0 then begin
      let p = t.partner.(i) in
      M.set x i col_pd
        (abs_float (xc.(i) -. xc.(p)) +. abs_float (yc.(i) -. yc.(p)))
    end
  done;
  (x, (xc, yc))

(* Chain rule from dLoss/dX back to raw coordinates, accumulating
   [scale *] the gradient into gx, gy.

   Per centred coordinate u = xc:
     d x_col:   dX(i, col_x) -> du_i
     d span:    dX(i, col_sx) * w_ij * sign(u_i - u_j) -> du_i, -du_j
     d pairdist:dX(i, col_pd) * sign(u_i - u_p) -> du_i, -du_p
   then raw x_k = sum_i du_i (delta_ik - 1/n) / s_ref. *)
let backprop_positions t ~dx ~ctx ~gx ~gy ~scale =
  let xc, yc = ctx in
  let n = Array.length xc in
  let du = Array.make n 0.0 and dv = Array.make n 0.0 in
  for i = 0 to n - 1 do
    du.(i) <- du.(i) +. M.get dx i col_x;
    dv.(i) <- dv.(i) +. M.get dx i col_y;
    let gsx = M.get dx i col_sx and gsy = M.get dx i col_sy in
    if (not (Float.equal gsx 0.0)) || not (Float.equal gsy 0.0) then
      for j = 0 to n - 1 do
        if j <> i then begin
          let w = M.get t.ahat i j in
          if w > 0.0 then begin
            let sx = w *. sign (xc.(i) -. xc.(j)) in
            let sy = w *. sign (yc.(i) -. yc.(j)) in
            du.(i) <- du.(i) +. (gsx *. sx);
            du.(j) <- du.(j) -. (gsx *. sx);
            dv.(i) <- dv.(i) +. (gsy *. sy);
            dv.(j) <- dv.(j) -. (gsy *. sy)
          end
        end
      done;
    if t.partner.(i) >= 0 then begin
      let p = t.partner.(i) in
      let gpd = M.get dx i col_pd in
      if not (Float.equal gpd 0.0) then begin
        let sx = sign (xc.(i) -. xc.(p)) and sy = sign (yc.(i) -. yc.(p)) in
        du.(i) <- du.(i) +. (gpd *. sx);
        du.(p) <- du.(p) -. (gpd *. sx);
        dv.(i) <- dv.(i) +. (gpd *. sy);
        dv.(p) <- dv.(p) -. (gpd *. sy)
      end
    end
  done;
  (* centring: subtract the mean gradient *)
  let mu = Numerics.Vec.mean du and mv = Numerics.Vec.mean dv in
  for i = 0 to n - 1 do
    (* placer-lint: allow N2 t.s_ref is clamped >= 1e-12 in create *)
    gx.(i) <- gx.(i) +. (scale *. (du.(i) -. mu) /. t.s_ref);
    (* placer-lint: allow N2 t.s_ref is clamped >= 1e-12 in create *)
    gy.(i) <- gy.(i) +. (scale *. (dv.(i) -. mv) /. t.s_ref)
  done
