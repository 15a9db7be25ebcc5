(* ePlace-A global placement (paper Sec. IV-A): Nesterov descent on

     W(v) + lambda N(v) + tau Sym(v) + eta Area(v)   (Eq. 3)

   with WA-smoothed wirelength, electrostatic density, soft geometric
   penalties and the smoothed area term. lambda is initialised from the
   force-balance ratio and grown geometrically; the WA gamma is
   annealed with the density overflow; iteration stops once the
   overflow drops below the threshold.

   The performance-driven variant (ePlace-AP, Eq. 5) plugs an extra
   gradient source in through [perf_grad]. *)

type perf_term = {
  phi_grad :
    xs:float array -> ys:float array -> gx:float array -> gy:float array ->
    float;
      (* evaluates alpha * Phi and accumulates alpha * dPhi/dv *)
}

type result = {
  layout : Netlist.Layout.t;
  iterations : int;
  final_overflow : float;
}

type term_state = {
  nv : Wirelength.Netview.t;
  es : Density.Electrostatic.t;
  cp : Place_common.Constraint_penalty.t;
  at : Place_common.Area_term.t;
  wpe : Place_common.Wpe_term.t;
  widths : float array;
  heights : float array;
  total_area : float;
  region : Geometry.Rect.t;
}

let make_terms (p : Gp_params.t) c =
  let total_area = Netlist.Circuit.total_device_area c in
  let side = sqrt (total_area /. p.Gp_params.utilization) in
  let region = Geometry.Rect.make ~x0:0.0 ~y0:0.0 ~x1:side ~y1:side in
  let n = Netlist.Circuit.n_devices c in
  {
    nv = Wirelength.Netview.of_circuit c;
    es = Density.Electrostatic.create ~region ~nx:p.Gp_params.bins
        ~ny:p.Gp_params.bins;
    cp = Place_common.Constraint_penalty.create c;
    at = Place_common.Area_term.create c;
    wpe = Place_common.Wpe_term.create c;
    widths =
      Array.init n (fun i -> (Netlist.Circuit.device c i).Netlist.Device.w);
    heights =
      Array.init n (fun i -> (Netlist.Circuit.device c i).Netlist.Device.h);
    total_area;
    region;
  }

let clamp_into ts ~xs ~ys =
  let r = ts.region in
  for i = 0 to Array.length xs - 1 do
    let hw = 0.5 *. ts.widths.(i) and hh = 0.5 *. ts.heights.(i) in
    if xs.(i) < r.Geometry.Rect.x0 +. hw then xs.(i) <- r.Geometry.Rect.x0 +. hw;
    if xs.(i) > r.Geometry.Rect.x1 -. hw then xs.(i) <- r.Geometry.Rect.x1 -. hw;
    if ys.(i) < r.Geometry.Rect.y0 +. hh then ys.(i) <- r.Geometry.Rect.y0 +. hh;
    if ys.(i) > r.Geometry.Rect.y1 -. hh then ys.(i) <- r.Geometry.Rect.y1 -. hh
  done

let iters_counter = Telemetry.Counter.make "gp.iterations"
let fevals_counter = Telemetry.Counter.make "gp.f_evals"
let overflow_gauge = Telemetry.Gauge.make "gp.overflow"

let run ?(params = Gp_params.default) ?perf (c : Netlist.Circuit.t) =
  let go () =
  let p = params in
  let n = Netlist.Circuit.n_devices c in
  let ts = make_terms p c in
  let rng = Numerics.Rng.create p.Gp_params.seed in
  (* initial placement: clustered at the region centre with jitter *)
  let cx = 0.5 *. Geometry.Rect.width ts.region in
  let spread = 0.08 *. Geometry.Rect.width ts.region in
  let v0 = Array.make (2 * n) 0.0 in
  for i = 0 to n - 1 do
    v0.(i) <- cx +. (spread *. Numerics.Rng.gaussian rng);
    v0.(n + i) <- cx +. (spread *. Numerics.Rng.gaussian rng)
  done;
  let bin = Geometry.Rect.width ts.region /. float_of_int p.Gp_params.bins in
  let lambda = ref 0.0 in
  let gamma = ref (10.0 *. bin *. p.Gp_params.gamma_factor) in
  let overflow = ref 1.0 in
  let tau_eff =
    match p.Gp_params.sym_mode with
    | Gp_params.Soft -> p.Gp_params.tau
    | Gp_params.Hard -> p.Gp_params.tau *. 200.0
  in
  (* scratch buffers reused across evaluations *)
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let gxw = Array.make n 0.0 and gyw = Array.make n 0.0 in
  let gxd = Array.make n 0.0 and gyd = Array.make n 0.0 in
  (* copy v's halves into xs/ys, clamped into the region *)
  let load v =
    Array.blit v 0 xs 0 n;
    Array.blit v n ys 0 n;
    clamp_into ts ~xs ~ys
  in
  (* gradient of everything except density, into (gx, gy) *)
  let base_grad ~xs ~ys ~gx ~gy =
    Array.fill gx 0 n 0.0;
    Array.fill gy 0 n 0.0;
    (match p.Gp_params.smoothing with
    | Gp_params.Wa ->
        ignore (Wirelength.Wa.value_grad ts.nv ~gamma:!gamma ~xs ~ys ~gx ~gy)
    | Gp_params.Lse ->
        ignore (Wirelength.Lse.value_grad ts.nv ~gamma:!gamma ~xs ~ys ~gx ~gy));
    if tau_eff > 0.0 then begin
      Array.fill gxw 0 n 0.0;
      Array.fill gyw 0 n 0.0;
      ignore
        (Place_common.Constraint_penalty.value_grad ts.cp ~xs ~ys ~gx:gxw
           ~gy:gyw);
      for i = 0 to n - 1 do
        gx.(i) <- gx.(i) +. (tau_eff *. gxw.(i));
        gy.(i) <- gy.(i) +. (tau_eff *. gyw.(i))
      done
    end;
    if p.Gp_params.eta > 0.0 then begin
      Array.fill gxw 0 n 0.0;
      Array.fill gyw 0 n 0.0;
      ignore
        (Place_common.Area_term.value_grad ts.at ~gamma:!gamma ~xs ~ys ~gx:gxw
           ~gy:gyw);
      for i = 0 to n - 1 do
        gx.(i) <- gx.(i) +. (p.Gp_params.eta *. gxw.(i));
        gy.(i) <- gy.(i) +. (p.Gp_params.eta *. gyw.(i))
      done
    end;
    if p.Gp_params.rho_wpe > 0.0 then begin
      Array.fill gxw 0 n 0.0;
      Array.fill gyw 0 n 0.0;
      ignore (Place_common.Wpe_term.value_grad ts.wpe ~xs ~ys ~gx:gxw ~gy:gyw);
      for i = 0 to n - 1 do
        gx.(i) <- gx.(i) +. (p.Gp_params.rho_wpe *. gxw.(i));
        gy.(i) <- gy.(i) +. (p.Gp_params.rho_wpe *. gyw.(i))
      done
    end;
    match perf with
    | None -> ()
    | Some pt ->
        ignore (pt.phi_grad ~xs ~ys ~gx ~gy)
  in
  let density_grad ~xs ~ys ~gx ~gy =
    Density.Electrostatic.density_grad ts.es ~xs ~ys ~widths:ts.widths
      ~heights:ts.heights ~gx ~gy;
    overflow :=
      Density.Electrostatic.overflow ts.es ~target:p.Gp_params.target_density
        ~total_area:ts.total_area
  in
  (* lambda0 from force balance at the initial point *)
  let () =
    load v0;
    base_grad ~xs ~ys ~gx ~gy;
    density_grad ~xs ~ys ~gx:gxd ~gy:gyd;
    let l1 g = Array.fold_left (fun a v -> a +. abs_float v) 0.0 g in
    let base_norm = l1 gx +. l1 gy and den_norm = l1 gxd +. l1 gyd in
    lambda :=
      if den_norm > 1e-12 then
        p.Gp_params.lambda0_ratio *. base_norm /. den_norm
      else 1.0
  in
  let grad v g =
    Telemetry.Counter.incr fevals_counter;
    load v;
    base_grad ~xs ~ys ~gx ~gy;
    density_grad ~xs ~ys ~gx:gxd ~gy:gyd;
    for i = 0 to n - 1 do
      g.(i) <- gx.(i) +. (!lambda *. gxd.(i));
      g.(n + i) <- gy.(i) +. (!lambda *. gyd.(i))
    done
  in
  let opt = Numerics.Nesterov.create ~x0:v0 ~grad () in
  let iters = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iters < p.Gp_params.max_iters do
    Numerics.Nesterov.step opt;
    incr iters;
    (* clamp the optimizer state into the region *)
    let v = Numerics.Nesterov.x opt in
    load v;
    Array.blit xs 0 v 0 n;
    Array.blit ys 0 v n n;
    lambda := !lambda *. p.Gp_params.lambda_growth;
    (* anneal gamma with overflow: tight approximation near convergence *)
    gamma :=
      bin *. p.Gp_params.gamma_factor *. (0.5 +. (9.5 *. Float.min 1.0 !overflow));
    if !iters >= p.Gp_params.min_iters && !overflow < p.Gp_params.overflow_stop
    then continue_ := false
  done;
  load (Numerics.Nesterov.x opt);
  (* hard mode: exact projection at the end of GP *)
  (match p.Gp_params.sym_mode with
  | Gp_params.Hard -> Place_common.Constraint_penalty.project_hard ts.cp ~xs ~ys
  | Gp_params.Soft -> ());
  let layout = Netlist.Layout.create c in
  for i = 0 to n - 1 do
    Netlist.Layout.set layout i ~x:xs.(i) ~y:ys.(i)
  done;
  Telemetry.Counter.add iters_counter !iters;
  Telemetry.Gauge.set overflow_gauge !overflow;
  { layout; iterations = !iters; final_overflow = !overflow }
  in
  Telemetry.Span.with_ ~name:"gp" go
