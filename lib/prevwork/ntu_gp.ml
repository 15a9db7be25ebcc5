(* Global placement in the style of the prior analytical work [11],
   which follows the NTUplace3 framework: LSE-smoothed wirelength, a
   bell-shaped quadratic density penalty, soft symmetry — and, unlike
   ePlace-A, *no area term* (the paper's reason (1) for its losses).
   The NLP is solved by nonlinear conjugate gradient with the density
   weight escalated over a few stages. *)

type params = {
  seed : int;
  bins : int;
  utilization : float;
  target_density : float;
  gamma_factor : float;
  tau : float;
  beta0_ratio : float;  (* initial density weight vs wirelength force *)
  beta_growth : float;  (* per-stage multiplier *)
  stages : int;
  iters_per_stage : int;
}

let default =
  {
    seed = 1;
    bins = 32;
    utilization = 0.6;
    target_density = 1.0;
    gamma_factor = 2.0;
    tau = 2.0;
    beta0_ratio = 0.05;
    beta_growth = 4.0;
    stages = 6;
    iters_per_stage = 60;
  }

let iters_counter = Telemetry.Counter.make "gp.iterations"
let fevals_counter = Telemetry.Counter.make "gp.f_evals"

let run ?(params = default) ?perf (c : Netlist.Circuit.t) =
  let go () =
  let p = params in
  let n = Netlist.Circuit.n_devices c in
  let total_area = Netlist.Circuit.total_device_area c in
  let side = sqrt (total_area /. p.utilization) in
  let region = Geometry.Rect.make ~x0:0.0 ~y0:0.0 ~x1:side ~y1:side in
  let nv = Wirelength.Netview.of_circuit c in
  let bell =
    Density.Bell.create ~region ~nx:p.bins ~ny:p.bins
      ~target:p.target_density
  in
  let cp = Place_common.Constraint_penalty.create c in
  let widths =
    Array.init n (fun i -> (Netlist.Circuit.device c i).Netlist.Device.w)
  in
  let heights =
    Array.init n (fun i -> (Netlist.Circuit.device c i).Netlist.Device.h)
  in
  let bin = side /. float_of_int p.bins in
  let gamma = p.gamma_factor *. bin in
  let rng = Numerics.Rng.create p.seed in
  let v0 = Array.make (2 * n) 0.0 in
  let cx = 0.5 *. side and spread = 0.08 *. side in
  for i = 0 to n - 1 do
    v0.(i) <- cx +. (spread *. Numerics.Rng.gaussian rng);
    v0.(n + i) <- cx +. (spread *. Numerics.Rng.gaussian rng)
  done;
  let beta = ref 0.0 in
  let clamp xs ys =
    for i = 0 to n - 1 do
      let hw = 0.5 *. widths.(i) and hh = 0.5 *. heights.(i) in
      if xs.(i) < hw then xs.(i) <- hw;
      if xs.(i) > side -. hw then xs.(i) <- side -. hw;
      if ys.(i) < hh then ys.(i) <- hh;
      if ys.(i) > side -. hh then ys.(i) <- side -. hh
    done
  in
  (* scratch reused by every evaluation: Cg.minimize copies the
     returned gradient before it evaluates again *)
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let gxd = Array.make n 0.0 and gyd = Array.make n 0.0 in
  let gxs = Array.make n 0.0 and gys = Array.make n 0.0 in
  let g = Array.make (2 * n) 0.0 in
  let zero a = Array.fill a 0 n 0.0 in
  let objective v =
    Telemetry.Counter.incr fevals_counter;
    Array.blit v 0 xs 0 n;
    Array.blit v n ys 0 n;
    clamp xs ys;
    zero gx;
    zero gy;
    zero gxd;
    zero gyd;
    zero gxs;
    zero gys;
    let wl = Wirelength.Lse.value_grad nv ~gamma ~xs ~ys ~gx ~gy in
    let den =
      Density.Bell.value_grad bell ~widths ~heights ~xs ~ys ~gx:gxd ~gy:gyd
    in
    let sym =
      Place_common.Constraint_penalty.value_grad cp ~xs ~ys ~gx:gxs ~gy:gys
    in
    let pval =
      match perf with
      | None -> 0.0
      | Some phi_grad -> phi_grad ~xs ~ys ~gx ~gy
    in
    for i = 0 to n - 1 do
      g.(i) <- gx.(i) +. (!beta *. gxd.(i)) +. (p.tau *. gxs.(i));
      g.(n + i) <- gy.(i) +. (!beta *. gyd.(i)) +. (p.tau *. gys.(i))
    done;
    (wl +. (!beta *. den) +. (p.tau *. sym) +. pval, g)
  in
  (* initial beta from gradient-norm balance *)
  let () =
    let xs = Array.sub v0 0 n and ys = Array.sub v0 n n in
    clamp xs ys;
    let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
    ignore (Wirelength.Lse.value_grad nv ~gamma ~xs ~ys ~gx ~gy);
    let gxd = Array.make n 0.0 and gyd = Array.make n 0.0 in
    ignore
      (Density.Bell.value_grad bell ~widths ~heights ~xs ~ys ~gx:gxd ~gy:gyd);
    let l1 g = Array.fold_left (fun a x -> a +. abs_float x) 0.0 g in
    let wl_n = l1 gx +. l1 gy and den_n = l1 gxd +. l1 gyd in
    beta := if den_n > 1e-12 then p.beta0_ratio *. wl_n /. den_n else 1.0
  in
  let x = ref (Array.copy v0) in
  for _stage = 1 to p.stages do
    let x', stats =
      Numerics.Cg.minimize ~max_iter:p.iters_per_stage ~f:objective ~x0:!x ()
    in
    Telemetry.Counter.add iters_counter stats.Numerics.Cg.iterations;
    x := x';
    beta := !beta *. p.beta_growth
  done;
  let xs = Array.sub !x 0 n and ys = Array.sub !x n n in
  clamp xs ys;
  let layout = Netlist.Layout.create c in
  for i = 0 to n - 1 do
    Netlist.Layout.set layout i ~x:xs.(i) ~y:ys.(i)
  done;
  layout
  in
  Telemetry.Span.with_ ~name:"gp" go
