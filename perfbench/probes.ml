(* Per-call timing probes: the benchmark calls each layer's public
   functions directly and times them with a nanosecond monotonic clock.
   Probes run after a workload's job phase, so they never perturb it. *)

module M = Experiments.Methods

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* A per-call time: the best over [batches] of the mean call time in a
   batch, in microseconds, and the number of calls behind it. The best,
   like the job phase's best pass, so that a probe and the pass it is
   compared with (as in gp.kernel_share) both see the host at its
   fastest. *)
type timing = { us : float; calls : int }

let time_us ?(batches = 5) ?(batch_s = 0.004) f =
  ignore (Sys.opaque_identity (f ()));
  let per_call = Array.make batches 0.0 and calls = ref 0 in
  for b = 0 to batches - 1 do
    let t0 = now_ns () and k = ref 0 in
    while now_ns () -. t0 < batch_s *. 1e9 do
      ignore (Sys.opaque_identity (f ()));
      incr k
    done;
    per_call.(b) <- (now_ns () -. t0) /. float_of_int !k /. 1e3;
    calls := !calls + !k
  done;
  { us = Array.fold_left Float.min infinity per_call; calls = !calls }

(* ---------- GP kernels, at one circuit's GP result ---------- *)

type kernels = {
  k_circuit : string;
  poisson : timing;
  es_compute : timing;
  es_grad : timing;  (* Electrostatic.grad over all devices *)
  bell : timing;
  wa : timing;
  lse : timing;
  terms : timing;  (* penalty + area + WPE value_grad *)
}

(* The share of GP time these kernels explain uses the calls ePlace-A
   makes once per evaluation: splat-and-solve, per-device field,
   wirelength and the penalty terms. Poisson is inside [es_compute]. *)
let eplace_eval_us k = k.es_compute.us +. k.es_grad.us +. k.wa.us +. k.terms.us

let kernels (c : Netlist.Circuit.t) =
  let p = Eplace.Gp_params.default in
  let gp = Eplace.Global_place.run ~params:p c in
  let l = gp.Eplace.Global_place.layout in
  let xs = Array.copy l.Netlist.Layout.xs and ys = Array.copy l.Netlist.Layout.ys in
  let n = Array.length xs in
  let dev i = Netlist.Circuit.device c i in
  let w = Array.init n (fun i -> (dev i).Netlist.Device.w)
  and h = Array.init n (fun i -> (dev i).Netlist.Device.h) in
  let bins = p.Eplace.Gp_params.bins in
  let side =
    sqrt (Netlist.Circuit.total_device_area c /. p.Eplace.Gp_params.utilization)
  in
  let region = Geometry.Rect.make ~x0:0.0 ~y0:0.0 ~x1:side ~y1:side in
  let gamma = side /. float_of_int bins *. p.Eplace.Gp_params.gamma_factor in
  let rects =
    Array.init n (fun i ->
        Geometry.Rect.of_center ~cx:xs.(i) ~cy:ys.(i) ~w:w.(i) ~h:h.(i))
  in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let spectral = Numerics.Spectral.create ~nx:bins ~ny:bins in
  let rho =
    Numerics.Matrix.init bins bins (fun i j ->
        0.5 +. (0.25 *. sin (float_of_int ((i * 7) + j))))
  in
  let es = Density.Electrostatic.create ~region ~nx:bins ~ny:bins in
  Density.Electrostatic.compute es rects;
  let bell =
    Density.Bell.create ~region ~nx:bins ~ny:bins
      ~target:Prevwork.Ntu_gp.default.Prevwork.Ntu_gp.target_density
  in
  let nv = Wirelength.Netview.of_circuit c in
  let cp = Place_common.Constraint_penalty.create c
  and at = Place_common.Area_term.create c
  and wpe = Place_common.Wpe_term.create c in
  {
    k_circuit = c.Netlist.Circuit.name;
    poisson = time_us (fun () -> Numerics.Spectral.solve_poisson spectral rho);
    es_compute = time_us (fun () -> Density.Electrostatic.compute es rects);
    es_grad =
      time_us (fun () ->
          Array.iter (fun r -> ignore (Density.Electrostatic.grad es r)) rects);
    bell =
      time_us (fun () ->
          Density.Bell.value_grad bell ~widths:w ~heights:h ~xs ~ys ~gx ~gy);
    wa = time_us (fun () -> Wirelength.Wa.value_grad nv ~gamma ~xs ~ys ~gx ~gy);
    lse = time_us (fun () -> Wirelength.Lse.value_grad nv ~gamma ~xs ~ys ~gx ~gy);
    terms =
      time_us (fun () ->
          Place_common.Constraint_penalty.value_grad cp ~xs ~ys ~gx ~gy
          +. Place_common.Area_term.value_grad at ~gamma ~xs ~ys ~gx ~gy
          +. Place_common.Wpe_term.value_grad wpe ~xs ~ys ~gx ~gy);
  }

(* ---------- the annealer's incremental engine ---------- *)

type anneal = {
  propose_ns : float;
  cost_ns : float;
  commit_ns : float;  (* commit or revert, whichever the move got *)
  moves : int;
}

(* Drive Eval through a seeded move sequence: propose, cost, then keep
   the move when it does not raise the cost by more than 2%, else
   revert. Each call is timed on its own. *)
let anneal ~seed ~moves circuits =
  let tp = ref 0.0 and tc = ref 0.0 and tk = ref 0.0 and n = ref 0 in
  List.iteri
    (fun i c ->
      let rng = Numerics.Rng.create (seed + i) in
      let st = Annealing.Eval.make_state rng c in
      let p = Annealing.Sa_placer.default_params in
      let eng =
        Annealing.Eval.make
          {
            Annealing.Eval.area_weight = p.Annealing.Sa_placer.area_weight;
            wl_weight = p.Annealing.Sa_placer.wl_weight;
            order_penalty = p.Annealing.Sa_placer.order_penalty;
            perf = None;
            perf_alpha = 0.0;
          }
          st
      in
      let cur = ref (Annealing.Eval.cost eng) in
      for _ = 1 to moves do
        let t0 = now_ns () in
        Annealing.Eval.propose eng rng;
        let t1 = now_ns () in
        let c' = Annealing.Eval.cost eng in
        let t2 = now_ns () in
        if c' <= !cur *. 1.02 then begin
          Annealing.Eval.commit eng;
          cur := c'
        end
        else Annealing.Eval.revert eng;
        let t3 = now_ns () in
        tp := !tp +. (t1 -. t0);
        tc := !tc +. (t2 -. t1);
        tk := !tk +. (t3 -. t2);
        incr n
      done)
    circuits;
  let per x = x /. float_of_int (max 1 !n) in
  { propose_ns = per !tp; cost_ns = per !tc; commit_ns = per !tk; moves = !n }

(* ---------- GNN inference ---------- *)

(* A batch timing over [k] items as a per-item timing. *)
let per_item t k = { us = t.us /. float_of_int (max 1 k); calls = t.calls * k }

let gnn trained layouts =
  let pairs =
    List.filter_map
      (fun (l : Netlist.Layout.t) ->
        Option.map (fun t -> (t, l))
          (List.assoc_opt l.Netlist.Layout.circuit.Netlist.Circuit.name trained))
      layouts
  in
  let each f = time_us (fun () -> List.iter f pairs) in
  let predict =
    each (fun (t, l) -> ignore (Experiments.Gnn_setup.phi_of_layout t l))
  in
  let phi_grad =
    each (fun (t, (l : Netlist.Layout.t)) ->
        let n = Array.length l.Netlist.Layout.xs in
        let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
        ignore
          (Experiments.Gnn_setup.phi_grad_hook t ~alpha:60.0 ~xs:l.Netlist.Layout.xs
             ~ys:l.Netlist.Layout.ys ~gx ~gy))
  in
  let k = List.length pairs in
  (per_item predict k, per_item phi_grad k)

(* ---------- per-layout costs every workload pays ---------- *)

(* Time [f] once per layout, as one batch over all layouts, and report
   the per-layout cost. *)
let per_layout f layouts =
  per_item
    (time_us ~batches:3 ~batch_s:0.01 (fun () -> List.iter f layouts))
    (List.length layouts)

let fom layouts = per_layout (fun l -> ignore (Perfsim.Fom.fom l)) layouts
let checks layouts = per_layout (fun l -> ignore (Netlist.Checks.all l)) layouts

let netlist_io layouts =
  per_layout
    (fun (l : Netlist.Layout.t) ->
      ignore
        (Netlist.Io.parse_placement l.Netlist.Layout.circuit
           (Netlist.Io.placement_to_string l)))
    layouts

(* A daemon result line: the wire form of one placed layout. *)
let result_json spec (l : Netlist.Layout.t) =
  Jsonio.Obj
    [
      ("v", Jsonio.Num 1.0);
      ("type", Jsonio.Str "result");
      ("ok", Jsonio.Bool true);
      ("area", Jsonio.Num (Netlist.Layout.area l));
      ("hpwl", Jsonio.Num (Netlist.Layout.hpwl l));
      ("spec_hash", Jsonio.Str (M.spec_hash spec));
      ("layout", Jsonio.Str (Netlist.Io.placement_to_string l));
    ]

let jsonio_roundtrip pairs =
  let lines = List.map (fun (s, l) -> result_json s l) pairs in
  per_layout (fun v -> ignore (Jsonio.parse (Jsonio.to_string v))) lines

let spec_hash specs = per_layout (fun s -> ignore (M.spec_hash s)) specs
