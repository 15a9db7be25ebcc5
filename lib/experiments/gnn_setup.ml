(* Per-circuit GNN setup for the performance-driven experiments:
   generate a labelled placement dataset (the paper uses >1000 samples
   per design), pick the FOM threshold, train the surrogate, and
   expose the hooks each placer family needs. Models are cached per
   circuit content within a process. *)

type trained = {
  enc : Gnn.Graph_enc.t;
  model : Gnn.Model.t;
  threshold : float;  (* FOM below this is labelled unsatisfactory *)
  train_stats : Gnn.Train.stats;
  n_samples : int;
}

(* Random legal-by-construction placements from the symmetry-island
   sequence-pair representation — cheap and diverse. *)
let random_packing rng (c : Netlist.Circuit.t) islands =
  let n = Array.length islands in
  let sp = Annealing.Seqpair.random rng n in
  let widths = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.w) islands in
  let heights = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.h) islands in
  let xs, ys = Annealing.Seqpair.pack sp ~widths ~heights in
  let l = Netlist.Layout.create c in
  Array.iteri (fun b isl -> Annealing.Island.place isl ~xs ~ys b l) islands;
  l

let spread_layout rng l factor =
  let l = Netlist.Layout.copy l in
  for i = 0 to Netlist.Layout.n_devices l - 1 do
    Netlist.Layout.set l i
      ~x:(l.Netlist.Layout.xs.(i) *. factor)
      ~y:(l.Netlist.Layout.ys.(i) *. factor)
  done;
  ignore rng;
  l

type dataset_sizes = {
  n_random : int;
  n_spread : int;
  n_sa : int;
  n_analytic : int;
}

let default_sizes =
  { n_random = 550; n_spread = 150; n_sa = 220; n_analytic = 80 }

let quick_sizes = { n_random = 140; n_spread = 40; n_sa = 56; n_analytic = 20 }

(* One dataset sample, fully described up front: the master RNG draws
   every per-sample stream and parameter serially (in a fixed order)
   before the fan-out, so the generated dataset is identical whatever
   the worker count. *)
type sample_spec =
  | Random_pack of Numerics.Rng.t
  | Spread of Numerics.Rng.t * float  (* child stream, spread factor *)
  | Sa_sample of { sa_seed : int; wl_weight : float; area_weight : float }
  | Analytic of { gp_seed : int; eta : float; tau : float }

(* [Array.init] does not promise an application order, and the closures
   below consume the master RNG, so tabulate explicitly left-to-right. *)
let init_ordered n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

let generate_layouts ?(sizes = default_sizes) ~seed (c : Netlist.Circuit.t) =
  let rng = Numerics.Rng.create seed in
  let islands = Array.of_list (Annealing.Island.decompose c) in
  let specs =
    Array.concat
      [
        Array.map
          (fun r -> Random_pack r)
          (Numerics.Rng.split_n rng sizes.n_random);
        init_ordered sizes.n_spread (fun _ ->
            let child = Numerics.Rng.split rng in
            let f = Numerics.Rng.uniform rng ~lo:1.15 ~hi:2.2 in
            Spread (child, f));
        init_ordered sizes.n_sa (fun k ->
            Sa_sample
              {
                sa_seed = seed + (7 * (k + 1));
                wl_weight = Numerics.Rng.uniform rng ~lo:0.4 ~hi:2.2;
                area_weight = Numerics.Rng.uniform rng ~lo:0.4 ~hi:2.2;
              });
        init_ordered sizes.n_analytic (fun k ->
            Analytic
              {
                gp_seed = seed + (13 * (k + 1));
                eta = Numerics.Rng.uniform rng ~lo:0.02 ~hi:0.5;
                tau = Numerics.Rng.uniform rng ~lo:0.5 ~hi:4.0;
              });
      ]
  in
  let build = function
    | Random_pack r -> Some (random_packing r c islands)
    | Spread (r, f) -> Some (spread_layout r (random_packing r c islands) f)
    | Sa_sample { sa_seed; wl_weight; area_weight } ->
        let params =
          { Annealing.Sa_placer.default_params with
            Annealing.Sa_placer.seed = sa_seed;
            moves = 3000;
            wl_weight;
            area_weight;
          }
        in
        let l, _ = Annealing.Sa_placer.place ~params c in
        Some l
    | Analytic { gp_seed; eta; tau } -> (
        let gp =
          { Eplace.Gp_params.default with
            Eplace.Gp_params.seed = gp_seed; eta; tau }
        in
        let params =
          { Eplace.Eplace_a.default_params with
            Eplace.Eplace_a.gp; restarts = 1; dp_passes = 1 }
        in
        match Eplace.Eplace_a.place ~params c with
        | Some r -> Some r.Eplace.Eplace_a.layout
        | None -> None)
  in
  Pool.map (Pool.default ()) build specs
  |> Array.to_list |> List.filter_map Fun.id

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  a.(min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

let train_for ?(sizes = default_sizes) ?(epochs = 150) ?(seed = 424242)
    (c : Netlist.Circuit.t) =
  let layouts = generate_layouts ~sizes ~seed c in
  (* labelling routes and extracts every sample — the most expensive
     part of dataset generation, and pure per layout *)
  let foms = Pool.map_list (Pool.default ()) Perfsim.Fom.fom layouts in
  (* The reported threshold marks the top 15% as "satisfactory" (the
     paper's binary framing), but training uses soft targets scaled
     over the whole FOM range: binary labels saturate in the
     good-placement region, which destroys exactly the ranking signal
     the placers need. BCE with soft targets is a proper scoring rule,
     so the output stays a calibrated "probability unsatisfactory". *)
  let threshold = percentile foms 0.85 in
  let fmin = percentile foms 0.02 and fmax = percentile foms 0.98 in
  let span = Float.max 1e-6 (fmax -. fmin) in
  let enc = Gnn.Graph_enc.of_circuit c in
  let samples =
    List.map2
      (fun l f ->
        let goodness = Float.max 0.0 (Float.min 1.0 ((f -. fmin) /. span)) in
        {
          Gnn.Train.enc;
          xs = Array.copy l.Netlist.Layout.xs;
          ys = Array.copy l.Netlist.Layout.ys;
          label = 1.0 -. goodness;
        })
      layouts foms
  in
  let rng = Numerics.Rng.create (seed + 1) in
  let model = Gnn.Model.create rng in
  let train_stats = Gnn.Train.train ~epochs ~rng model samples in
  { enc; model; threshold; train_stats; n_samples = List.length samples }

(* Process-wide model cache, keyed by the circuit's content hashes (two
   circuits that share a name do not share a model), a quick/full flag
   and a fingerprint of any non-default training configuration.

   The single-flight protocol (first caller to miss trains with the
   lock released; concurrent callers for the same key wait instead of
   duplicating the run; a raising trainer withdraws its entry and one
   waiter retries) started life here and now lives in [Cache] — the
   service's result cache and this model cache share the audited
   implementation. Training may itself fan out on the pool: nested
   pool maps run inline, so no worker is parked while it trains. Every
   caller shares the one physically-equal [trained] value, and the LRU
   bound caps how many trained models a long-lived process can pin. *)
(* placer-lint: allow D4 deliberate process-wide model cache (bounded LRU); Cache serialises every access behind its lock *)
let cache : trained Cache.t = Cache.create ~capacity:16 ()

let get ?sizes ?epochs ?(quick = false) (c : Netlist.Circuit.t) =
  let default_sz = if quick then quick_sizes else default_sizes in
  let default_ep = if quick then 80 else 150 in
  let custom = Option.is_some sizes || Option.is_some epochs in
  let sizes = Option.value sizes ~default:default_sz in
  let epochs = Option.value epochs ~default:default_ep in
  let key =
    let nh, ch = Netlist.Io.circuit_hashes c in
    nh ^ "/" ^ ch
    ^ (if quick then "/q" else "/f")
    ^
    if custom then
      Printf.sprintf "/n%d-%d-%d-%d-e%d" sizes.n_random sizes.n_spread
        sizes.n_sa sizes.n_analytic epochs
    else ""
  in
  Cache.get_or_compute cache ~key (fun () -> train_for ~sizes ~epochs c)

(* ---- placer-facing hooks ---- *)

(* GNN inference on a realised layout, for simulated annealing [19]. *)
let phi_of_layout t (l : Netlist.Layout.t) =
  Gnn.Model.predict t.model t.enc ~xs:l.Netlist.Layout.xs
    ~ys:l.Netlist.Layout.ys

(* Weighted Phi gradient hook for the analytical placers (Eq. 5). *)
let phi_grad_hook t ~alpha =
  fun ~xs ~ys ~gx ~gy ->
    Gnn.Model.phi_grad t.model t.enc ~alpha ~xs ~ys ~gx ~gy
