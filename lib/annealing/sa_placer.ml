(* Simulated-annealing analog placer: symmetry islands + sequence pair,
   the representative of the classical approach the paper compares
   against. The cost blends normalised area and HPWL (plus an optional
   GNN performance term for the performance-driven variant [19]), with
   a soft penalty for ordering chains across islands. All evaluation
   goes through the incremental {!Eval} engine; this module only owns
   the schedule (temperature, acceptance, restarts), which the template
   and matheuristic placers drive too. *)

type params = {
  seed : int;
  restarts : int;  (* independent anneals; the best final cost wins *)
  area_weight : float;
  wl_weight : float;
  moves : int;  (* total proposed moves, per restart *)
  cooling : float;
  accept0 : float;  (* target initial acceptance probability *)
  order_penalty : float;
  perf : (Netlist.Layout.t -> float) option;
  perf_alpha : float;
  check_every : int;  (* cross-check incremental cost every N evals *)
}

let default_params =
  {
    seed = 1;
    restarts = 1;
    area_weight = 1.0;
    wl_weight = 1.0;
    moves = 60_000;
    cooling = 0.96;
    accept0 = 0.85;
    order_penalty = 40.0;
    perf = None;
    perf_alpha = 0.0;
    check_every = 0;
  }

let moves_counter = Telemetry.Counter.make "sa.moves"
let accepted_counter = Telemetry.Counter.make "sa.accepted"
let rejected_counter = Telemetry.Counter.make "sa.rejected"
let evals_counter = Telemetry.Counter.make "sa.evals"
let best_cost_gauge = Telemetry.Gauge.make "sa.best_cost"

let objective_of_params (p : params) : Eval.objective =
  {
    Eval.area_weight = p.area_weight;
    wl_weight = p.wl_weight;
    order_penalty = p.order_penalty;
    perf = p.perf;
    perf_alpha = p.perf_alpha;
  }

(* One anneal in progress. Counters are batched here and published
   once by [finish]: the totals the collector merges are identical,
   and the per-move path stays free of collector lookups. *)
type schedule = {
  eng : Eval.t;
  rng : Numerics.Rng.t;
  propose : Eval.t -> Numerics.Rng.t -> unit;
  on_accept : unit -> unit;
  per_temp : int;
  cooling : float;
  mutable current : float;
  mutable temp : float;
  mutable best : float;
  mutable best_layout : Netlist.Layout.t;
  mutable moves : int;
  mutable evals : int;
  mutable accepted : int;
  mutable rejected : int;
}

let engine s = s.eng

let cost s =
  s.evals <- s.evals + 1;
  Eval.cost s.eng

let record_best s c' =
  if c' < s.best then begin
    s.best <- c';
    s.best_layout <- Eval.snapshot s.eng
  end

let resync s =
  s.current <- cost s;
  s.current

let commit s c' =
  Eval.commit s.eng;
  s.current <- c';
  record_best s c'

let plateau n = max 60 (14 * n * n)

(* SA's 14n^2 plateau assumes the full 4M budget; at an eighth of that
   a large circuit would see only a handful of temperatures and
   quench, so the reduced-budget families cap it at ~100 stages. *)
let capped_plateau ~moves n = max 60 (min (plateau n) (moves / 100))

let start ?(propose = Eval.propose) ?(on_accept = ignore) ~per_temp
    (p : params) ~rng st =
  let eng = Eval.make ~check_every:p.check_every (objective_of_params p) st in
  let current = Eval.cost eng in
  let s =
    {
      eng;
      rng;
      propose;
      on_accept;
      per_temp;
      cooling = p.cooling;
      current;
      temp = 0.0;
      best = current;
      best_layout = Eval.snapshot eng;
      moves = 0;
      evals = 1;
      accepted = 0;
      rejected = 0;
    }
  in
  (* initial temperature from average uphill delta over a probe walk *)
  let uphill = ref 0.0 and n_up = ref 0 in
  for _ = 1 to 40 do
    propose eng rng;
    let c' = cost s in
    if c' > current then begin
      uphill := !uphill +. (c' -. current);
      incr n_up
    end;
    Eval.revert eng
  done;
  let avg = if !n_up = 0 then 0.05 else !uphill /. float_of_int !n_up in
  (* placer-lint: allow N2 accept0 is a tuning constant in (0,1) (default 0.85), so log accept0 is negative and nonzero *)
  s.temp <- Float.max 1e-6 (-.avg /. log p.accept0);
  s

(* [current] and [temp] live in local refs: a mutable float field of a
   mixed record is boxed on every write. *)
let plateaus s budget =
  let current = ref s.current and temp = ref s.temp in
  let total = ref 0 in
  while !total < budget do
    let upto = min budget (!total + s.per_temp) in
    while !total < upto do
      incr total;
      s.propose s.eng s.rng;
      let c' = cost s in
      let dc = c' -. !current in
      (* placer-lint: allow N2 temp is seeded from start's Float.max 1e-6 t0 and only ever multiplied by the positive cooling factor *)
      if dc <= 0.0 || Numerics.Rng.float s.rng < exp (-.dc /. !temp) then begin
        current := c';
        Eval.commit s.eng;
        s.accepted <- s.accepted + 1;
        s.on_accept ();
        record_best s c'
      end
      else begin
        s.rejected <- s.rejected + 1;
        Eval.revert s.eng
      end
    done;
    temp := !temp *. s.cooling
  done;
  s.moves <- s.moves + !total;
  s.current <- !current;
  s.temp <- !temp
[@@placer_lint.hot]

let finish s =
  Telemetry.Counter.add moves_counter s.moves;
  Telemetry.Counter.add evals_counter s.evals;
  Telemetry.Counter.add accepted_counter s.accepted;
  Telemetry.Counter.add rejected_counter s.rejected;
  Eval.flush_counters s.eng;
  (s.best, s.best_layout)

(* best final cost wins; ties break to the lowest restart index, so the
   winner does not depend on scheduling *)
let select runs =
  let best_cost, best_layout =
    Array.fold_left
      (fun ((best_cost, _) as best) ((cost, _) as r) ->
        if cost < best_cost then r else best)
      runs.(0) runs
  in
  Telemetry.Gauge.set best_cost_gauge best_cost;
  Telemetry.Span.with_ ~name:"dp" (fun () ->
      Netlist.Layout.normalize best_layout);
  (best_layout, best_cost)

(* One full annealing run on its own random stream. The search is SA's
   "global placement" phase; the final snapshot normalisation is its
   (trivial) detailed phase, so the telemetry phase names line up
   across placer families. *)
let anneal ~params ~rng (c : Netlist.Circuit.t) =
  Telemetry.Span.with_ ~name:"gp" (fun () ->
      let st = Eval.make_state rng c in
      let n = Array.length st.Eval.islands in
      let s = start ~per_temp:(plateau n) params ~rng st in
      plateaus s params.moves;
      finish s)

let place ?(params = default_params) (c : Netlist.Circuit.t) =
  let runs =
    if params.restarts <= 1 then
      (* single restart keeps the historical stream: the seed feeds the
         anneal directly, with no split in between *)
      [| anneal ~params ~rng:(Numerics.Rng.create params.seed) c |]
    else begin
      let master = Numerics.Rng.create params.seed in
      let rngs = Numerics.Rng.split_n master params.restarts in
      Pool.map (Pool.default ()) (fun rng -> anneal ~params ~rng c) rngs
    end
  in
  select runs
