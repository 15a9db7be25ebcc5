(* The JSON benchmarks behind main.exe's subcommands, one
   BENCH_<name>.json each, all written by [write]:

     sa-eval       the incremental SA cost engine against a full
                   recomputation per move
     templates     conventional SA against template composition, cold
                   and warm
     matheuristic  conventional SA against the matheuristic

   templates and matheuristic share one circuit loop ([versus_sa]) and
   one measurement path ([measure]): a Methods.spec run through
   Methods.of_spec. *)

module M = Experiments.Methods
module Eval = Annealing.Eval

let inum i = Jsonio.Num (float_of_int i)

(* [x] rounded to [dp] decimals, the precision it is meaningful to *)
let fixed dp x = Jsonio.Num (float_of_string (Printf.sprintf "%.*f" dp x))

(* {"bench": ..., <fields>, "rows": [...]}, one row per line *)
let write out ~bench fields rows =
  let enc = Jsonio.to_string in
  let oc = open_out out in
  Printf.fprintf oc "{\n  \"bench\": %s" (enc (Jsonio.Str bench));
  List.iter
    (fun (k, v) -> Printf.fprintf oc ",\n  %s: %s" (enc (Jsonio.Str k)) (enc v))
    fields;
  Printf.fprintf oc ",\n  \"rows\": [\n    %s\n  ]\n}\n"
    (String.concat ",\n    " (List.map (fun r -> enc (Jsonio.Obj r)) rows));
  close_out oc

(* ---------- sa-eval ----------

   Runs the same annealing move/acceptance sequence twice per testcase,
   back to back in one process:

     before  every move is costed through [Eval.full_cost] — the
             historical path (quadratic sequence-pair pack, fresh
             layout, full Layout.hpwl / area / Checks fold);
     after   every move is costed through [Eval.cost] — the
             incremental path (Fenwick repack into scratch, dirty-net
             HPWL cache).

   The two paths are bit-identical per move, so with a shared seed both
   loops follow the exact same trajectory; the only difference is how
   the cost is obtained. Rows carry the sa.cache_hits / sa.full_repacks
   telemetry counters and a per-move FLOP proxy (pack comparisons +
   layout-rewrite stores + 4 flops per net terminal evaluated). *)

let objective : Eval.objective =
  {
    Eval.area_weight = 1.0;
    wl_weight = 1.0;
    order_penalty = 40.0;
    perf = None;
    perf_alpha = 0.0;
  }

(* Fixed-schedule anneal loop mirroring Sa_placer's acceptance rule;
   [cost_of] selects the path under test. Returns (seconds, minor
   words, final cost) so the caller can assert the two paths agreed. *)
let run_loop ~moves ~cost_of (c : Netlist.Circuit.t) =
  let rng = Numerics.Rng.create 1 in
  let st = Eval.make_state rng c in
  let eng = Eval.make objective st in
  let current = ref (cost_of eng) in
  let temp = ref 0.05 in
  let w0 = Gc.minor_words () in
  let t0 = Telemetry.now () in
  for i = 1 to moves do
    Eval.propose eng rng;
    let c' = cost_of eng in
    let dc = c' -. !current in
    if dc <= 0.0 || Numerics.Rng.float rng < exp (-.dc /. !temp) then begin
      current := c';
      Eval.commit eng
    end
    else begin
      Eval.revert eng
    end;
    if i mod 500 = 0 then temp := !temp *. 0.96
  done;
  let dt = Telemetry.now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  Eval.flush_counters eng;
  (dt, words, !current)

let cache_hits = Telemetry.Counter.make "sa.cache_hits"
let full_repacks = Telemetry.Counter.make "sa.full_repacks"

type eval_row = {
  name : string;
  n_islands : int;
  n_active : int;
  before_s : float;
  after_s : float;
  hits : int;
  repacks : int;
  evals : int;
  nets_before : float;  (* active nets costed per move, full path *)
  nets_after : float;  (* dirty nets costed per move, incremental *)
  words_before : float;  (* minor heap words allocated per move *)
  words_after : float;
  flops_before : float;
  flops_after : float;
}

let eval_bench ~moves name =
  let c = Circuits.Testcases.get_exn name in
  let view = Netlist.Netview.of_circuit c in
  let active = Netlist.Netview.active_nets view in
  let n_active = Array.length active in
  let terminals =
    Array.fold_left
      (fun acc e -> acc + Netlist.Netview.degree view e)
      0 active
  in
  let n_devices = Netlist.Netview.n_devices view in
  let n_islands =
    Array.length (Eval.make_state (Numerics.Rng.create 1) c).Eval.islands
  in
  let pairs =
    List.fold_left
      (fun acc (o : Netlist.Constraint_set.order_chain) ->
        acc + max 0 (List.length o.Netlist.Constraint_set.chain - 1))
      0 c.Netlist.Circuit.constraints.Netlist.Constraint_set.orders
  in
  let before_s, before_w, c_before =
    run_loop ~moves ~cost_of:Eval.full_cost c
  in
  let h0 = Telemetry.Counter.value cache_hits in
  let r0 = Telemetry.Counter.value full_repacks in
  let after_s, after_w, c_after = run_loop ~moves ~cost_of:Eval.cost c in
  let hits = Telemetry.Counter.value cache_hits - h0 in
  let repacks = Telemetry.Counter.value full_repacks - r0 in
  if Float.compare c_before c_after <> 0 then
    failwith
      (Printf.sprintf "%s: paths diverged (%.17g vs %.17g)" name c_before
         c_after);
  let evals = moves + 1 in
  let fi = float_of_int in
  let nets_before = fi n_active in
  let nets_after = fi ((evals * n_active) - hits) /. fi evals in
  let dirty_frac = nets_after /. Float.max 1.0 nets_before in
  (* Per-move FLOP proxy, counting every float op each path performs:
     pack (quadratic pair scan at ~1 compare-add per examined pair,
     both passes, vs the Fenwick query/update walks), layout rewrite
     (2 adds per device placed), bounding-box area (10 ops/device full,
     8 with the engine's precomputed half-sizes), HPWL (~11 ops per
     terminal: orientation-resolved pin position + min/max), the
     cache re-sum (1 add per active net) and the ordering pairs
     (~6 ops each). At paper-scale island counts the asymptotic gap is
     modest and dirty fractions run 60-80%, so the honest FLOP ratio
     is far below the wall-clock speedup: the clock wins come from the
     per-move allocation going to zero (see words_per_move). *)
  let log2n = Float.max 1.0 (Float.log (fi n_islands) /. Float.log 2.0) in
  let flops_before =
    (2.0 *. fi (n_islands * n_islands))
    +. (2.0 *. fi n_devices) (* realize into a fresh layout *)
    +. (10.0 *. fi n_devices) (* Layout.area bbox *)
    +. (11.0 *. fi terminals) (* Layout.hpwl pin positions + bbox *)
    +. (4.0 *. nets_before) (* per-net weight * span *)
    +. (6.0 *. fi pairs)
  in
  let flops_after =
    (fi n_islands *. ((4.0 *. log2n) +. 2.0)) (* Fenwick pack *)
    +. (2.0 *. fi n_devices *. dirty_frac) (* dirty-island rewrite *)
    +. (8.0 *. fi n_devices) (* arena bbox, precomputed half-sizes *)
    +. (11.0 *. fi terminals *. dirty_frac) (* dirty-net HPWL *)
    +. (4.0 *. nets_before *. dirty_frac)
    +. nets_before (* cache re-sum *)
    +. (6.0 *. fi pairs)
  in
  {
    name;
    n_islands;
    n_active;
    before_s;
    after_s;
    hits;
    repacks;
    evals;
    nets_before;
    nets_after;
    words_before = before_w /. fi moves;
    words_after = after_w /. fi moves;
    flops_before;
    flops_after;
  }

let sa_eval ~moves ~out =
  let mps s = float_of_int moves /. s in
  let speedup b = b.before_s /. b.after_s in
  let alloc b = b.words_before /. Float.max 1e-9 b.words_after in
  let flops b = b.flops_before /. b.flops_after in
  let rows =
    List.map
      (fun name ->
        let b = eval_bench ~moves name in
        Fmt.pr
          "%-8s before %8.0f moves/s  after %8.0f moves/s  x%.2f  flops x%.2f@."
          b.name (mps b.before_s) (mps b.after_s) (speedup b) (flops b);
        b)
      Circuits.Testcases.all_names
  in
  let geomean f =
    exp
      (List.fold_left (fun acc b -> acc +. Float.log (f b)) 0.0 rows
      /. float_of_int (List.length rows))
  in
  write out ~bench:"sa_eval"
    [
      ( "description",
        Jsonio.Str
          "per-move SA cost: full recompute (quadratic pack + fresh layout \
           + full HPWL) vs incremental engine (Fenwick repack + dirty-net \
           cache), same seed and trajectory, one process" );
      ("moves_per_circuit", inum moves);
      ("geomean_speedup", fixed 2 (geomean speedup));
      ("geomean_alloc_ratio", fixed 1 (geomean alloc));
      ("geomean_flops_ratio", fixed 2 (geomean flops));
    ]
    (List.map
       (fun b ->
         [
           ("circuit", Jsonio.Str b.name);
           ("islands", inum b.n_islands);
           ("active_nets", inum b.n_active);
           ("moves", inum moves);
           ("before_moves_per_s", fixed 0 (mps b.before_s));
           ("after_moves_per_s", fixed 0 (mps b.after_s));
           ("speedup", fixed 2 (speedup b));
           ("cache_hits", inum b.hits);
           ("full_repacks", inum b.repacks);
           ("evals", inum b.evals);
           ("nets_per_move_before", fixed 2 b.nets_before);
           ("nets_per_move_after", fixed 2 b.nets_after);
           ("words_per_move_before", fixed 1 b.words_before);
           ("words_per_move_after", fixed 1 b.words_after);
           ("alloc_ratio", fixed 1 (alloc b));
           ("flops_per_move_before", fixed 1 b.flops_before);
           ("flops_per_move_after", fixed 1 b.flops_after);
           ("flops_ratio", fixed 2 (flops b));
         ])
       rows);
  Fmt.pr "geomean speedup x%.2f, alloc ratio x%.1f, flops ratio x%.2f -> %s@."
    (geomean speedup) (geomean alloc) (geomean flops) out

(* ---------- SA against the annealing-based families ---------- *)

type run = {
  s : float;
  area : float;
  hpwl : float;
  fom : float Lazy.t;
  violations : int;
  stats : M.stats;
}

let measure spec c =
  let m = M.of_spec spec in
  match m.M.run c with
  | None -> failwith ("method returned no layout: " ^ m.M.method_name)
  | Some o ->
      let l = o.M.layout in
      {
        s = o.M.runtime_s;
        area = Netlist.Layout.area l;
        hpwl = Netlist.Layout.hpwl l;
        fom = lazy (Perfsim.Fom.fom l);
        violations = List.length (Netlist.Checks.all l);
        stats = o.M.stats;
      }

let run_fields ?(fom = false) tag r =
  let k field = tag ^ "_" ^ field in
  [ (k "s", fixed 3 r.s); (k "area", fixed 1 r.area);
    (k "hpwl", fixed 1 r.hpwl) ]
  @ (if fom then [ (k "fom", fixed 3 (Lazy.force r.fom)) ] else [])
  @ [ (k "violations", inum r.violations) ]

let speedup_vs ~sa r = sa.s /. Float.max 1e-9 r.s

(* One row per circuit: conventional SA at its island-scaled budget,
   then [family ~sa c moves] at the discounted budget, returning the
   rest of the row (SA's own fields included) and a console summary. *)
let versus_sa ~bench ~note ~out circuits family =
  let rows =
    List.map
      (fun name ->
        let c = Circuits.Testcases.get_exn name in
        let devices = Array.length c.Netlist.Circuit.devices in
        let islands = List.length (Annealing.Island.decompose c) in
        let sa_moves = M.sa_island_moves ~islands in
        let sa = measure { (M.default_spec M.Sa) with M.moves = sa_moves } c in
        let fields, summary = family ~sa c (M.discounted_moves sa_moves) in
        Fmt.pr "%-11s %3dd %2di  sa %6.2fs %s@." name devices islands sa.s
          summary;
        [ ("circuit", Jsonio.Str name); ("devices", inum devices);
          ("islands", inum islands); ("sa_moves", inum sa_moves) ]
        @ fields)
      circuits
  in
  write out ~bench [ ("note", Jsonio.Str note) ] rows;
  Fmt.pr "wrote %s@." out

(* Template composition twice with one fresh store: cold pays for
   canonicalising every motif and packing its Pareto family; warm is
   the steady state of a template-enabled daemon, where every family
   lookup is a cache hit. warm_speedup_vs_sa is the headline, next to
   area / HPWL / FOM / legality so the speedup can be checked to be
   genuine. *)
let templates ~out =
  versus_sa ~bench:"templates" ~out
    ~note:
      "cold/warm motif template cache vs conventional SA; \
       warm_speedup_vs_sa is the headline"
    [ "CC-OTA"; "CM-OTA1"; "Scaled-120"; "Scaled-240" ]
    (fun ~sa c moves ->
      let spec = { (M.default_spec M.Template) with M.moves } in
      let store = Templates.Template_store.configure_default () in
      let cold = measure spec c in
      let s0 = Templates.Template_store.stats store in
      let warm = measure spec c in
      let s1 = Templates.Template_store.stats store in
      let hits = s1.Cache.hits - s0.Cache.hits in
      let fom r = Lazy.force r.fom in
      ( run_fields ~fom:true "sa" sa
        @ run_fields ~fom:true "cold" cold
        @ run_fields ~fom:true "warm" warm
        @ [ ("families", inum s1.Cache.size);
            ("warm_template_hits", inum hits);
            ("cold_speedup_vs_sa", fixed 2 (speedup_vs ~sa cold));
            ("warm_speedup_vs_sa", fixed 2 (speedup_vs ~sa warm)) ],
        Fmt.str
          "fom %.3f | cold %5.2fs x%4.1f fom %.3f | warm %5.2fs x%4.1f fom \
           %.3f (%d fams, %d hits)"
          (fom sa) cold.s (speedup_vs ~sa cold) (fom cold) warm.s
          (speedup_vs ~sa warm) (fom warm) s1.Cache.size hits ))

(* The matheuristic row carries a per-phase split — gp (global SA
   moves), dp (window sweeps + final normalize) and, nested inside dp,
   ilp (simplex + branch & bound window solves) — plus the window
   counters, so "where did the ILP budget go" is answerable from the
   JSON alone. *)
let matheuristic ~out =
  versus_sa ~bench:"matheuristic" ~out
    ~note:
      "SA at the paper budget vs the matheuristic at its eighth-budget \
       default; math phase columns split gp (SA moves) from dp (window \
       sweeps) and ilp (B&B window solves, nested in dp)"
    (Circuits.Testcases.all_names @ [ "Scaled-120"; "Scaled-240" ])
    (fun ~sa c moves ->
      let math =
        measure { (M.default_spec M.Matheuristic) with M.moves } c
      in
      (* what the stats record does not carry, read from the collector
         the run reset on entry *)
      let ilp_s = Telemetry.span_total "ilp" in
      let counter n = Telemetry.Counter.value (Telemetry.Counter.make n) in
      let windows = counter "mh.windows" in
      let accepts = counter "mh.window_accepts" in
      let st = math.stats in
      ( run_fields "sa" sa @ run_fields "math" math
        @ [ ("math_gp_s", fixed 3 st.M.gp_s);
            ("math_dp_s", fixed 3 st.M.dp_s);
            ("math_ilp_s", fixed 3 ilp_s);
            ("math_windows", inum windows);
            ("math_window_accepts", inum accepts);
            ("math_ilp_nodes", inum st.M.ilp_nodes);
            ("math_speedup_vs_sa", fixed 2 (speedup_vs ~sa math)) ],
        Fmt.str
          "hpwl %6.1f | math %5.2fs x%4.1f hpwl %6.1f (gp %.2fs ilp %.2fs, \
           %d/%d windows, %d nodes)"
          sa.hpwl math.s (speedup_vs ~sa math) math.hpwl st.M.gp_s ilp_s
          accepts windows st.M.ilp_nodes ))
