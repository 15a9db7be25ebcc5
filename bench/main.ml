(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (text output) and writes the BENCH_*.json
   benchmarks (Json_benches). Kernel timings come from perfbench.

   Usage:
     main.exe                 run all tables and figures (full budgets)
     main.exe --quick         trimmed budgets (smoke run)
     main.exe table3 fig5     run a subset
     main.exe --jobs N        domains for the parallel fan-outs
                              (default: Domain.recommended_domain_count)
     main.exe --check-eval N  SA debug: cross-check the incremental cost
                              engine every N evaluations (0 = off)
     main.exe sa-eval [MOVES] [OUT]
                              incremental vs full SA cost per move
                              (200000 moves, BENCH_sa_eval.json)
     main.exe templates [OUT] SA vs template composition, cold and warm
                              (BENCH_templates.json)
     main.exe matheuristic [OUT]
                              SA vs the matheuristic
                              (BENCH_matheuristic.json)
   The subcommands take --jobs and no other flag. Unknown flags,
   unknown experiments and malformed arguments exit 1 with a usage
   summary. *)

let say fmt = Fmt.pr fmt

let banner title paper_claim =
  say "@.============================================================@.";
  say "%s@." title;
  say "paper: %s@." paper_claim;
  say "============================================================@."

let run_table1 cfg =
  banner "Table I: soft vs hard symmetry constraints in GP"
    "hard symmetry increases both area and wirelength";
  Experiments.Table_fmt.render Fmt.stdout (Experiments.Run.table1 cfg)

let run_fig2 cfg =
  banner "Fig. 2: area term ablation"
    "dropping the area term costs >20% area and wirelength";
  Experiments.Table_fmt.render Fmt.stdout (Experiments.Run.fig2 cfg)

let run_comparison table phases cfg =
  let t, breakdown = table cfg in
  Experiments.Table_fmt.render Fmt.stdout t;
  say "@.per-phase runtime breakdown (s%s):@." phases;
  Experiments.Table_fmt.render Fmt.stdout breakdown

let run_table3 cfg =
  banner "Table III: conventional comparison (SA / prev [11] / ePlace-A)"
    "avg ratios vs ePlace-A: SA 1.11x area, 1.14x HPWL, 55x runtime; \
     [11] 1.25x area, 1.24x HPWL";
  run_comparison Experiments.Run.table3 "" cfg

let run_table4 cfg =
  banner "Table IV: detailed placement only, same GP input"
    "ILP DP beats the two-stage LP DP on wirelength (flipping)";
  Experiments.Table_fmt.render Fmt.stdout (Experiments.Run.table4 cfg)

let run_table5 cfg =
  banner "Table V: FOM, conventional vs performance-driven"
    "avg FOM 0.81 conventional; 0.87 SA-perf, 0.88 perf*, 0.90 ePlace-AP";
  let t, _ = Experiments.Run.table5 cfg in
  Experiments.Table_fmt.render Fmt.stdout t

let run_table6 cfg =
  banner "Table VI: CC-OTA detailed metrics"
    "ePlace-AP recovers UGF/BW at a small phase-margin cost";
  Experiments.Table_fmt.render Fmt.stdout (Experiments.Run.table6 cfg)

let run_table7 cfg =
  banner "Table VII: performance-driven area/HPWL/runtime"
    "avg ratios vs ePlace-AP: SA-perf 1.09x area, 3.09x runtime; \
     perf* 1.14x area, 1.13x HPWL";
  run_comparison Experiments.Run.table7 "; GNN = offline setup" cfg

let run_fig5 cfg =
  banner "Fig. 5: HPWL-area tradeoff points on CM-OTA1"
    "ePlace-A's points dominate toward the lower-left corner";
  let t, pts = Experiments.Run.fig5 cfg in
  Experiments.Table_fmt.render Fmt.stdout t;
  (* quick dominance summary *)
  let by m = List.filter (fun p -> p.Experiments.Run.p_method = m) pts in
  let pareto_wins name =
    let mine = by name in
    let others =
      List.filter (fun p -> p.Experiments.Run.p_method <> name) pts
    in
    List.length
      (List.filter
         (fun (o : Experiments.Run.point) ->
           List.exists
             (fun (p : Experiments.Run.point) ->
               p.Experiments.Run.p_x <= o.Experiments.Run.p_x
               && p.Experiments.Run.p_y <= o.Experiments.Run.p_y)
             mine)
         others)
  in
  say "points from other methods dominated by an ePlace-A point: %d / %d@."
    (pareto_wins "ePlace-A")
    (List.length pts - List.length (by "ePlace-A"))

let run_fig6 cfg =
  banner "Fig. 6: FOM-area tradeoff points on CM-OTA1"
    "best FOM-area tradeoffs come from ePlace-AP";
  let t, _ = Experiments.Run.fig6 cfg in
  Experiments.Table_fmt.render Fmt.stdout t

let run_ablations cfg =
  banner "Ablations: ePlace-A design choices (beyond the paper)"
    "WA vs LSE, flipping strategy, restarts, bins, DP passes";
  Experiments.Table_fmt.render Fmt.stdout (Experiments.Run.ablations cfg)

let run_scaling cfg =
  banner
    "Scaling: Table III's five families on Scaled-12/40/120/240 (--quick: \
     12/40), one analytical restart (beyond the paper)"
    "the analytical paradigm's advantage should widen with device count";
  run_comparison Experiments.Run.scaling "" cfg

let all_experiments =
  [ ("table1", run_table1); ("fig2", run_fig2); ("table3", run_table3);
    ("table4", run_table4); ("table5", run_table5); ("table6", run_table6);
    ("table7", run_table7); ("fig5", run_fig5); ("fig6", run_fig6);
    ("ablations", run_ablations); ("scaling", run_scaling) ]

let usage () =
  Fmt.epr
    "usage: main.exe [--quick] [--jobs N] [--check-eval N] [EXPERIMENT...]@.\
    \       main.exe [--jobs N] sa-eval [MOVES] [OUT]@.\
    \       main.exe [--jobs N] templates [OUT]@.\
    \       main.exe [--jobs N] matheuristic [OUT]@.\
     experiments:%a@."
    Fmt.(list ~sep:nop (any " " ++ string))
    (List.map fst all_experiments);
  exit 1

(* Remove "[flag] N" from [args], storing N (at least [min]) in [r]. *)
let rec take_int flag ~min r = function
  | f :: tl when String.equal f flag -> (
      match Option.bind (List.nth_opt tl 0) int_of_string_opt with
      | Some k when k >= min ->
          r := k;
          take_int flag ~min r (List.tl tl)
      | Some _ | None ->
          Fmt.epr "%s expects an integer >= %d@." flag min;
          usage ())
  | a :: tl -> a :: take_int flag ~min r tl
  | [] -> []

let () =
  let jobs = ref (Domain.recommended_domain_count ()) in
  let check_eval = ref 0 in
  (* consume the integer flags before the word scan so their values are
     not mistaken for experiment names *)
  let args =
    Array.to_list Sys.argv |> List.tl
    |> take_int "--jobs" ~min:1 jobs
    |> take_int "--check-eval" ~min:0 check_eval
  in
  Pool.set_default_jobs !jobs;
  let flags, words =
    List.partition (fun a -> String.length a > 1 && a.[0] = '-') args
  in
  List.iter
    (fun f ->
      if not (String.equal f "--quick") then begin
        Fmt.epr "unknown flag %s@." f;
        usage ()
      end)
    flags;
  let quick = List.mem "--quick" flags in
  (* a JSON benchmark takes no flag but --jobs *)
  let json_bench run =
    if quick || !check_eval <> 0 then usage () else run ()
  in
  let out name = function
    | [] -> "BENCH_" ^ name ^ ".json"
    | [ o ] -> o
    | _ -> usage ()
  in
  match words with
  | "sa-eval" :: rest ->
      let moves, rest =
        match rest with
        | [] -> (200_000, [])
        | m :: tl -> (
            match int_of_string_opt m with
            | Some k when k >= 1 -> (k, tl)
            | Some _ | None ->
                Fmt.epr "sa-eval: MOVES must be a positive integer@.";
                usage ())
      in
      let out = out "sa_eval" rest in
      json_bench (fun () -> Json_benches.sa_eval ~moves ~out)
  | "templates" :: rest ->
      let out = out "templates" rest in
      json_bench (fun () -> Json_benches.templates ~out)
  | "matheuristic" :: rest ->
      let out = out "matheuristic" rest in
      json_bench (fun () -> Json_benches.matheuristic ~out)
  | wanted ->
      let cfg =
        if quick then Experiments.Run.quick_cfg
        else Experiments.Run.default_cfg
      in
      let cfg = { cfg with Experiments.Run.check_eval = !check_eval } in
      let to_run =
        if wanted = [] then all_experiments
        else
          List.filter (fun (name, _) -> List.mem name wanted) all_experiments
      in
      List.iter
        (fun w ->
          if not (List.mem_assoc w all_experiments) then begin
            Fmt.epr "unknown experiment %s@." w;
            usage ()
          end)
        wanted;
      say "jobs: %d@." !jobs;
      let t0 = Telemetry.now () in
      List.iter (fun (_, f) -> f cfg) to_run;
      say "@.total wall time: %.1f s@." (Telemetry.now () -. t0)
