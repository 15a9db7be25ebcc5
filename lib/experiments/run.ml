(* One function per table and figure of the paper's evaluation. Each
   returns a renderable table (plus the raw numbers where the benches
   need them). The [quick] configuration trims budgets for smoke runs;
   the defaults reproduce the full experiments. *)

module TF = Table_fmt

type cfg = {
  quick : bool;
  sa_moves : int;
  sa_perf_moves : int;
  restarts : int;
  alpha : float;  (* Eq. 5 weight for the analytical perf term *)
  sa_alpha : float;
  check_eval : int;  (* SA: cross-check incremental cost every N evals *)
}

let default_cfg =
  { quick = false; sa_moves = Methods.sa_default_moves;
    sa_perf_moves = 120_000; restarts = 5; alpha = 60.0; sa_alpha = 2.0;
    check_eval = 0 }

let quick_cfg =
  { quick = true; sa_moves = 40_000; sa_perf_moves = 15_000; restarts = 2;
    alpha = 60.0; sa_alpha = 2.0; check_eval = 0 }

let area_hpwl l = (Netlist.Layout.area l, Netlist.Layout.hpwl l)

let eplace_params cfg =
  { Eplace.Eplace_a.default_params with Eplace.Eplace_a.restarts = cfg.restarts }

let prev_params cfg =
  { Prevwork.Prev_analytical.default_params with
    Prevwork.Prev_analytical.restarts = cfg.restarts }

(* Single construction point from the typed placer selector: every
   table derives a serializable [Methods.spec] from its [cfg] — the
   same spec value the CLI and the placement service build runs from —
   and realises it with [Methods.of_spec]. *)
let spec_of_kind cfg ?(perf = false) (k : Methods.kind) =
  let s = Methods.default_spec ~perf k in
  match k with
  | Methods.Sa ->
      { s with
        Methods.moves = (if perf then cfg.sa_perf_moves else cfg.sa_moves);
        alpha = cfg.sa_alpha;
        check_every = cfg.check_eval;
        quick = cfg.quick }
  | Methods.Template | Methods.Matheuristic ->
      { s with
        Methods.moves =
          (if perf then cfg.sa_perf_moves
           else Methods.discounted_moves cfg.sa_moves);
        alpha = cfg.sa_alpha;
        check_every = cfg.check_eval;
        quick = cfg.quick }
  | Methods.Prev | Methods.Eplace ->
      { s with
        Methods.restarts = cfg.restarts;
        alpha = cfg.alpha;
        quick = cfg.quick }

let method_of_kind cfg ?perf k = Methods.of_spec (spec_of_kind cfg ?perf k)

(* ePlace-A straight from an engine parameter record: (area, HPWL,
   runtime), or nans when it produced no layout. *)
let eplace_run params c =
  match Eplace.Eplace_a.place ~params c with
  | Some r ->
      let a, w = area_hpwl r.Eplace.Eplace_a.layout in
      (a, w, r.Eplace.Eplace_a.runtime_s)
  | None -> (nan, nan, nan)

(* ---------- Table I: soft vs hard symmetry in GP ---------- *)

let table1 cfg =
  let circuits = [ "CC-OTA"; "Comp2"; "VCO2" ] in
  let run_mode name mode =
    let c = Circuits.Testcases.get_exn name in
    let params = eplace_params cfg in
    let params =
      { params with
        Eplace.Eplace_a.gp =
          { params.Eplace.Eplace_a.gp with Eplace.Gp_params.sym_mode = mode } }
    in
    eplace_run params c
  in
  let rows =
    List.map
      (fun name ->
        let sa, sw, st = run_mode name Eplace.Gp_params.Soft in
        let ha, hw, ht = run_mode name Eplace.Gp_params.Hard in
        [ name; TF.f1 sa; TF.f1 ha; TF.f1 sw; TF.f1 hw; TF.f2 st; TF.f2 ht ])
      circuits
  in
  {
    TF.header =
      [ "Design"; "Area soft"; "Area hard"; "HPWL soft"; "HPWL hard";
        "t soft"; "t hard" ];
    rows;
  }

(* ---------- Fig. 2: area-term ablation ---------- *)

let fig2 cfg =
  ignore cfg;
  let circuits = [ "CC-OTA"; "Comp2"; "CM-OTA1"; "VCO2" ] in
  (* single-seed ablation, averaged over seeds: restart selection would
     mask the objective change by shopping for lucky seeds *)
  let seeds = [ 1; 2; 3 ] in
  let run_eta name eta seed =
    let c = Circuits.Testcases.get_exn name in
    let params =
      { Eplace.Eplace_a.default_params with
        Eplace.Eplace_a.restarts = 1;
        gp = { Eplace.Gp_params.default with Eplace.Gp_params.eta; seed } }
    in
    let a, w, _ = eplace_run params c in
    (a, w)
  in
  let avg_eta name eta =
    let pts = List.map (run_eta name eta) seeds in
    let n = float_of_int (List.length pts) in
    ( List.fold_left (fun acc (a, _) -> acc +. a) 0.0 pts /. n,
      List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pts /. n )
  in
  let data =
    List.map
      (fun name ->
        let wa, ww = avg_eta name Eplace.Gp_params.default.Eplace.Gp_params.eta in
        let na, nw = avg_eta name 0.0 in
        (name, wa, ww, na, nw))
      circuits
  in
  let rows =
    List.map
      (fun (name, wa, ww, na, nw) ->
        [ name; TF.f1 wa; TF.f1 na;
          Fmt.str "%+.0f%%" (100.0 *. ((na /. wa) -. 1.0));
          TF.f1 ww; TF.f1 nw;
          Fmt.str "%+.0f%%" (100.0 *. ((nw /. ww) -. 1.0)) ])
      data
  in
  let avg f =
    let ratios = List.map f data in
    100.0 *. (TF.geo_mean_ratio ratios -. 1.0)
  in
  let rows =
    rows
    @ [ [ "Avg."; ""; ""; Fmt.str "%+.0f%%" (avg (fun (_, wa, _, na, _) -> (na, wa)));
          ""; ""; Fmt.str "%+.0f%%" (avg (fun (_, _, ww, _, nw) -> (nw, ww))) ] ]
  in
  {
    TF.header =
      [ "Design"; "Area with"; "Area w/o"; "dArea"; "HPWL with"; "HPWL w/o";
        "dHPWL" ];
    rows;
  }

(* ---------- Table III: main conventional comparison ---------- *)

type method_row = {
  design : string;
  area : float;
  hpwl : float;
  runtime : float;
  gp_s : float;  (* phase breakdown from the run's telemetry *)
  dp_s : float;
  violations : int;  (* Netlist.Checks.all on the layout; 0 when none *)
  error : string option;  (* why this design produced no layout *)
}

(* The per-table hot fan-out: one independent placement per circuit,
   spread over the default pool. Area/HPWL columns are deterministic
   for a fixed seed whatever the worker count (see Pool's determinism
   contract); only the runtime columns vary with scheduling.

   A failed design's row carries the reason and nan columns, an
   illegal layout's row its violation count. Both are reported on
   stderr at the join (after the fan-out, in task order, so the log
   output is deterministic whatever the worker count). *)
let run_method (m : Methods.t) names =
  let results =
    Pool.map_list (Pool.default ())
      (fun design ->
        let c = Circuits.Testcases.get_exn design in
        match m.Methods.run c with
        | Some o ->
            let area, hpwl = area_hpwl o.Methods.layout in
            let s = o.Methods.stats in
            let vs = Netlist.Checks.all o.Methods.layout in
            ( { design; area; hpwl; runtime = o.Methods.runtime_s;
                gp_s = s.Methods.gp_s; dp_s = s.Methods.dp_s;
                violations = List.length vs;
                error = None },
              vs )
        | None ->
            ( { design; area = nan; hpwl = nan; runtime = nan; gp_s = nan;
                dp_s = nan; violations = 0;
                error =
                  Some
                    "placer returned no layout (infeasible constraints or \
                     failed legalisation)" },
              [] ))
      names
  in
  List.iter
    (fun (r, vs) ->
      match r.error with
      | Some why ->
          Fmt.epr "[run] %s failed on %s: %s@." m.Methods.method_name
            r.design why
      | None ->
          if r.violations > 0 then
            Fmt.epr "[run] %s left %d violation(s) on %s: %a@."
              m.Methods.method_name r.violations r.design
              Fmt.(list ~sep:(any ", ") Netlist.Checks.pp_violation)
              vs)
    results;
  List.map fst results

(* Stage-level runtime columns (GP / DP per method), derived from the
   same results as the area/HPWL/runtime tables, after one GNN column
   per circuit when [gnn] gives its training times; EXPERIMENTS.md
   reports these next to the paper's aggregate runtime ratios. *)
let phase_table ?gnn method_names (results : method_row list list) =
  let header =
    "Design"
    :: (if Option.is_some gnn then [ "GNN" ] else [])
    @ List.concat_map (fun m -> [ m ^ " GP"; m ^ " DP" ]) method_names
  in
  let rows =
    match results with
    | [] -> []
    | first :: _ ->
        List.mapi
          (fun i (r0 : method_row) ->
            r0.design
            :: (match gnn with Some ts -> [ TF.f2 (List.nth ts i) ] | None -> [])
            @ List.concat_map
                (fun rows ->
                  let r = List.nth rows i in
                  [ TF.f2 r.gp_s; TF.f2 r.dp_s ])
                results)
          first
  in
  { TF.header; rows }

(* Trains each circuit's GNN into [Gnn_setup]'s cache, with the key
   the perf-driven families fetch it by; returns each circuit's
   training wall time. One circuit at a time: training fans its own
   dataset out over the default pool. *)
let train_gnns cfg circuits =
  List.map
    (fun design ->
      let c = Circuits.Testcases.get_exn design in
      snd
        (Telemetry.Span.timed ~name:"gnn" (fun () ->
             ignore (Gnn_setup.get ~quick:cfg.quick c))))
    circuits

(* Tables III and VII and the size axis: every family on [circuits],
   conventional or performance-driven, with geometric-mean ratios
   against ePlace-A(P) and the per-phase runtime breakdown of the same
   runs. Performance-driven, every circuit's GNN is trained first and
   each family fetches that model, so the breakdown shows the training
   time once per circuit instead of under whichever family ran first.
   An illegal layout's area cell carries a trailing "!" (no extra
   column, so the table keeps its layout). *)
let comparison cfg ~perf labels circuits =
  let gnn = if perf then Some (train_gnns cfg circuits) else None in
  let methods = List.map (method_of_kind cfg ~perf) Methods.all in
  let results = List.map (fun m -> run_method m circuits) methods in
  let area_cell r = TF.f1 r.area ^ if r.violations > 0 then "!" else "" in
  let rows =
    List.mapi
      (fun i design ->
        design
        :: List.concat_map
             (fun rows ->
               let r = List.nth rows i in
               [ area_cell r; TF.f1 r.hpwl; TF.f2 r.runtime ])
             results)
      circuits
  in
  let ref_rows = List.nth results 2 in
  let ratio f rows =
    TF.f2
      (TF.geo_mean_ratio (List.map2 (fun r r0 -> (f r, f r0)) rows ref_rows))
  in
  let avg =
    "Avg.(X)"
    :: List.concat_map
         (fun rows ->
           [ ratio (fun r -> r.area) rows; ratio (fun r -> r.hpwl) rows;
             ratio (fun r -> r.runtime) rows ])
         results
  in
  ( {
      TF.header =
        "Design"
        :: List.concat_map (fun l -> [ l ^ " a"; l ^ " w"; l ^ " t" ]) labels;
      rows = rows @ [ avg ];
    },
    phase_table ?gnn labels results )

let conventional_labels = [ "SA"; "P11"; "eP"; "Tmpl"; "Math" ]

let table3 cfg =
  comparison cfg ~perf:false conventional_labels Circuits.Testcases.all_names

(* ---------- Table IV: detailed placement only, same GP ---------- *)

let table4 cfg =
  ignore cfg;
  let circuits = [ "VCO1"; "Comp1"; "SCF" ] in
  let rows =
    List.map
      (fun name ->
        let c = Circuits.Testcases.get_exn name in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        let prev_res = Prevwork.Lp_stages.run c ~gp in
        let ilp_res = Eplace.Dp_ilp.run c ~gp in
        match (prev_res, ilp_res) with
        | Some p, Some i ->
            let pa, pw = area_hpwl p.Prevwork.Lp_stages.layout in
            let ia, iw = area_hpwl i.Eplace.Dp_ilp.layout in
            [ name; TF.f1 pa; TF.f1 pw; TF.f2 p.Prevwork.Lp_stages.runtime_s;
              TF.f1 ia; TF.f1 iw; TF.f2 i.Eplace.Dp_ilp.runtime_s ]
        | _ -> [ name; "fail" ])
      circuits
  in
  {
    TF.header =
      [ "Design"; "P11 area"; "P11 hpwl"; "P11 t"; "ILP area"; "ILP hpwl";
        "ILP t" ];
    rows;
  }

(* ---------- Table V: FOM, conventional vs performance-driven ---------- *)

let fom_of (o : Methods.outcome option) =
  match o with
  | Some o -> Perfsim.Fom.fom o.Methods.layout
  | None -> nan

let table5 cfg =
  let methods =
    List.concat_map
      (fun k -> [ method_of_kind cfg k; method_of_kind cfg ~perf:true k ])
      Methods.all
  in
  let foms =
    List.map
      (fun design ->
        let c = Circuits.Testcases.get_exn design in
        (design, List.map (fun (m : Methods.t) -> fom_of (m.Methods.run c)) methods))
      Circuits.Testcases.all_names
  in
  let rows =
    List.map
      (fun (design, fs) -> design :: List.map TF.f2 fs)
      foms
  in
  let avg =
    "Avg."
    :: List.mapi
         (fun j _ ->
           let vals = List.map (fun (_, fs) -> List.nth fs j) foms in
           TF.f2 (List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)))
         methods
  in
  ( {
      TF.header =
        [ "Design"; "SA conv"; "SA perf"; "P11 conv"; "P11 perf*";
          "eP-A conv"; "eP-AP"; "Tmpl conv"; "Tmpl perf"; "Math conv";
          "Math perf" ];
      rows = rows @ [ avg ];
    },
    foms )

(* ---------- Table VI: CC-OTA detailed metrics ---------- *)

let table6 cfg =
  let c = Circuits.Testcases.get_exn "CC-OTA" in
  let conv = (method_of_kind cfg Methods.Eplace).Methods.run c in
  let perf = (method_of_kind cfg ~perf:true Methods.Eplace).Methods.run c in
  let eval o =
    match o with
    | Some (o : Methods.outcome) -> Some (Perfsim.Fom.evaluate o.Methods.layout)
    | None -> None
  in
  match (eval conv, eval perf) with
  | Some e1, Some e2 ->
      let metric_row (m1 : Perfsim.Spec.metric) (m2 : Perfsim.Spec.metric) =
        [ m1.Perfsim.Spec.metric_name;
          Fmt.str "%.4g" m1.Perfsim.Spec.spec;
          Fmt.str "%.4g (%.0f%%)" m1.Perfsim.Spec.value
            (100.0 *. Perfsim.Spec.normalized m1);
          Fmt.str "%.4g (%.0f%%)" m2.Perfsim.Spec.value
            (100.0 *. Perfsim.Spec.normalized m2) ]
      in
      {
        TF.header = [ "Metric"; "Spec"; "ePlace-A"; "ePlace-AP" ];
        rows =
          List.map2 metric_row e1.Perfsim.Fom.metrics e2.Perfsim.Fom.metrics
          @ [ [ "FOM"; ""; TF.f2 e1.Perfsim.Fom.fom; TF.f2 e2.Perfsim.Fom.fom ] ];
      }
  | _ -> { TF.header = [ "Metric" ]; rows = [ [ "placement failed" ] ] }

(* ---------- Table VII: perf-driven area/HPWL/runtime ---------- *)

let table7 cfg =
  comparison cfg ~perf:true
    [ "SAp"; "P11p"; "ePAP"; "Tmplp"; "Mathp" ]
    Circuits.Testcases.all_names

(* ---------- Fig. 5: HPWL-area tradeoff on CM-OTA1 ---------- *)

type point = { p_method : string; p_x : float; p_y : float }

let fig5 cfg =
  let name = "CM-OTA1" in
  let c = Circuits.Testcases.get_exn name in
  let points = ref [] in
  let push m x y = points := { p_method = m; p_x = x; p_y = y } :: !points in
  (* ePlace-A: sweep the area weight eta and the DP area weight mu *)
  let etas = if cfg.quick then [ 0.05; 0.3 ] else [ 0.03; 0.08; 0.15; 0.3; 0.6 ] in
  let mus = if cfg.quick then [ 0.35 ] else [ 0.15; 1.0 ] in
  List.iter
    (fun eta ->
      List.iter
        (fun mu ->
          let params = eplace_params cfg in
          let params =
            { params with
              Eplace.Eplace_a.gp =
                { params.Eplace.Eplace_a.gp with Eplace.Gp_params.eta };
              dp = { params.Eplace.Eplace_a.dp with Eplace.Dp_ilp.mu } }
          in
          let a, w, _ = eplace_run params c in
          if not (Float.is_nan a) then push "ePlace-A" a w)
        mus)
    etas;
  (* SA: sweep the cost weights *)
  let sa_weights =
    if cfg.quick then [ (1.0, 1.0); (0.4, 1.6) ]
    else [ (0.3, 1.7); (0.6, 1.4); (1.0, 1.0); (1.4, 0.6); (1.7, 0.3);
           (1.0, 2.0); (2.0, 1.0) ]
  in
  List.iter
    (fun (aw, ww) ->
      let m =
        Methods.of_spec
          { (spec_of_kind cfg Methods.Sa) with
            Methods.area_weight = aw; wl_weight = ww }
      in
      match m.Methods.run c with
      | Some o ->
          let a, w = area_hpwl o.Methods.layout in
          push "SA" a w
      | None -> ())
    sa_weights;
  (* prev [11]: sweep GP utilization and LSE gamma *)
  let utils = if cfg.quick then [ 0.6 ] else [ 0.45; 0.6; 0.75 ] in
  let gammas = if cfg.quick then [ 2.0; 4.0 ] else [ 1.0; 2.0; 4.0 ] in
  List.iter
    (fun utilization ->
      List.iter
        (fun gamma_factor ->
          let params = prev_params cfg in
          let params =
            { params with
              Prevwork.Prev_analytical.gp =
                { params.Prevwork.Prev_analytical.gp with
                  Prevwork.Ntu_gp.utilization; gamma_factor } }
          in
          match Prevwork.Prev_analytical.place ~params c with
          | Some r ->
              let a, w = area_hpwl r.Prevwork.Prev_analytical.layout in
              push "Prev[11]" a w
          | None -> ())
        gammas)
    utils;
  let pts = List.rev !points in
  ( {
      TF.header = [ "Method"; "Area(um2)"; "HPWL(um)" ];
      rows =
        List.map (fun p -> [ p.p_method; TF.f1 p.p_x; TF.f1 p.p_y ]) pts;
    },
    pts )

(* ---------- Fig. 6: FOM-area tradeoff on CM-OTA1 ---------- *)

let fig6 cfg =
  let c = Circuits.Testcases.get_exn "CM-OTA1" in
  let alphas = if cfg.quick then [ 0.0; 60.0 ] else [ 0.0; 15.0; 60.0; 150.0; 400.0 ] in
  let sa_alphas = if cfg.quick then [ 0.0; 2.0 ] else [ 0.0; 0.5; 2.0; 5.0; 10.0 ] in
  (* alpha 0 is the conventional method; the SA debug cross-check is off
     throughout *)
  let spec k alpha =
    let perf = not (Float.equal alpha 0.0) in
    let s = spec_of_kind cfg ~perf k in
    { s with
      Methods.alpha = (if perf then alpha else s.Methods.alpha);
      check_every = 0 }
  in
  let pts =
    List.concat_map
      (fun (label, k, alphas) ->
        List.filter_map
          (fun alpha ->
            Option.map
              (fun (o : Methods.outcome) ->
                { p_method = label;
                  p_x = Netlist.Layout.area o.Methods.layout;
                  p_y = Perfsim.Fom.fom o.Methods.layout })
              ((Methods.of_spec (spec k alpha)).Methods.run c))
          alphas)
      [ ("ePlace-AP", Methods.Eplace, alphas);
        ("Prev-perf*", Methods.Prev, alphas);
        ("SA-perf", Methods.Sa, sa_alphas) ]
  in
  ( {
      TF.header = [ "Method"; "Area(um2)"; "FOM" ];
      rows = List.map (fun p -> [ p.p_method; TF.f1 p.p_x; TF.f3 p.p_y ]) pts;
    },
    pts )

(* ---------- Ablations: the design choices DESIGN.md calls out ---------- *)

let ablations cfg =
  let circuits =
    if cfg.quick then [ "CC-OTA" ] else [ "CC-OTA"; "Comp2"; "VCO2" ]
  in
  let base = eplace_params cfg in
  let run name params = eplace_run params (Circuits.Testcases.get_exn name) in
  let variants =
    [
      ("baseline (WA,round,5x)", base);
      ( "LSE smoothing",
        { base with
          Eplace.Eplace_a.gp =
            { base.Eplace.Eplace_a.gp with
              Eplace.Gp_params.smoothing = Eplace.Gp_params.Lse } } );
      ( "no flipping",
        { base with
          Eplace.Eplace_a.dp =
            { base.Eplace.Eplace_a.dp with
              Eplace.Dp_ilp.flip = Eplace.Dp_ilp.Flip_off } } );
      ( "exact flip B&B",
        { base with
          Eplace.Eplace_a.dp =
            { base.Eplace.Eplace_a.dp with
              Eplace.Dp_ilp.flip = Eplace.Dp_ilp.Flip_exact } } );
      ("1 restart", { base with Eplace.Eplace_a.restarts = 1 });
      ( "16 bins",
        { base with
          Eplace.Eplace_a.gp =
            { base.Eplace.Eplace_a.gp with Eplace.Gp_params.bins = 16 } } );
      ( "64 bins",
        { base with
          Eplace.Eplace_a.gp =
            { base.Eplace.Eplace_a.gp with Eplace.Gp_params.bins = 64 } } );
      ("1 DP pass", { base with Eplace.Eplace_a.dp_passes = 1 });
      ( "WPE term on",
        { base with
          Eplace.Eplace_a.gp =
            { base.Eplace.Eplace_a.gp with Eplace.Gp_params.rho_wpe = 0.5 } } );
    ]
  in
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun (label, params) ->
            let a, w, t = run name params in
            [ name; label; TF.f1 a; TF.f1 w; TF.f2 t ])
          variants)
      circuits
  in
  {
    TF.header = [ "Design"; "Variant"; "Area(um2)"; "HPWL(um)"; "t(s)" ];
    rows;
  }

(* ---------- Scaling study: the five families on Scaled-<n> ----------
   The paper's core question is whether the analytical paradigm's
   digital-scale advantage matters at analog sizes; this runs Table
   III's comparison on the parametric Scaled-<n> chain past the
   paper's "dozens of devices". One analytical restart keeps the
   full axis, up to Scaled-240, to minutes. *)

let scaling cfg =
  let sizes = if cfg.quick then [ 12; 40 ] else [ 12; 40; 120; 240 ] in
  comparison { cfg with restarts = 1 } ~perf:false conventional_labels
    (List.map (Fmt.str "Scaled-%d") sizes)
