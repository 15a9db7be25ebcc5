(* Tests for the experiment harness: table formatting, method wrappers
   and the GNN setup pipeline on reduced budgets. *)

module TF = Experiments.Table_fmt
module GS = Experiments.Gnn_setup
module Me = Experiments.Methods

let fmt_tests =
  [
    Alcotest.test_case "geo_mean_ratio of equal columns is 1" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "one" 1.0
          (TF.geo_mean_ratio [ (2.0, 2.0); (5.0, 5.0) ]));
    Alcotest.test_case "geo_mean_ratio of doubles is 2" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "two" 2.0
          (TF.geo_mean_ratio [ (2.0, 1.0); (8.0, 4.0) ]));
    Alcotest.test_case "geo_mean_ratio empty is 1" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "one" 1.0 (TF.geo_mean_ratio []));
    Alcotest.test_case "geo_mean_ratio skips a failed pair" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "two" 2.0
          (TF.geo_mean_ratio [ (2.0, 1.0); (nan, 1.0) ]));
    Alcotest.test_case "render handles ragged rows" `Quick (fun () ->
        let t =
          { TF.header = [ "a"; "b" ]; rows = [ [ "1" ]; [ "22"; "333"; "4" ] ] }
        in
        let s = Fmt.str "%a" TF.render t in
        Alcotest.(check bool) "renders" true (String.length s > 0));
  ]

let setup_tests =
  [
    Alcotest.test_case "layout generation produces legal-ish samples" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "Adder" in
        let sizes =
          { GS.n_random = 20; n_spread = 5; n_sa = 2; n_analytic = 0 }
        in
        let layouts = GS.generate_layouts ~sizes ~seed:3 c in
        Alcotest.(check int) "count" 27 (List.length layouts);
        (* random packings are overlap-free by construction *)
        List.iteri
          (fun i l ->
            if i < 20 && Netlist.Layout.total_overlap l > 1e-6 then
              Alcotest.failf "random packing %d overlaps" i)
          layouts);
    Alcotest.test_case "training produces a usable model" `Slow (fun () ->
        let c = Circuits.Testcases.get_exn "Adder" in
        let sizes =
          { GS.n_random = 60; n_spread = 20; n_sa = 8; n_analytic = 2 }
        in
        let t = GS.train_for ~sizes ~epochs:40 c in
        Alcotest.(check bool) "threshold sane" true
          (t.GS.threshold > 0.3 && t.GS.threshold <= 1.0);
        (* phi is a probability *)
        let l = List.hd (GS.generate_layouts ~sizes ~seed:9 c) in
        let p = GS.phi_of_layout t l in
        Alcotest.(check bool) "phi in (0,1)" true (p > 0.0 && p < 1.0));
    (* hammer the trained-model cache from 4 domains: every concurrent
       miss on one key must resolve to the same physically-equal value
       (the in-flight dedup trains once; waiters share the result) *)
    Alcotest.test_case "model cache is shared under parallel misses" `Slow
      (fun () ->
        let c = Circuits.Testcases.get_exn "Adder" in
        let sizes =
          { GS.n_random = 20; n_spread = 6; n_sa = 2; n_analytic = 0 }
        in
        let results =
          Pool.with_pool ~jobs:4 (fun pool ->
              Pool.map pool
                (* placer-lint: allow P1 hammering the memo cache from every task is the point of this test; Gnn_setup serialises all cache access behind its mutex *)
                (fun _ -> GS.get ~sizes ~epochs:8 c)
                (Array.init 8 Fun.id))
        in
        let first = results.(0) in
        Array.iteri
          (fun i t ->
            if not (t == first) then
              Alcotest.failf "caller %d got a distinct trained value" i)
          results);
    (* the model cache keys on circuit content: a different circuit
       under a cached circuit's name gets its own model, sized to its
       own devices *)
    Alcotest.test_case "model cache keys on content, not name" `Quick
      (fun () ->
        let sizes =
          { GS.n_random = 6; n_spread = 2; n_sa = 0; n_analytic = 0 }
        in
        let ota = Circuits.Testcases.get_exn "CC-OTA" in
        let vco =
          { (Circuits.Testcases.get_exn "VCO2") with
            Netlist.Circuit.name = "CC-OTA" }
        in
        let t_ota = GS.get ~sizes ~epochs:1 ota in
        let t_vco = GS.get ~sizes ~epochs:1 vco in
        Alcotest.(check bool) "distinct models" false (t_ota == t_vco);
        let l = List.hd (GS.generate_layouts ~sizes ~seed:5 vco) in
        let p = GS.phi_of_layout t_vco l in
        Alcotest.(check bool) "phi in [0,1]" true (p >= 0.0 && p <= 1.0));
  ]

let method_tests =
  [
    Alcotest.test_case "method wrappers run and produce legal layouts" `Slow
      (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        List.iter
          (fun (m : Me.t) ->
            match m.Me.run c with
            | Some o ->
                if not (Netlist.Checks.is_legal o.Me.layout) then
                  Alcotest.failf "%s produced an illegal layout"
                    m.Me.method_name
            | None -> Alcotest.failf "%s failed" m.Me.method_name)
          [ Me.of_spec { (Me.default_spec Me.Sa) with Me.moves = 5000 };
            Me.of_spec { (Me.default_spec Me.Prev) with Me.restarts = 1 };
            Me.of_spec { (Me.default_spec Me.Eplace) with Me.restarts = 1 } ]);
    Alcotest.test_case "quick fig2 ablation shows area-term benefit" `Slow
      (fun () ->
        (* the area term should not make things dramatically worse; the
           full bench asserts the paper's direction, here we just check
           the machinery runs end to end *)
        let t = Experiments.Run.fig2 Experiments.Run.quick_cfg in
        Alcotest.(check bool) "has rows" true (List.length t.TF.rows >= 4));
    Alcotest.test_case "run_method counts each row's violations" `Quick
      (fun () ->
        let violations spec design =
          match
            Experiments.Run.run_method (Me.of_spec spec) [ design ]
          with
          | [ r ] -> r.Experiments.Run.violations
          | _ -> Alcotest.fail "one row per design"
        in
        (* 100 moves cannot untangle Scaled-60's cross-cell order chain *)
        Alcotest.(check bool) "starved SA is illegal" true
          (violations
             { (Me.default_spec Me.Sa) with Me.moves = 100; restarts = 1 }
             "Scaled-60"
          > 0);
        Alcotest.(check int) "legal row" 0
          (violations { (Me.default_spec Me.Sa) with Me.moves = 5000 } "CC-OTA"));
  ]

let suites =
  [
    ("experiments.table_fmt", fmt_tests);
    ("experiments.gnn_setup", setup_tests);
    ("experiments.methods", method_tests);
  ]

(* appended: regression pins for the headline experiment shapes (quick
   budgets; the full bench asserts the paper-scale versions) *)
let shape_tests =
  [
    Alcotest.test_case "lse smoothing is worse than wa inside eplace-a"
      `Slow (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let run smoothing =
          let params =
            { Eplace.Eplace_a.default_params with
              Eplace.Eplace_a.restarts = 2;
              gp = { Eplace.Gp_params.default with Eplace.Gp_params.smoothing } }
          in
          match Eplace.Eplace_a.place ~params c with
          | Some r ->
              Netlist.Layout.area r.Eplace.Eplace_a.layout
              *. Netlist.Layout.hpwl r.Eplace.Eplace_a.layout
          | None -> infinity
        in
        Alcotest.(check bool) "wa <= lse * 1.02" true
          (run Eplace.Gp_params.Wa <= 1.02 *. run Eplace.Gp_params.Lse));
    Alcotest.test_case "analytical beats converged SA on hpwl (CC-OTA)"
      `Slow (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let sa = Me.of_spec { (Me.default_spec Me.Sa) with Me.moves = 150_000 } in
        let ep = Me.of_spec (Me.default_spec Me.Eplace) in
        match (sa.Me.run c, ep.Me.run c) with
        | Some s, Some e ->
            Alcotest.(check bool) "hpwl" true
              (Netlist.Layout.hpwl e.Me.layout
              <= Netlist.Layout.hpwl s.Me.layout)
        | _ -> Alcotest.fail "method failed");
  ]

let suites = suites @ [ ("experiments.shapes", shape_tests) ]
