(* Performance-driven placement end to end: train the GNN surrogate on
   labelled placements of CM-OTA1, then place with ePlace-AP and show
   the FOM movement against conventional ePlace-A (paper Sec. V).

     dune exec examples/perf_driven.exe
*)

let () =
  let circuit = Circuits.Testcases.get_exn "CM-OTA1" in
  Fmt.pr "circuit: %a@.@." Netlist.Circuit.pp circuit;

  (* 1. train the surrogate (dataset generation + training; cached) *)
  Fmt.pr "training the GNN performance model...@.";
  let trained = Experiments.Gnn_setup.get ~quick:true circuit in
  Fmt.pr "  %d samples, FOM threshold %.3f, train accuracy %.2f@.@."
    trained.Experiments.Gnn_setup.n_samples
    trained.Experiments.Gnn_setup.threshold
    trained.Experiments.Gnn_setup.train_stats.Gnn.Train.final_accuracy;

  (* 2. conventional baseline *)
  let module M = Experiments.Methods in
  (match (M.of_spec (M.default_spec M.Eplace)).M.run circuit with
  | Some o ->
      let e = Perfsim.Fom.evaluate o.Experiments.Methods.layout in
      Fmt.pr "ePlace-A  (conventional): FOM %.3f, area %.1f um^2@."
        e.Perfsim.Fom.fom
        (Netlist.Layout.area o.Experiments.Methods.layout)
  | None -> Fmt.epr "conventional placement failed@.");

  (* 3. performance-driven run *)
  (match
     (M.of_spec { (M.default_spec ~perf:true M.Eplace) with M.quick = true })
       .M.run circuit
   with
  | Some o ->
      let e = Perfsim.Fom.evaluate o.Experiments.Methods.layout in
      Fmt.pr "ePlace-AP (perf-driven) : FOM %.3f, area %.1f um^2@."
        e.Perfsim.Fom.fom
        (Netlist.Layout.area o.Experiments.Methods.layout);
      Fmt.pr "@.detailed metrics of the perf-driven layout:@.";
      List.iter
        (fun m -> Fmt.pr "  %a@." Perfsim.Spec.pp_metric m)
        e.Perfsim.Fom.metrics
  | None -> Fmt.epr "perf-driven placement failed@.")
