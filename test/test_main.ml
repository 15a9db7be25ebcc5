let () =
  Alcotest.run "analog_place"
    (Test_telemetry.suites @ Test_pool.suites @ Test_geometry.suites @ Test_netlist.suites @ Test_numerics.suites
   @ Test_smoothing.suites @ Test_gnn.suites @ Test_perf.suites
   @ Test_annealing.suites @ Test_eval.suites @ Test_placers.suites @ Test_experiments.suites
   @ Test_properties.suites @ Test_io.suites @ Test_maze.suites @ Test_more.suites @ Test_dp_detail.suites
   @ Test_cache.suites @ Test_service.suites @ Test_templates.suites @ Test_matheuristic.suites
   @ Test_simplex_oracle.suites
   @ Test_anneal_pin.suites @ Test_analytical_pin.suites @ Test_lint.suites)
