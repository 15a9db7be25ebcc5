(* End-to-end tests for the analytical placers: legality on every
   benchmark circuit, determinism, parameter behaviours, and the DP
   building blocks (separation planning invariants). *)

module SPl = Place_common.Sep_plan

let placer_tests =
  [
    Alcotest.test_case "eplace-a output is legal on every testcase" `Slow
      (fun () ->
        List.iter
          (fun name ->
            let c = Circuits.Testcases.get_exn name in
            let params =
              { Eplace.Eplace_a.default_params with
                Eplace.Eplace_a.restarts = 1; dp_passes = 1 }
            in
            match Eplace.Eplace_a.place ~params c with
            | None -> Alcotest.failf "%s: infeasible" name
            | Some r ->
                match Netlist.Checks.all r.Eplace.Eplace_a.layout with
                | [] -> ()
                | first :: _ as viol ->
                    Alcotest.failf "%s: %d violations (%a ...)" name
                      (List.length viol) Netlist.Checks.pp_violation first)
          Circuits.Testcases.all_names);
    Alcotest.test_case "prev[11] output is legal on every testcase" `Slow
      (fun () ->
        List.iter
          (fun name ->
            let c = Circuits.Testcases.get_exn name in
            let params =
              { Prevwork.Prev_analytical.default_params with
                Prevwork.Prev_analytical.restarts = 1; passes = 1 }
            in
            match Prevwork.Prev_analytical.place ~params c with
            | None -> Alcotest.failf "%s: infeasible" name
            | Some r ->
                match Netlist.Checks.all r.Prevwork.Prev_analytical.layout with
                | [] -> ()
                | viol ->
                    Alcotest.failf "%s: %d violations" name
                      (List.length viol))
          Circuits.Testcases.all_names);
    Alcotest.test_case "eplace-a is deterministic" `Quick (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let params =
          { Eplace.Eplace_a.default_params with
            Eplace.Eplace_a.restarts = 1; dp_passes = 1 }
        in
        match (Eplace.Eplace_a.place ~params c, Eplace.Eplace_a.place ~params c)
        with
        | Some a, Some b ->
            Alcotest.(check (float 1e-9)) "area"
              (Netlist.Layout.area a.Eplace.Eplace_a.layout)
              (Netlist.Layout.area b.Eplace.Eplace_a.layout)
        | _ -> Alcotest.fail "placement failed");
    Alcotest.test_case "gp overflow decreases towards threshold" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let r = Eplace.Global_place.run c in
        Alcotest.(check bool) "converged reasonably" true
          (r.Eplace.Global_place.final_overflow < 0.25));
    Alcotest.test_case "hard symmetry costs area or wirelength" `Slow
      (fun () ->
        (* the paper's Table I claim, checked as a weak inequality on
           the product to tolerate run-to-run noise *)
        let c = Circuits.Testcases.get_exn "Comp2" in
        let run mode =
          let params =
            { Eplace.Eplace_a.default_params with
              Eplace.Eplace_a.restarts = 2;
              gp = { Eplace.Gp_params.default with Eplace.Gp_params.sym_mode = mode } }
          in
          match Eplace.Eplace_a.place ~params c with
          | Some r ->
              Netlist.Layout.area r.Eplace.Eplace_a.layout
              *. Netlist.Layout.hpwl r.Eplace.Eplace_a.layout
          | None -> infinity
        in
        Alcotest.(check bool) "soft <= hard * 1.05" true
          (run Eplace.Gp_params.Soft <= 1.05 *. run Eplace.Gp_params.Hard));
    Alcotest.test_case "flipping does not hurt wirelength" `Quick (fun () ->
        let c = Circuits.Testcases.get_exn "Comp1" in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        let run flip =
          let params = { Eplace.Dp_ilp.default_params with Eplace.Dp_ilp.flip } in
          match Eplace.Dp_ilp.run ~params c ~gp with
          | Some r -> Netlist.Layout.hpwl r.Eplace.Dp_ilp.layout
          | None -> infinity
        in
        Alcotest.(check bool) "flip <= no-flip" true
          (run Eplace.Dp_ilp.Flip_round <= run Eplace.Dp_ilp.Flip_off +. 1e-6));
  ]

let sep_plan_tests =
  [
    Alcotest.test_case "every pair separated exactly once (all_pairs)" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "CM-OTA1" in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        let seps = SPl.plan c ~gp ~all_pairs:true in
        let n = Netlist.Circuit.n_devices c in
        (* after transitive reduction each pair has AT MOST one direct
           separation, and connectivity of the constraint graph along
           with cross-axis equalities guarantees pairwise legality; here
           we check no duplicates *)
        let seen = Hashtbl.create 64 in
        List.iter
          (fun (s : SPl.sep) ->
            let key = (min s.SPl.lo s.SPl.hi, max s.SPl.lo s.SPl.hi) in
            if Hashtbl.mem seen key then
              Alcotest.failf "pair (%d,%d) separated twice" s.SPl.lo s.SPl.hi;
            Hashtbl.add seen key ())
          seps;
        Alcotest.(check bool) "nonempty" true (List.length seps > 0);
        Alcotest.(check bool) "not quadratic (reduced)" true
          (List.length seps < n * (n - 1) / 2));
    Alcotest.test_case "separation graph is acyclic per axis" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "Comp2" in
        let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
        let seps = SPl.plan c ~gp ~all_pairs:true in
        let n = Netlist.Circuit.n_devices c in
        let check axis =
          let adj = Array.make n [] in
          List.iter
            (fun (s : SPl.sep) ->
              if s.SPl.along = axis then adj.(s.SPl.lo) <- s.SPl.hi :: adj.(s.SPl.lo))
            seps;
          let state = Array.make n 0 in
          let rec dfs v =
            if state.(v) = 1 then Alcotest.fail "cycle in separation graph";
            if state.(v) = 0 then begin
              state.(v) <- 1;
              List.iter dfs adj.(v);
              state.(v) <- 2
            end
          in
          for v = 0 to n - 1 do
            dfs v
          done
        in
        check SPl.X_axis;
        check SPl.Y_axis);
  ]

let circuits_tests =
  [
    Alcotest.test_case "all testcases validate and have dozens of devices"
      `Quick (fun () ->
        List.iter
          (fun name ->
            let c = Circuits.Testcases.get_exn name in
            let n = Netlist.Circuit.n_devices c in
            if n < 10 || n > 60 then
              Alcotest.failf "%s has %d devices" name n;
            Alcotest.(check bool) "has nets" true (Netlist.Circuit.n_nets c > 5);
            Alcotest.(check bool) "has symmetry" true
              (c.Netlist.Circuit.constraints.Netlist.Constraint_set.sym_groups
               <> []))
          Circuits.Testcases.all_names);
    Alcotest.test_case "registry names round-trip" `Quick (fun () ->
        List.iter
          (fun name ->
            let c = Circuits.Testcases.get_exn name in
            Alcotest.(check string) "name" name c.Netlist.Circuit.name)
          Circuits.Testcases.all_names);
    Alcotest.test_case "unknown circuit: get is None, get_exn raises" `Quick
      (fun () ->
        Alcotest.(check bool) "get None" true
          (Option.is_none (Circuits.Testcases.get "nope"));
        Alcotest.(check bool) "get Some" true
          (Option.is_some (Circuits.Testcases.get "CC-OTA"));
        let raised =
          try
            ignore (Circuits.Testcases.get_exn "nope");
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "raises" true raised);
    Alcotest.test_case "every testcase has perf meta for its class" `Quick
      (fun () ->
        List.iter
          (fun name ->
            let c = Circuits.Testcases.get_exn name in
            (* evaluating any layout exercises every meta key the class
               model reads; missing keys raise *)
            let l = Netlist.Layout.create c in
            let islands = Annealing.Island.decompose c in
            let x = ref 0.0 in
            List.iter
              (fun (isl : Annealing.Island.t) ->
                Array.iteri
                  (fun i d ->
                    Netlist.Layout.set l d
                      ~x:(!x +. isl.Annealing.Island.dx.(i))
                      ~y:isl.Annealing.Island.dy.(i))
                  isl.Annealing.Island.devs;
                x := !x +. isl.Annealing.Island.w)
              islands;
            ignore (Perfsim.Fom.evaluate l))
          Circuits.Testcases.all_names);
  ]

let suites =
  [
    ("placers.end_to_end", placer_tests);
    ("placers.sep_plan", sep_plan_tests);
    ("circuits", circuits_tests);
  ]

(* appended: the Scaled-<n> size axis *)
let scaling_tests =
  [
    Alcotest.test_case "scaled rounds up to whole 12-device cells" `Quick
      (fun () ->
        List.iter
          (fun n ->
            Alcotest.(check int)
              (Fmt.str "Scaled-%d" n)
              (12 * ((n + 11) / 12))
              (Netlist.Circuit.n_devices (Circuits.Testcases.scaled ~devices:n)))
          [ 1; 12; 13; 40; 48; 120 ]);
    Alcotest.test_case "scaled-48 is placed legally by eplace-a" `Slow
      (fun () ->
        let c = Circuits.Testcases.get_exn "Scaled-48" in
        let params =
          { Eplace.Eplace_a.default_params with Eplace.Eplace_a.restarts = 1 }
        in
        match Eplace.Eplace_a.place ~params c with
        | None -> Alcotest.fail "infeasible"
        | Some r ->
            Alcotest.(check bool) "legal" true
              (Netlist.Checks.is_legal r.Eplace.Eplace_a.layout));
  ]

let suites = suites @ [ ("placers.scaling", scaling_tests) ]
