(* The matheuristic stack, bottom up: the window ILP against a
   brute-force enumeration oracle, the Eval.set_order move, the
   accept-only-if-improved window gate, determinism of full runs, and
   the spec/params wiring of the Methods API. *)

module W = Matheuristic.Window_ilp
module Mh = Matheuristic.Mh_placer
module Rng = Numerics.Rng
module M = Experiments.Methods

let feq = Alcotest.float 1e-5

(* ---------- oracle: ILP vs enumeration of all orderings ---------- *)

let rec perms = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
        l

(* Random window: k items, a few 2-3 pin nets; [with_fixed] mixes in
   frozen pins of the surrounding placement. The frame is oversized so
   every ordering is feasible and the enumeration is total. *)
let random_inst rng k ~with_fixed =
  let items =
    Array.init k (fun _ ->
        {
          W.iw = 1.0 +. float_of_int (Rng.int rng 9);
          ih = 1.0 +. float_of_int (Rng.int rng 9);
        })
  in
  let sumw = Array.fold_left (fun a i -> a +. i.W.iw) 0.0 items in
  let sumh = Array.fold_left (fun a i -> a +. i.W.ih) 0.0 items in
  let frame = sumw +. sumh in
  let nets =
    List.init
      (1 + Rng.int rng 3)
      (fun _ ->
        let pins =
          List.init
            (2 + Rng.int rng 2)
            (fun _ ->
              if with_fixed && Rng.int rng 4 = 0 then
                {
                  W.p_item = None;
                  p_x = float_of_int (Rng.int rng 25);
                  p_y = float_of_int (Rng.int rng 25);
                }
              else
                let it = Rng.int rng k in
                {
                  W.p_item = Some it;
                  p_x = 0.5 *. items.(it).W.iw;
                  p_y = 0.5 *. items.(it).W.ih;
                })
        in
        { W.n_weight = 1.0 +. float_of_int (Rng.int rng 2); n_pins = pins })
  in
  { W.items; nets; frame_w = frame; frame_h = frame; area_lambda = 0.1 }

let brute_force_min inst =
  let k = Array.length inst.W.items in
  let orders =
    List.map Array.of_list (perms (List.init k Fun.id))
  in
  List.fold_left
    (fun acc pos ->
      List.fold_left
        (fun acc neg ->
          match W.lp_for_orders inst ~pos ~neg with
          | Some v -> Float.min acc v
          | None -> acc)
        acc orders)
    infinity orders

let check_instance inst =
  match W.solve ~node_budget:200_000 inst with
  | None -> Alcotest.fail "ILP returned no solution on a feasible window"
  | Some sol ->
      Alcotest.(check bool) "optimality proved in budget" true sol.W.sol_proved;
      let best = brute_force_min inst in
      Alcotest.check feq "ILP optimum equals enumerated optimum" best
        sol.W.sol_objective;
      (* and the returned orders actually achieve that objective *)
      (match W.lp_for_orders inst ~pos:sol.W.sol_pos ~neg:sol.W.sol_neg with
      | Some v ->
          Alcotest.check feq "returned orders price at the optimum" best v
      | None -> Alcotest.fail "returned orders are LP-infeasible")

let oracle_tests =
  [
    Alcotest.test_case "ILP matches brute force, k=2..4" `Quick (fun () ->
        let rng = Rng.create 42 in
        for k = 2 to 4 do
          for trial = 0 to 3 do
            check_instance (random_inst rng k ~with_fixed:(trial mod 2 = 1))
          done
        done);
    Alcotest.test_case "ILP matches brute force, k=5" `Slow (fun () ->
        let rng = Rng.create 7 in
        check_instance (random_inst rng 5 ~with_fixed:true));
    Alcotest.test_case "identical islands: ties broken deterministically"
      `Quick (fun () ->
        (* four identical squares sharing one centre-pin net: every
           ordering prices identically, so the branch-and-bound and its
           LP relaxations pivot through nothing but ties. The optimum
           must still match the oracle, and the order returned for the
           fully tied instance must be reproducible run to run. *)
        let items = Array.init 4 (fun _ -> { W.iw = 2.0; ih = 2.0 }) in
        let nets =
          [
            { W.n_weight = 1.0;
              n_pins =
                List.init 4 (fun it ->
                    { W.p_item = Some it; p_x = 1.0; p_y = 1.0 }) };
          ]
        in
        let inst =
          { W.items; nets; frame_w = 16.0; frame_h = 16.0; area_lambda = 0.1 }
        in
        check_instance inst;
        match (W.solve inst, W.solve inst) with
        | Some a, Some b ->
            Alcotest.(check (array int)) "tied pos order stable" a.W.sol_pos
              b.W.sol_pos;
            Alcotest.(check (array int)) "tied neg order stable" a.W.sol_neg
              b.W.sol_neg
        | _ -> Alcotest.fail "tied instance did not solve");
    Alcotest.test_case "solve is deterministic" `Quick (fun () ->
        let inst = random_inst (Rng.create 11) 4 ~with_fixed:true in
        match (W.solve inst, W.solve inst) with
        | Some a, Some b ->
            Alcotest.(check (array int)) "pos" a.W.sol_pos b.W.sol_pos;
            Alcotest.(check (array int)) "neg" a.W.sol_neg b.W.sol_neg;
            Alcotest.(check (float 0.0)) "objective" a.W.sol_objective
              b.W.sol_objective
        | _ -> Alcotest.fail "solve failed");
  ]

(* ---------- Eval.set_order: the window move's engine hook ---------- *)

let set_order_tests =
  [
    Alcotest.test_case "set_order + revert restores the cost bitwise" `Quick
      (fun () ->
        let module E = Annealing.Eval in
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let st = E.make_state (Rng.create 3) c in
        let obj =
          {
            E.area_weight = 1.0;
            wl_weight = 1.0;
            order_penalty = 40.0;
            perf = None;
            perf_alpha = 0.0;
          }
        in
        let eng = E.make obj st in
        let c0 = E.cost eng in
        let n = Array.length st.E.islands in
        let rev a = Array.init n (fun i -> a.(n - 1 - i)) in
        E.set_order eng
          ~pos:(rev st.E.sp.Annealing.Seqpair.pos)
          ~neg:(rev st.E.sp.Annealing.Seqpair.neg);
        let c1 = E.cost eng in
        (* a reversed sequence pair mirrors the floorplan: still a
           valid configuration the engine can price *)
        Alcotest.(check bool) "reordered cost is finite" true
          (Float.is_finite c1);
        E.revert eng;
        Alcotest.(check (float 0.0)) "cost restored exactly" c0 (E.cost eng);
        Alcotest.(check (float 0.0)) "matches a full recompute" (E.full_cost eng)
          (E.cost eng));
  ]

(* ---------- the accept gate and full-run determinism ---------- *)

let mh_quick_params =
  {
    Mh.default_params with
    Mh.sa =
      { Annealing.Sa_placer.default_params with
        Annealing.Sa_placer.moves = 20_000;
        restarts = 1 };
    cycles = 2;
    (* small windows have the most faithful surrogate: on CC-OTA this
       setting accepts most of its window proposals *)
    window = 3;
  }

let placer_tests =
  [
    Alcotest.test_case "accepted windows never raise the cost" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let windows = ref 0 and accepts = ref 0 in
        let on_window ~accepted ~before ~after =
          incr windows;
          if accepted then begin
            incr accepts;
            if after > before then
              Alcotest.failf
                "accepted window raised the cost: %.17g -> %.17g" before
                after
          end
        in
        let _layout, _cost = Mh.place ~params:mh_quick_params ~on_window c in
        Alcotest.(check bool) "some windows were solved" true (!windows > 0);
        (* the frame is the window's current bounding box, so the
           current ordering is always ILP-feasible and proposals hug
           the packed reality: this run accepts most of its windows *)
        Alcotest.(check bool) "some windows were accepted" true (!accepts > 0));
    Alcotest.test_case "placement is deterministic across runs" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let l1, c1 = Mh.place ~params:mh_quick_params c in
        let l2, c2 = Mh.place ~params:mh_quick_params c in
        Alcotest.(check (float 0.0)) "same cost" c1 c2;
        Alcotest.(check string) "same layout"
          (Netlist.Io.placement_to_string l1)
          (Netlist.Io.placement_to_string l2));
    Alcotest.test_case "walk_neg runs are deterministic and legal" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let params = { mh_quick_params with Mh.walk_neg = true } in
        let l1, c1 = Mh.place ~params c in
        let l2, c2 = Mh.place ~params c in
        Alcotest.(check (float 0.0)) "same cost" c1 c2;
        Alcotest.(check string) "same layout"
          (Netlist.Io.placement_to_string l1)
          (Netlist.Io.placement_to_string l2);
        (match Netlist.Checks.all l1 with
        | [] -> ()
        | viol ->
            Alcotest.failf "%d violations with walk_neg" (List.length viol));
        (* the extra sweep must double the windows solved per cycle on a
           circuit large enough to fit one window per order *)
        let count params =
          let n = ref 0 in
          let _ = Mh.place ~params ~on_window:(fun ~accepted:_ ~before:_ ~after:_ -> incr n) c in
          !n
        in
        Alcotest.(check bool) "walk_neg solves more windows" true
          (count params > count mh_quick_params));
    Alcotest.test_case "method runs via the spec and is legal" `Slow
      (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let spec =
          { (M.default_spec M.Matheuristic) with
            M.moves = 20_000;
            params =
              M.Mh_params
                { M.default_mh_params with
                  M.mh_window = 3; mh_node_budget = 200; mh_cycles = 2 } }
        in
        match (M.of_spec spec).M.run c with
        | None -> Alcotest.fail "matheuristic returned no layout"
        | Some o ->
            (match Netlist.Checks.all o.M.layout with
            | [] -> ()
            | viol ->
                Alcotest.failf "%d violations after matheuristic"
                  (List.length viol));
            Alcotest.(check bool) "window solves were counted" true
              (o.M.stats.M.ilp_nodes > 0));
    Alcotest.test_case "proved windows are counted" `Quick (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let count n = Telemetry.Counter.value (Telemetry.Counter.make n) in
        let counted params =
          let (windows, proved), _ =
            Telemetry.capture (fun () ->
                ignore (Mh.place ~params c);
                (count "mh.windows", count "mh.windows_proved"))
          in
          Alcotest.(check bool) "some windows were solved" true (windows > 0);
          if proved > windows then
            Alcotest.failf "mh.windows_proved %d > mh.windows %d" proved
              windows;
          proved
        in
        ignore (counted Mh.default_params);
        (* windows of 3 islands fit the default 50-node budget *)
        Alcotest.(check bool) "3-island windows are proved" true
          (counted { Mh.default_params with Mh.window = 3 } > 0));
  ]

(* ---------- spec / params wiring ---------- *)

let hash_of_string txt =
  match M.spec_of_string txt with
  | Ok s -> M.spec_hash s
  | Error e -> Alcotest.failf "spec %S rejected: %s" txt e

let spec_tests =
  [
    Alcotest.test_case "params round-trip through json" `Quick (fun () ->
        let s =
          { (M.default_spec M.Matheuristic) with
            M.params =
              M.Mh_params
                { M.default_mh_params with
                  M.mh_window = 6; mh_node_budget = 123; mh_cycles = 9 } }
        in
        match M.spec_of_json (M.spec_to_json s) with
        | Ok s' ->
            Alcotest.(check bool) "equal records" true (s = s');
            Alcotest.(check string) "equal hashes" (M.spec_hash s)
              (M.spec_hash s')
        | Error e -> Alcotest.failf "round-trip failed: %s" e);
    Alcotest.test_case "walk_neg serializes only when set" `Quick (fun () ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh
            && (String.equal (String.sub hay i nn) needle || go (i + 1))
          in
          go 0
        in
        (* default spec: no "walk_neg" key, so pre-existing canonical
           strings and result-cache hashes are untouched *)
        let d = M.default_spec M.Matheuristic in
        Alcotest.(check bool) "absent by default" false
          (contains (M.spec_canonical d) "walk_neg");
        let s =
          { d with
            M.params =
              M.Mh_params { M.default_mh_params with M.mh_walk_neg = true } }
        in
        Alcotest.(check bool) "present when set" true
          (contains (M.spec_canonical s) "\"walk_neg\":true");
        (match M.spec_of_json (M.spec_to_json s) with
        | Ok s' -> Alcotest.(check bool) "round-trips" true (s = s')
        | Error e -> Alcotest.failf "walk_neg round-trip failed: %s" e);
        (* an explicit false is legal input and canonicalizes to the
           default spelling (and hash) *)
        Alcotest.(check string) "explicit false is the default job"
          (M.spec_hash d)
          (hash_of_string
             {|{"kind":"matheuristic","params":{"walk_neg":false}}|});
        Alcotest.(check bool) "enabling the knob changes the hash" true
          (not (String.equal (M.spec_hash d) (M.spec_hash s)));
        match
          M.spec_of_string {|{"kind":"matheuristic","params":{"walk_neg":3}}|}
        with
        | Ok _ -> Alcotest.fail "non-boolean walk_neg should be rejected"
        | Error _ -> ());
    Alcotest.test_case "one canonical hash per equivalent job" `Quick
      (fun () ->
        let default_hash = M.spec_hash (M.default_spec M.Matheuristic) in
        (* bare kind, explicit default subfield, explicit version tag,
           and reordered fields all land on the same canonical hash *)
        Alcotest.(check string) "bare kind" default_hash
          (hash_of_string {|{"kind":"matheuristic"}|});
        Alcotest.(check string) "partial params" default_hash
          (hash_of_string {|{"kind":"matheuristic","params":{"window":4}}|});
        Alcotest.(check string) "explicit v" default_hash
          (hash_of_string {|{"params":{"v":1},"kind":"matheuristic"}|});
        Alcotest.(check string) "wrapper-built spec" default_hash
          (M.spec_hash
             { (M.default_spec M.Matheuristic) with
               M.params = M.Mh_params M.default_mh_params }));
    Alcotest.test_case "strictness and versioning errors" `Quick (fun () ->
        let expect_error txt =
          match M.spec_of_string txt with
          | Ok _ -> Alcotest.failf "spec %S should have been rejected" txt
          | Error _ -> ()
        in
        expect_error {|{"kind":"matheuristic","params":{"windw":4}}|};
        expect_error {|{"kind":"matheuristic","params":{"v":2}}|};
        expect_error {|{"kind":"sa","params":{"window":4}}|};
        expect_error {|{"kind":"matheuristic","params":3}|};
        match
          M.spec_of_string {|{"kind":"matheuristic","params":{"window":"4"}}|}
        with
        | Ok _ -> Alcotest.fail "string window accepted"
        | Error e ->
            (* the daemon returns this string to clients verbatim *)
            Alcotest.(check string) "message"
              {|params field "window": expected an integer|} e);
    Alcotest.test_case "non-matheuristic hashes carry no params field" `Quick
      (fun () ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh
            && (String.equal (String.sub hay i nn) needle || go (i + 1))
          in
          go 0
        in
        List.iter
          (fun k ->
            let canon = M.spec_canonical (M.default_spec k) in
            let has_params =
              match k with M.Matheuristic -> true | _ -> false
            in
            Alcotest.(check bool)
              (M.to_string k ^ " params presence")
              has_params
              (contains canon "\"params\""))
          M.all);
  ]

let suites =
  [
    ("matheuristic.oracle", oracle_tests);
    ("matheuristic.set_order", set_order_tests);
    ("matheuristic.placer", placer_tests);
    ("matheuristic.spec", spec_tests);
  ]
