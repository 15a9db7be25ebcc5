(* Tests for the incremental SA cost engine: the bit-equality contract
   between the O(n log n) packer and the quadratic reference, between
   the incremental cost and the from-scratch recomputation, and golden
   pins (captured on the pre-engine tree) guarding that the rewrite
   changed no observable number. *)

module SP = Annealing.Seqpair
module E = Annealing.Eval
module R = Numerics.Rng

let exact = Alcotest.float 0.0

let objective : E.objective =
  {
    E.area_weight = 1.0;
    wl_weight = 1.0;
    order_penalty = 40.0;
    perf = None;
    perf_alpha = 0.0;
  }

let pack_tests =
  [
    Alcotest.test_case "pack_into matches pack bit for bit" `Quick (fun () ->
        let rng = R.create 2024 in
        for _ = 1 to 300 do
          let n = 1 + R.int rng 24 in
          let sp = SP.random rng n in
          let widths = Array.init n (fun _ -> 0.25 +. R.float rng) in
          let heights = Array.init n (fun _ -> 0.25 +. R.float rng) in
          let xs_ref, ys_ref = SP.pack sp ~widths ~heights in
          let pk = SP.packer n in
          let xs = Array.make n nan and ys = Array.make n nan in
          SP.pack_into pk sp ~widths ~heights ~xs ~ys;
          for b = 0 to n - 1 do
            if Float.compare xs.(b) xs_ref.(b) <> 0 then
              Alcotest.failf "x(%d): %.17g <> %.17g (n=%d)" b xs.(b)
                xs_ref.(b) n;
            if Float.compare ys.(b) ys_ref.(b) <> 0 then
              Alcotest.failf "y(%d): %.17g <> %.17g (n=%d)" b ys.(b)
                ys_ref.(b) n
          done
        done);
    Alcotest.test_case "packer scratch is reusable" `Quick (fun () ->
        (* same packer across many shapes of the same size: no state
           leaks between calls *)
        let rng = R.create 7 in
        let n = 9 in
        let pk = SP.packer n in
        let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
        for _ = 1 to 100 do
          let sp = SP.random rng n in
          let widths = Array.init n (fun _ -> 0.5 +. R.float rng) in
          let heights = Array.init n (fun _ -> 0.5 +. R.float rng) in
          SP.pack_into pk sp ~widths ~heights ~xs ~ys;
          let xs_ref, ys_ref = SP.pack sp ~widths ~heights in
          Alcotest.(check (array (float 0.0))) "xs" xs_ref xs;
          Alcotest.(check (array (float 0.0))) "ys" ys_ref ys
        done);
  ]

(* Drive an engine through a random propose/accept/revert walk,
   cross-checking the incremental cost against the from-scratch path at
   every step. This is the property the [check_every] debug mode spot
   checks in production runs. *)
let walk ?(steps = 1000) name =
  let c = Circuits.Testcases.get_exn name in
  let rng = R.create 42 in
  let st = E.make_state rng c in
  let eng = E.make objective st in
  for step = 1 to steps do
    E.propose eng rng;
    let inc = E.cost eng in
    let full = E.full_cost eng in
    if Float.compare inc full <> 0 then
      Alcotest.failf "%s step %d: incremental %.17g <> full %.17g" name step
        inc full;
    if R.float rng < 0.5 then E.commit eng else E.revert eng
  done

let engine_tests =
  [
    Alcotest.test_case "incremental cost = full cost on 1k random walks"
      `Quick (fun () -> List.iter walk Circuits.Testcases.all_names);
    Alcotest.test_case "snapshot matches a fresh full evaluation" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "Comp1" in
        let rng = R.create 3 in
        let st = E.make_state rng c in
        let eng = E.make objective st in
        for _ = 1 to 200 do
          E.propose eng rng;
          ignore (E.cost eng : float);
          if R.float rng < 0.6 then E.commit eng else E.revert eng
        done;
        ignore (E.cost eng : float);
        let snap = E.snapshot eng in
        (* the arena the snapshot copies must agree with an independent
           from-scratch pack of the same sequence pair *)
        let xs, ys =
          SP.pack st.E.sp ~widths:st.E.widths ~heights:st.E.heights
        in
        let l = Netlist.Layout.create c in
        Array.iteri
          (fun b (isl : Annealing.Island.t) ->
            Array.iteri
              (fun i d ->
                Netlist.Layout.set l d
                  ~x:(xs.(b) +. isl.Annealing.Island.dx.(i))
                  ~y:(ys.(b) +. isl.Annealing.Island.dy.(i));
                Netlist.Layout.set_orient l d isl.Annealing.Island.orient.(i))
              isl.Annealing.Island.devs)
          st.E.islands;
        for d = 0 to Netlist.Layout.n_devices l - 1 do
          let pr = Netlist.Layout.center l d in
          let ps = Netlist.Layout.center snap d in
          Alcotest.check exact "x" pr.Geometry.Point.x ps.Geometry.Point.x;
          Alcotest.check exact "y" pr.Geometry.Point.y ps.Geometry.Point.y
        done);
    Alcotest.test_case "check_every=1 accepts its own arithmetic" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let rng = R.create 9 in
        let st = E.make_state rng c in
        let eng = E.make ~check_every:1 objective st in
        (* every cost call cross-checks; any divergence raises *)
        for _ = 1 to 300 do
          E.propose eng rng;
          ignore (E.cost eng : float);
          if R.float rng < 0.5 then E.commit eng else E.revert eng
        done);
  ]

(* Golden pins captured with %.17g on the pre-engine tree (quadratic
   pack, per-move realize, full HPWL). Zero tolerance: the engine must
   reproduce the historical trajectory bit for bit. *)

let spread_hpwl_goldens =
  [
    ("Adder", 776.16000000000008);
    ("CC-OTA", 659.0);
    ("Comp1", 1037.4750000000001);
    ("Comp2", 4443.2049999999999);
    ("CM-OTA1", 1167.9949999999999);
    ("CM-OTA2", 2317.6300000000001);
    ("SCF", 3437.8750000000005);
    ("VGA", 1733.5599999999997);
    ("VCO1", 1356.2419999999997);
    ("VCO2", 4628.8599999999988);
  ]

(* Deterministic non-trivial layout exercising weights, orientations
   and multi-pin nets; pins Layout.hpwl (including the weight-0 /
   degree<=1 skip) against captured values. *)
let spread_layout c =
  let l = Netlist.Layout.create c in
  for i = 0 to Netlist.Layout.n_devices l - 1 do
    let fi = float_of_int i in
    Netlist.Layout.set l i
      ~x:((fi *. 11.3) +. (fi *. fi *. 0.7))
      ~y:((float_of_int ((i * 13) mod 7) *. 2.9) +. (fi *. 1.1));
    if i mod 3 = 1 then
      Netlist.Layout.set_orient l i (Geometry.Orient.make ~fx:true ~fy:false)
  done;
  l

(* Exact SA trajectories at 3k moves, pinned per circuit. These depend
   on the island decomposition order (deterministic, device-ascending
   since the hash-order fix in Island.decompose) and on the incremental
   cost engine staying bit-identical to a full recompute; any change to
   either shows up here as a precise float mismatch. *)
let sa_goldens =
  [
    ("Adder", (25.84, 28.569999999999993, 1.2554492385189366));
    ("CC-OTA", (28.160000000000004, 25.050000000000001, 1.2270406984407591));
    ("Comp1", (26.520000000000003, 33.655000000000001, 1.266329317297564));
    ("Comp2", (59.359999999999992, 96.999999999999986, 1.2144533647094031));
    ("CM-OTA1", (37., 36.415000000000006, 1.2445508330268522));
    ("CM-OTA2", (76.859999999999985, 76.509999999999991, 1.3402049873297504));
    ("SCF", (1115.4400000000003, 322.06000000000012, 1.6582722270141614));
    ("VGA", (43.68, 53.069999999999993, 1.1399205857645791));
    ("VCO1", (311.85599999999999, 111.48000000000002, 2.0799433259041216));
    ("VCO2", (387.19999999999993, 230.12999999999994, 1.4327613233101706));
  ]

let golden_tests =
  [
    Alcotest.test_case "spread-layout HPWL matches captured values" `Quick
      (fun () ->
        List.iter
          (fun (name, expected) ->
            let c = Circuits.Testcases.get_exn name in
            let l = spread_layout c in
            Alcotest.check exact name expected (Netlist.Layout.hpwl l))
          spread_hpwl_goldens);
    Alcotest.test_case "sa layouts match pinned goldens" `Quick (fun () ->
        List.iter
          (fun (name, (area, hpwl, best_cost)) ->
            let c = Circuits.Testcases.get_exn name in
            let params =
              { Annealing.Sa_placer.default_params with
                Annealing.Sa_placer.moves = 3_000 }
            in
            let l, cost = Annealing.Sa_placer.place ~params c in
            Alcotest.check exact (name ^ " area") area (Netlist.Layout.area l);
            Alcotest.check exact (name ^ " hpwl") hpwl (Netlist.Layout.hpwl l);
            Alcotest.check exact (name ^ " cost") best_cost cost)
          sa_goldens);
    Alcotest.test_case "restarted sa matches pinned golden" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "Comp1" in
        let params =
          { Annealing.Sa_placer.default_params with
            Annealing.Sa_placer.moves = 3_000; seed = 11; restarts = 3 }
        in
        let l, cost = Annealing.Sa_placer.place ~params c in
        Alcotest.check exact "area" 22.800000000000001 (Netlist.Layout.area l);
        Alcotest.check exact "hpwl" 35.57 (Netlist.Layout.hpwl l);
        Alcotest.check exact "cost" 1.375147175540949 cost);
  ]

let suites =
  [
    ("eval.pack", pack_tests);
    ("eval.engine", engine_tests);
    ("eval.golden", golden_tests);
  ]
