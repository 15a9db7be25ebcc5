(* Tests for the benchmark's own arithmetic. *)

module P = Pbstats

let close = Alcotest.float 1e-12

let test_rank_rule () =
  let xs = Array.init 200 float_of_int in
  (match P.percentile ~p:95.0 xs with
   | Some pc ->
       Alcotest.(check close) "p95 of 0..199" 189.0 pc.P.value;
       Alcotest.(check int) "ten beyond" 10 pc.P.beyond;
       Alcotest.(check bool) "reportable" true (P.reportable pc)
   | None -> Alcotest.fail "no percentile");
  (match P.percentile ~p:99.0 (Array.init 24 float_of_int) with
   | Some pc ->
       Alcotest.(check int) "p99 of 24 has none beyond" 0 pc.P.beyond;
       Alcotest.(check bool) "not reportable" false (P.reportable pc)
   | None -> Alcotest.fail "no percentile");
  (match P.percentile ~p:50.0 [| 3.0; 1.0; 2.0 |] with
   | Some pc -> Alcotest.(check close) "nearest-rank median" 2.0 pc.P.value
   | None -> Alcotest.fail "no percentile");
  Alcotest.(check bool) "empty" true (P.percentile ~p:50.0 [||] = None);
  let reportable_at ~p n =
    match P.percentile ~p (Array.init n float_of_int) with
    | Some pc -> P.reportable pc
    | None -> false
  in
  List.iter
    (fun (p, n) ->
      Alcotest.(check bool) (Printf.sprintf "p%g not at %d" p (n - 1)) false (reportable_at ~p (n - 1));
      Alcotest.(check bool) (Printf.sprintf "p%g at %d" p n) true (reportable_at ~p n))
    [ (50.0, 20); (95.0, 200); (99.0, 1000) ]

let test_median_by_item () =
  let passes = [ [| 3.0; 10.0 |]; [| 1.0; 30.0 |]; [| 2.0; 20.0 |]; [| 9.0; 40.0 |] ] in
  Alcotest.(check (array close)) "per item, over the passes" [| 2.5; 25.0 |]
    (P.median_by_item passes);
  Alcotest.(check (array close)) "one pass" [| 4.0 |] (P.median_by_item [ [| 4.0 |] ]);
  Alcotest.(check (array close)) "no passes" [||] (P.median_by_item [])

let test_normalise () =
  (* a pass during which the burst took twice its nominal time counts
     at half its measured times *)
  let scaled = P.normalise ~nominal:0.2 [ [| 1.0; 3.0 |]; [| 2.0; 6.0 |] ] [ 0.2; 0.4 ] in
  Alcotest.(check (list (array close))) "per pass" [ [| 1.0; 3.0 |]; [| 1.0; 3.0 |] ] scaled;
  Alcotest.(check (array close)) "then per item" [| 1.0; 3.0 |] (P.median_by_item scaled)

let test_geomean () =
  Alcotest.(check close) "geomean 1,4,16" 4.0 (P.geomean [| 1.0; 4.0; 16.0 |]);
  Alcotest.(check close) "geomean of one" 7.5 (P.geomean [| 7.5 |]);
  Alcotest.check_raises "zero" (Invalid_argument "Pbstats.geomean: non-positive sample")
    (fun () -> ignore (P.geomean [| 1.0; 0.0 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Pbstats.geomean: no samples")
    (fun () -> ignore (P.geomean [||]))

let test_failures () =
  let vs =
    [ P.Placed; P.No_layout; P.verdict_of_violations 0; P.verdict_of_violations 3;
      P.Error "raised"; P.Refused "deadline expired" ]
  in
  Alcotest.(check (pair int int)) "attempted, failed" (6, 4) (P.count_failures vs);
  Alcotest.(check bool) "0 violations is placed" false (P.is_failure (P.verdict_of_violations 0));
  Alcotest.(check (pair int int)) "none" (0, 0) (P.count_failures [])

let span id parent t0 t1 = { P.id; parent; group = 0; name = "s"; t0; t1 }

let test_self_time () =
  let root = span 0 None 0.0 10.0 in
  (* children overlap on [2, 4]; one sticks out past the parent *)
  let spans =
    [ root; span 1 (Some 0) 1.0 4.0; span 2 (Some 0) 2.0 5.0; span 3 (Some 0) 8.0 12.0;
      span 4 (Some 1) 1.0 2.0 ]
  in
  Alcotest.(check close) "root self" 4.0 (P.self_time spans root);
  Alcotest.(check close) "child self" 2.0 (P.self_time spans (List.nth spans 1));
  Alcotest.(check close) "leaf self" 1.0 (P.self_time spans (List.nth spans 4));
  Alcotest.(check close) "union" 4.0 (P.union_length [ (0.0, 2.0); (1.0, 3.0); (5.0, 6.0) ])

let test_nest () =
  let iv = [ (0.0, 10.0, "a"); (1.0, 2.0, "b"); (3.0, 9.0, "c"); (4.0, 5.0, "d"); (11.0, 12.0, "e") ] in
  Alcotest.(check (list (pair int (option int))))
    "parents" [ (0, None); (1, Some 0); (2, Some 0); (3, Some 2); (4, None) ] (P.nest iv)

let test_recorder () =
  let t = ref 0.0 in
  let clock () = t := !t +. 1.0; !t in
  let r = P.Recorder.create ~enabled:true ~clock in
  P.Recorder.with_ r "outer" (fun id ->
      P.Recorder.with_ r ~parent:id ~group:id "inner" (fun _ -> ()));
  let spans = P.Recorder.spans r in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let outer = List.find (fun s -> s.P.name = "outer") spans in
  Alcotest.(check close) "outer self excludes inner" 2.0 (P.self_time spans outer);
  let off = P.Recorder.create ~enabled:false ~clock in
  Alcotest.(check int) "disabled runs body" 5 (P.Recorder.with_ off "x" (fun _ -> 5));
  Alcotest.(check int) "disabled keeps nothing" 0 (List.length (P.Recorder.spans off))

let () =
  Alcotest.run "pbstats"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "percentile rank rule" `Quick test_rank_rule;
          Alcotest.test_case "median by item" `Quick test_median_by_item;
          Alcotest.test_case "reference scaling" `Quick test_normalise;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "fail counting" `Quick test_failures;
          Alcotest.test_case "self time with overlapping children" `Quick test_self_time;
          Alcotest.test_case "nesting by time" `Quick test_nest;
          Alcotest.test_case "span recorder" `Quick test_recorder;
        ] );
    ]
