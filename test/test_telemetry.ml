(* Telemetry subsystem: span nesting, counter accumulation, the shape
   of the JSON-lines sink output, and non-interference — the default
   no-op sink must leave placer results byte-identical. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let span_tests =
  [
    Alcotest.test_case "spans nest and record their path" `Quick (fun () ->
        Telemetry.reset ();
        Telemetry.Span.with_ ~name:"outer" (fun () ->
            Telemetry.Span.with_ ~name:"inner" (fun () ->
                ignore (Sys.opaque_identity 1)));
        let spans = Telemetry.spans () in
        Alcotest.(check int) "two spans" 2 (List.length spans);
        let find n = List.find (fun s -> s.Telemetry.span_name = n) spans in
        Alcotest.(check (list string)) "inner path" [ "outer" ]
          (find "inner").Telemetry.path;
        Alcotest.(check (list string)) "outer path" []
          (find "outer").Telemetry.path;
        (* completion order: the inner span finishes first *)
        Alcotest.(check string) "order" "inner"
          (List.hd spans).Telemetry.span_name;
        Alcotest.(check bool) "outer encloses inner" true
          ((find "outer").Telemetry.dur_s >= (find "inner").Telemetry.dur_s));
    Alcotest.test_case "timed duration equals the recorded total" `Quick
      (fun () ->
        Telemetry.reset ();
        let (), dt =
          Telemetry.Span.timed ~name:"work" (fun () ->
              let acc = ref 0.0 in
              for i = 1 to 10_000 do
                acc := !acc +. sqrt (float_of_int i)
              done;
              ignore !acc)
        in
        Alcotest.(check int) "count" 1 (Telemetry.span_count "work");
        Alcotest.(check (float 1e-9)) "total" dt (Telemetry.span_total "work");
        Alcotest.(check (float 0.0)) "absent span" 0.0
          (Telemetry.span_total "nothing-ran"));
    Alcotest.test_case "a span is recorded even when the thunk raises"
      `Quick (fun () ->
        Telemetry.reset ();
        (try
           Telemetry.Span.with_ ~name:"boom" (fun () -> failwith "boom")
         with Failure _ -> ());
        Alcotest.(check int) "recorded" 1 (Telemetry.span_count "boom");
        (* the stack unwound: a following span is top-level again *)
        Telemetry.Span.with_ ~name:"after" (fun () -> ());
        let after =
          List.find
            (fun s -> s.Telemetry.span_name = "after")
            (Telemetry.spans ())
        in
        Alcotest.(check (list string)) "clean stack" [] after.Telemetry.path);
  ]

let counter_tests =
  [
    Alcotest.test_case "counters accumulate and reset" `Quick (fun () ->
        Telemetry.reset ();
        let c = Telemetry.Counter.make "test.counter" in
        Telemetry.Counter.incr c;
        Telemetry.Counter.add c 41;
        Alcotest.(check int) "value" 42 (Telemetry.Counter.value c);
        Alcotest.(check string) "name" "test.counter"
          (Telemetry.Counter.name c);
        (* handles are interned by name *)
        let c' = Telemetry.Counter.make "test.counter" in
        Telemetry.Counter.incr c';
        Alcotest.(check int) "interned" 43 (Telemetry.Counter.value c);
        Alcotest.(check bool) "listed" true
          (List.assoc_opt "test.counter" (Telemetry.counters ()) = Some 43);
        Telemetry.reset ();
        Alcotest.(check int) "reset to zero" 0 (Telemetry.Counter.value c));
    Alcotest.test_case "gauges are last-write-wins and reset to nan" `Quick
      (fun () ->
        Telemetry.reset ();
        let g = Telemetry.Gauge.make "test.gauge" in
        Telemetry.Gauge.set g 1.5;
        Telemetry.Gauge.set g 0.25;
        Alcotest.(check (float 0.0)) "value" 0.25 (Telemetry.Gauge.value g);
        Telemetry.reset ();
        Alcotest.(check bool) "nan after reset" true
          (Float.is_nan (Telemetry.Gauge.value g)));
  ]

let sink_tests =
  [
    Alcotest.test_case "jsonl sink emits one typed object per line" `Quick
      (fun () ->
        let file = Filename.temp_file "telemetry" ".jsonl" in
        let oc = open_out file in
        Telemetry.reset ();
        Telemetry.set_sink (Telemetry.jsonl oc);
        let c = Telemetry.Counter.make "j.count" in
        Telemetry.Counter.add c 3;
        Telemetry.Gauge.set (Telemetry.Gauge.make "j.gauge") 0.5;
        Telemetry.Span.with_ ~name:"gp" (fun () ->
            Telemetry.Span.with_ ~name:"dp \"axis\"" (fun () -> ()));
        Telemetry.flush ();
        Telemetry.set_sink Telemetry.noop;
        close_out oc;
        let ic = open_in file in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        close_in ic;
        Sys.remove file;
        let lines = List.rev !lines in
        List.iter
          (fun l ->
            let n = String.length l in
            Alcotest.(check bool) "braced object" true
              (n > 2 && l.[0] = '{' && l.[n - 1] = '}');
            Alcotest.(check bool) "typed" true
              (String.sub l 0 9 = "{\"type\":\""))
          lines;
        let spans =
          List.filter (fun l -> contains l "\"type\":\"span\"") lines
        in
        Alcotest.(check int) "span lines streamed" 2 (List.length spans);
        Alcotest.(check bool) "inner quoted name escaped" true
          (List.exists (fun l -> contains l "dp \\\"axis\\\"") spans);
        Alcotest.(check bool) "inner path" true
          (List.exists (fun l -> contains l "\"path\":[\"gp\"]") spans);
        Alcotest.(check bool) "counter line" true
          (List.exists
             (fun l ->
               contains l "\"type\":\"counter\""
               && contains l "\"j.count\"" && contains l "\"value\":3")
             lines);
        Alcotest.(check bool) "gauge line" true
          (List.exists
             (fun l ->
               contains l "\"type\":\"gauge\"" && contains l "\"j.gauge\"")
             lines));
    Alcotest.test_case "placer result is identical under any sink" `Quick
      (fun () ->
        let c = Circuits.Testcases.get_exn "Comp1" in
        let params =
          { Eplace.Eplace_a.default_params with
            Eplace.Eplace_a.restarts = 1; dp_passes = 1 }
        in
        let run () =
          match Eplace.Eplace_a.place ~params c with
          | Some r -> r.Eplace.Eplace_a.layout
          | None -> Alcotest.fail "infeasible"
        in
        let a = run () in
        let file = Filename.temp_file "telemetry" ".jsonl" in
        let oc = open_out file in
        Telemetry.set_sink (Telemetry.jsonl oc);
        let b = run () in
        Telemetry.set_sink Telemetry.noop;
        close_out oc;
        Sys.remove file;
        Alcotest.(check bool) "xs identical" true
          (Array.for_all2 Float.equal a.Netlist.Layout.xs
             b.Netlist.Layout.xs);
        Alcotest.(check bool) "ys identical" true
          (Array.for_all2 Float.equal a.Netlist.Layout.ys
             b.Netlist.Layout.ys));
  ]

let stats_tests =
  [
    Alcotest.test_case "method outcomes carry per-run telemetry stats"
      `Quick (fun () ->
        let c = Circuits.Testcases.get_exn "Comp1" in
        let m =
          Experiments.Methods.(
            of_spec { (default_spec Eplace) with restarts = 1 })
        in
        match m.Experiments.Methods.run c with
        | None -> Alcotest.fail "infeasible"
        | Some o ->
            let s = o.Experiments.Methods.stats in
            Alcotest.(check bool) "iterations counted" true
              (s.Experiments.Methods.iterations > 0);
            Alcotest.(check bool) "f-evals counted" true
              (s.Experiments.Methods.f_evals
               >= s.Experiments.Methods.iterations);
            Alcotest.(check bool) "gp time positive" true
              (s.Experiments.Methods.gp_s > 0.0);
            Alcotest.(check bool) "dp time positive" true
              (s.Experiments.Methods.dp_s > 0.0);
            Alcotest.(check bool) "no gnn phase" true
              (Float.equal s.Experiments.Methods.gnn_s 0.0);
            (* the acceptance criterion: phases sum to within 5% of the
               reported wall time *)
            let covered =
              s.Experiments.Methods.gp_s +. s.Experiments.Methods.dp_s
              +. s.Experiments.Methods.select_s
            in
            Alcotest.(check bool) "phases cover runtime" true
              (covered <= o.Experiments.Methods.runtime_s +. 1e-6
              && covered >= 0.95 *. o.Experiments.Methods.runtime_s));
    Alcotest.test_case "kind round-trips through strings" `Quick (fun () ->
        List.iter
          (fun k ->
            Alcotest.(check bool) "round-trip" true
              (Experiments.Methods.of_string (Experiments.Methods.to_string k)
              = Some k))
          Experiments.Methods.all;
        Alcotest.(check bool) "unknown" true
          (Experiments.Methods.of_string "vlsi" = None));
  ]

let suites =
  [
    ("telemetry.spans", span_tests);
    ("telemetry.counters", counter_tests);
    ("telemetry.sinks", sink_tests);
    ("telemetry.stats", stats_tests);
  ]
