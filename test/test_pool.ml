(* Domain pool: order preservation and reuse, exception settlement,
   telemetry merge at the join, and the headline determinism contract —
   parallel fan-outs reproduce serial runs bit-for-bit. *)

(* Restore the process-wide default pool after tests that resize it, so
   suite order cannot leak a jobs setting into other tests. *)
let with_default_jobs jobs f =
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default_jobs (Domain.recommended_domain_count ()))
    (fun () ->
      Pool.set_default_jobs jobs;
      f ())

let combinator_tests =
  [
    Alcotest.test_case "map preserves order across reuses" `Quick (fun () ->
        Pool.with_pool ~jobs:4 (fun p ->
            Alcotest.(check int) "jobs" 4 (Pool.jobs p);
            (* successive batches on one pool: workers repark and wake *)
            for round = 1 to 3 do
              let ys = Pool.map p (fun x -> (x * x) + round)
                  (Array.init 100 Fun.id) in
              Array.iteri
                (fun i y ->
                  Alcotest.(check int) "slot" ((i * i) + round) y)
                ys
            done;
            Alcotest.(check (list int)) "map_list" [ 2; 3; 4 ]
              (Pool.map_list p succ [ 1; 2; 3 ])));
    (* the first and last thunks of one batch each wait for the other
       to start, so the batch passes only if two domains run it at
       once; a wait that times out raises and fails the test instead
       of hanging it *)
    Alcotest.test_case "one batch runs on two domains at once" `Quick
      (fun () ->
        let batch p n =
          let started = Array.make n false in
          let await j =
            let deadline = Telemetry.now () +. 10.0 in
            while not started.(j) do
              if Telemetry.now () > deadline then
                Alcotest.failf "batch of %d: task %d never started" n j;
              Domain.cpu_relax ()
            done
          in
          Pool.run_all p
            (List.init n (fun i () ->
                 (* placer-lint: allow P2 each thunk writes only its own disjoint slot i, and run_all joins before started is read *)
                 started.(i) <- true;
                 if i = 0 then await (n - 1)
                 else if i = n - 1 then await 0));
          Alcotest.(check bool) "run_all ran every thunk" true
            (Array.for_all Fun.id started)
        in
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun p ->
                List.iter (batch p) [ 2; 3; 10; 100 ]))
          [ 2; 4 ]);
    Alcotest.test_case "empty and singleton batches" `Quick (fun () ->
        Pool.with_pool ~jobs:4 (fun p ->
            Alcotest.(check int) "empty" 0
              (Array.length (Pool.map p Fun.id [||]));
            Alcotest.(check (list int)) "singleton" [ 43 ]
              (Pool.map_list p succ [ 42 ])));
    Alcotest.test_case "jobs=1 pool runs inline" `Quick (fun () ->
        Pool.with_pool ~jobs:1 (fun p ->
            Alcotest.(check int) "clamped" 1 (Pool.jobs p);
            Alcotest.(check (list int)) "maps" [ 1; 4; 9 ]
              (Pool.map_list p (fun x -> x * x) [ 1; 2; 3 ])));
    Alcotest.test_case "shutdown is idempotent; map then runs inline"
      `Quick (fun () ->
        let p = Pool.create ~jobs:4 () in
        Pool.shutdown p;
        Pool.shutdown p;
        Alcotest.(check (list int)) "inline after shutdown" [ 2; 3 ]
          (Pool.map_list p succ [ 1; 2 ]));
  ]

let exception_tests =
  [
    Alcotest.test_case "lowest-index exception wins; pool survives"
      `Quick (fun () ->
        Pool.with_pool ~jobs:4 (fun p ->
            let raised =
              try
                ignore
                  (Pool.map p
                     (fun i ->
                       if i = 3 then failwith "boom 3";
                       if i = 5 then failwith "boom 5";
                       i)
                     (Array.init 8 Fun.id));
                None
              with Failure m -> Some m
            in
            (* both 3 and 5 always raise; the settle order is the task
               order, so the winner is schedule-independent *)
            Alcotest.(check (option string)) "deterministic winner"
              (Some "boom 3") raised;
            let ys = Pool.map p succ (Array.init 16 Fun.id) in
            Array.iteri
              (fun i y -> Alcotest.(check int) "reusable" (i + 1) y)
              ys));
  ]

let telemetry_tests =
  [
    Alcotest.test_case "worker telemetry merges into the caller" `Quick
      (fun () ->
        Telemetry.reset ();
        let c = Telemetry.Counter.make "pool.test.count" in
        let g = Telemetry.Gauge.make "pool.test.gauge" in
        Pool.with_pool ~jobs:4 (fun p ->
            ignore
              (Pool.map p
                 (fun i ->
                   Telemetry.Counter.add c i;
                   Telemetry.Gauge.set g (float_of_int i);
                   Telemetry.Span.with_ ~name:"pool.task" (fun () ->
                       ignore (Sys.opaque_identity (i * i)));
                   i)
                 (Array.init 8 Fun.id)));
        Alcotest.(check int) "counters sum" 28 (Telemetry.Counter.value c);
        (* snapshots merge in task order, so last-write-wins means the
           last task, not the last domain to finish *)
        Alcotest.(check (float 0.0)) "gauge from task order" 7.0
          (Telemetry.Gauge.value g);
        Alcotest.(check int) "spans collected" 8
          (Telemetry.span_count "pool.task"));
    Alcotest.test_case "nested map runs inline and still merges" `Quick
      (fun () ->
        Telemetry.reset ();
        let c = Telemetry.Counter.make "pool.nested.count" in
        Pool.with_pool ~jobs:4 (fun p ->
            let sums =
              Pool.map p
                (fun i ->
                  let inner =
                    Pool.map p
                      (fun j ->
                        Telemetry.Counter.incr c;
                        (10 * i) + j)
                      (Array.init 4 Fun.id)
                  in
                  Array.fold_left ( + ) 0 inner)
                (Array.init 4 Fun.id)
            in
            Array.iteri
              (fun i s ->
                Alcotest.(check int) "nested sum" ((40 * i) + 6) s)
              sums);
        Alcotest.(check int) "nested counters merged" 16
          (Telemetry.Counter.value c));
  ]

(* The acceptance criterion: the same seed gives bit-identical
   placements whether the fan-out runs on 1 domain or 4. *)
let determinism_tests =
  [
    Alcotest.test_case "sa restarts: parallel equals serial exactly"
      `Quick (fun () ->
        let c = Circuits.Testcases.get_exn "Comp1" in
        let params =
          { Annealing.Sa_placer.default_params with
            Annealing.Sa_placer.moves = 3_000; seed = 11; restarts = 3 }
        in
        let evals () =
          Telemetry.Counter.value (Telemetry.Counter.make "sa.evals")
        in
        let run jobs =
          with_default_jobs jobs (fun () ->
              Annealing.Sa_placer.place ~params c)
        in
        let e0 = evals () in
        let l1, c1 = run 1 in
        let e1 = evals () - e0 in
        let l4, c4 = run 4 in
        let e4 = evals () - e0 - e1 in
        Alcotest.(check bool) "xs identical" true
          (Array.for_all2 Float.equal l1.Netlist.Layout.xs
             l4.Netlist.Layout.xs);
        Alcotest.(check bool) "ys identical" true
          (Array.for_all2 Float.equal l1.Netlist.Layout.ys
             l4.Netlist.Layout.ys);
        Alcotest.(check (float 0.0)) "same best cost" c1 c4;
        Alcotest.(check int) "same eval count" e1 e4);
    Alcotest.test_case "run_method rows identical for jobs 1 and 4"
      `Quick (fun () ->
        let m =
          Experiments.Methods.(
            of_spec { (default_spec Eplace) with restarts = 1 })
        in
        let names = [ "Comp1"; "Comp2" ] in
        let run jobs =
          with_default_jobs jobs (fun () ->
              Experiments.Run.run_method m names)
        in
        let serial = run 1 and parallel = run 4 in
        List.iter2
          (fun (a : Experiments.Run.method_row)
               (b : Experiments.Run.method_row) ->
            Alcotest.(check string) "design" a.Experiments.Run.design
              b.Experiments.Run.design;
            (* area and HPWL columns must match exactly; the runtime
               columns are wall-clock and legitimately differ *)
            Alcotest.(check (float 0.0)) "area" a.Experiments.Run.area
              b.Experiments.Run.area;
            Alcotest.(check (float 0.0)) "hpwl" a.Experiments.Run.hpwl
              b.Experiments.Run.hpwl)
          serial parallel);
  ]

let suites =
  [
    ("pool.combinators", combinator_tests);
    ("pool.exceptions", exception_tests);
    ("pool.telemetry", telemetry_tests);
    ("pool.determinism", determinism_tests);
  ]
