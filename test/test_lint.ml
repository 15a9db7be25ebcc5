(* placer-lint self-tests: scan the compiled fixtures in
   test/lint_fixtures — one file of intentional violations per rule —
   and check that every rule fires where expected, stays quiet on
   clean code, and respects reasoned suppressions. The interprocedural
   pass is pinned the same way: P1/P2/R1 fixtures fire exactly once,
   the clean-parallel and SCC fixtures stay silent, and the SCC
   fixpoint summaries match the hand-derived lattice values. *)

(* under `dune runtest` the cwd is _build/default/test, so the fixture
   library's .cmt files sit right below and the workspace-root-relative
   source paths recorded in them resolve against ".."; under
   `dune exec` the cwd is the workspace root itself *)
let fixture_dir () =
  if Sys.file_exists "lint_fixtures" then ("..", "lint_fixtures")
  else (".", "_build/default/test/lint_fixtures")

(* the committed golden reports: copied next to the fixture .cmt files
   under `dune runtest`, read from the source tree under `dune exec` *)
let golden name =
  let dir =
    if Sys.file_exists "lint_fixtures" then "lint_fixtures"
    else "test/lint_fixtures"
  in
  In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all

let fixture_scan =
  lazy
    (let root, dir = fixture_dir () in
     Lint.analyze ~root [ dir ])

let findings () = (Lazy.force fixture_scan).Lint.r_findings

let in_file file (f : Lint.finding) = Filename.basename f.Lint.file = file

let count ~file ~rule fs =
  List.length
    (List.filter (fun f -> in_file file f && f.Lint.rule = rule) fs)

let check_count msg file rule expected =
  Alcotest.(check int) msg expected (count ~file ~rule (findings ()))

let check_only_rule file rule =
  check_count (file ^ " fires its rule once") file rule 1;
  Alcotest.(check int) (file ^ " fires nothing else") 1
    (List.length (List.filter (in_file file) (findings ())))

let check_quiet file =
  Alcotest.(check int) (file ^ " stays quiet") 0
    (List.length (List.filter (in_file file) (findings ())))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let parse_json s =
  match Jsonio.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "report is not valid JSON: %s" e

let tests =
  [
    Alcotest.test_case "scan covers every fixture unit" `Quick (fun () ->
        let r = Lazy.force fixture_scan in
        Alcotest.(check bool) "at least 13 units" true (r.Lint.r_units >= 13));
    Alcotest.test_case "D1 fires on wall-clock reads" `Quick (fun () ->
        check_count "gettimeofday + Sys.time" "fix_d1.ml" Lint.D1 2);
    Alcotest.test_case "D2 fires on Stdlib.Random" `Quick (fun () ->
        check_count "int + self_init + float" "fix_d2.ml" Lint.D2 3);
    Alcotest.test_case "D3 fires on hash-order iteration" `Quick (fun () ->
        check_count "iter + fold + hash" "fix_d3.ml" Lint.D3 3);
    Alcotest.test_case "D4 fires on module-level mutable state" `Quick
      (fun () ->
        check_count "ref/array/tbl/record/closure" "fix_d4.ml" Lint.D4 5);
    Alcotest.test_case "F1 fires on float compares, not int" `Quick
      (fun () ->
        check_count "=, <>, compare, record, list" "fix_f1.ml" Lint.F1 5);
    Alcotest.test_case "H1 fires on Obj.magic and catch-alls" `Quick
      (fun () ->
        check_count "magic + try _ + match exception _" "fix_h1.ml" Lint.H1 3);
    Alcotest.test_case "P1 fires on shared-state writes inside a task" `Quick
      (fun () ->
        (* the module-level table carries a reasoned D4 allow, so the
           interprocedural P1 is the only finding left in the file *)
        check_only_rule "fix_p1.ml" Lint.P1);
    Alcotest.test_case "P2 fires on captured-mutable writes inside a task"
      `Quick (fun () -> check_only_rule "fix_p2.ml" Lint.P2);
    Alcotest.test_case "R1 fires on an unsplit Rng stream inside a task"
      `Quick (fun () -> check_only_rule "fix_r1.ml" Lint.R1);
    Alcotest.test_case "clean parallel code stays quiet" `Quick (fun () ->
        check_quiet "fix_par_clean.ml";
        check_quiet "fix_scc.ml");
    Alcotest.test_case "C1 fires once on an env read behind the cache" `Quick
      (fun () ->
        (* the thunk reaches Sys.getenv_opt through a helper call, so
           this also pins the interprocedural closure *)
        check_only_rule "fix_c1.ml" Lint.C1);
    Alcotest.test_case "C1 carries the cache-to-read flow trace" `Quick
      (fun () ->
        match
          List.find_opt
            (fun f -> in_file "fix_c1.ml" f && f.Lint.rule = Lint.C1)
            (findings ())
        with
        | None -> Alcotest.fail "no C1 finding"
        | Some f ->
            Alcotest.(check bool) "trace starts at the site" true
              (match f.Lint.trace with
              | first :: _ -> contains first "Cache.get_or_compute site"
              | [] -> false);
            Alcotest.(check bool) "trace walks through the helper" true
              (List.exists (fun s -> contains s "ambient_scale") f.Lint.trace);
            Alcotest.(check bool) "trace ends at the env read" true
              (List.exists
                 (fun s -> contains s "env:FIXTURE_SCALE")
                 f.Lint.trace));
    Alcotest.test_case "C2 fires once on a key that misses an input" `Quick
      (fun () ->
        check_only_rule "fix_c2.ml" Lint.C2;
        match
          List.find_opt
            (fun f -> in_file "fix_c2.ml" f && f.Lint.rule = Lint.C2)
            (findings ())
        with
        | None -> Alcotest.fail "no C2 finding"
        | Some f ->
            Alcotest.(check bool) "names the missing input" true
              (contains f.Lint.message "'scale'"));
    Alcotest.test_case "A1 fires per allocation in hot functions" `Quick
      (fun () ->
        (* the tuple in centroid and the List.map in doubled; the ref
           accumulator in sum and the cold allocator stay quiet *)
        check_count "two allocations" "fix_a1.ml" Lint.A1 2;
        Alcotest.(check int) "nothing else in the file" 2
          (List.length (List.filter (in_file "fix_a1.ml") (findings ()))));
    Alcotest.test_case "nested modules, functors, includes and scripts"
      `Quick (fun () ->
        (* D4 on Inner.nested_counter and the included array, not on the
           functor's per-application ref; D1 on both stamps; P1 reached
           through the alias P.map in the top-level script *)
        check_count "nested + included state" "fix_scope.ml" Lint.D4 2;
        check_count "both stamps" "fix_scope.ml" Lint.D1 2;
        check_count "script task via the alias" "fix_scope.ml" Lint.P1 1;
        Alcotest.(check int) "nothing else in the file" 5
          (List.length (List.filter (in_file "fix_scope.ml") (findings ())));
        let sums = (Lazy.force fixture_scan).Lint.r_summaries in
        let scope =
          List.filter
            (fun (s : Lint.Summaries.summary) ->
              Filename.basename s.Lint.Summaries.s_file = "fix_scope.ml")
            (Lint.Summaries.to_list sums)
        in
        Alcotest.(check (list string)) "only Inner.stamp is summarized"
          [ "Lint_fixtures.Fix_scope.Inner.stamp" ]
          (List.map (fun (s : Lint.Summaries.summary) -> s.Lint.Summaries.s_name)
             scope));
    Alcotest.test_case "sound caches and exempt refs stay quiet" `Quick
      (fun () -> check_quiet "fix_cache_clean.ml");
    Alcotest.test_case "SCC fixpoint pins recursive effect summaries" `Quick
      (fun () ->
        let sums = (Lazy.force fixture_scan).Lint.r_summaries in
        let get name =
          match Lint.Summaries.find sums name with
          | Some s -> s
          | None -> Alcotest.failf "no summary for %s" name
        in
        let check_kind msg expected s =
          Alcotest.(check string)
            msg expected
            Lint.Summaries.(kind_name (kind s))
        in
        let ping = get "Lint_fixtures.Fix_scc.ping" in
        let pong = get "Lint_fixtures.Fix_scc.pong" in
        let drain = get "Lint_fixtures.Fix_scc.drain" in
        check_kind "ping is local-mutation" "local-mutation" ping;
        check_kind "pong is local-mutation" "local-mutation" pong;
        Alcotest.(check (list int)) "ping mutates param 0" [ 0 ]
          ping.Lint.Summaries.s_writes_params;
        Alcotest.(check (list int)) "pong mutates param 0 via ping" [ 0 ]
          pong.Lint.Summaries.s_writes_params;
        check_kind "drain is local-mutation" "local-mutation" drain;
        Alcotest.(check (list int)) "drain mutates no params" []
          drain.Lint.Summaries.s_writes_params;
        Alcotest.(check int) "drain's two refs stay local" 2
          drain.Lint.Summaries.s_local_allocs;
        Alcotest.(check int) "nothing escapes drain" 0
          drain.Lint.Summaries.s_escaping_allocs);
    Alcotest.test_case "reasoned suppressions silence their rule" `Quick
      (fun () ->
        check_count "suppressed D1" "fix_suppressed.ml" Lint.D1 0;
        check_count "suppressed D2" "fix_suppressed.ml" Lint.D2 0);
    Alcotest.test_case "reasonless suppression is itself a finding" `Quick
      (fun () ->
        check_count "D3 stays live" "fix_suppressed.ml" Lint.D3 1;
        check_count "SUPPRESS fires" "fix_suppressed.ml" Lint.Bad_suppress 1);
    Alcotest.test_case "a reasoned allow that covers nothing is stale" `Quick
      (fun () -> check_only_rule "fix_stale_allow.ml" Lint.Bad_suppress);
    Alcotest.test_case "clean fixture has zero findings" `Quick (fun () ->
        check_quiet "fix_clean.ml");
    Alcotest.test_case "duplicate scan paths count each unit once" `Quick
      (fun () ->
        let root, dir = fixture_dir () in
        let once = Lazy.force fixture_scan in
        let twice = Lint.analyze ~root [ dir; dir ] in
        Alcotest.(check int) "same unit count" once.Lint.r_units
          twice.Lint.r_units;
        Alcotest.(check int) "same finding count"
          (List.length once.Lint.r_findings)
          (List.length twice.Lint.r_findings));
    Alcotest.test_case "JSON report matches the documented shape" `Quick
      (fun () ->
        let report = Lazy.force fixture_scan in
        let doc = parse_json (Lint.to_json report) in
        (match Jsonio.member "tool" doc with
        | Some (Jsonio.Str "placer-lint") -> ()
        | _ -> Alcotest.fail "missing \"tool\":\"placer-lint\"");
        (match Option.bind (Jsonio.member "units" doc) Jsonio.to_int with
        | Some u -> Alcotest.(check int) "units" report.Lint.r_units u
        | None -> Alcotest.fail "missing numeric \"units\"");
        (match Jsonio.member "counts" doc with
        | Some counts ->
            List.iter
              (fun rule ->
                let name = Lint.rule_name rule in
                match Option.bind (Jsonio.member name counts) Jsonio.to_int with
                | Some c ->
                    Alcotest.(check int)
                      (Printf.sprintf "counts.%s" name)
                      (List.length
                         (List.filter
                            (fun f -> f.Lint.rule = rule)
                            report.Lint.r_findings))
                      c
                | None -> Alcotest.failf "counts.%s missing" name)
              Lint.all_rules
        | None -> Alcotest.fail "missing \"counts\" object");
        match Jsonio.member "findings" doc with
        | Some (Jsonio.Arr fs) ->
            Alcotest.(check int) "findings length"
              (List.length report.Lint.r_findings)
              (List.length fs);
            List.iter
              (fun f ->
                List.iter
                  (fun key ->
                    if Option.is_none (Jsonio.member key f) then
                      Alcotest.failf "finding lacks \"%s\"" key)
                  [ "file"; "line"; "col"; "rule"; "message" ])
              fs
        | _ -> Alcotest.fail "missing \"findings\" array");
    Alcotest.test_case "SARIF report parses and names every rule" `Quick
      (fun () ->
        let report = Lazy.force fixture_scan in
        let doc = parse_json (Lint.to_sarif report) in
        (match Jsonio.member "version" doc with
        | Some (Jsonio.Str "2.1.0") -> ()
        | _ -> Alcotest.fail "missing \"version\":\"2.1.0\"");
        match Jsonio.member "runs" doc with
        | Some (Jsonio.Arr [ run ]) -> (
            match Jsonio.member "results" run with
            | Some (Jsonio.Arr rs) ->
                Alcotest.(check int) "one result per finding"
                  (List.length report.Lint.r_findings)
                  (List.length rs)
            | _ -> Alcotest.fail "missing \"results\" array")
        | _ -> Alcotest.fail "expected exactly one run");
    Alcotest.test_case "N1 fires on exact-equality termination tests" `Quick
      (fun () ->
        (* the Float.equal and <> while-exits and the Float.compare
           recursive test; the <> at float also trips F1, and the
           constant-vs-constant compare and the user-defined epsilon
           [=] (local and module-level) fire nothing *)
        check_count "while + recursion" "fix_n1.ml" Lint.N1 3;
        check_count "<> at float" "fix_n1.ml" Lint.F1 1;
        Alcotest.(check int) "nothing else in the file" 4
          (List.length (List.filter (in_file "fix_n1.ml") (findings ()))));
    Alcotest.test_case "N2 fires direct and through nonzero-args" `Quick
      (fun () ->
        check_count "computed divisor + call site" "fix_n2.ml" Lint.N2 2;
        Alcotest.(check int) "nothing else in the file" 2
          (List.length (List.filter (in_file "fix_n2.ml") (findings ()))));
    Alcotest.test_case "N2 call-site finding carries the forwarding trace"
      `Quick (fun () ->
        match
          List.find_opt
            (fun f ->
              in_file "fix_n2.ml" f
              && f.Lint.rule = Lint.N2
              && contains f.Lint.message "scale_by")
            (findings ())
        with
        | None -> Alcotest.fail "no interprocedural N2 finding"
        | Some f ->
            Alcotest.(check bool) "trace has >= 2 steps" true
              (List.length f.Lint.trace >= 2);
            Alcotest.(check bool) "trace starts at the call site" true
              (match f.Lint.trace with
              | first :: _ -> contains first "scale_by"
              | [] -> false);
            Alcotest.(check bool) "trace ends at the unguarded division" true
              (contains (List.nth f.Lint.trace (List.length f.Lint.trace - 1))
                 "no dominating guard"));
    Alcotest.test_case "N2 obligation lands on the effect summary" `Quick
      (fun () ->
        let sums = (Lazy.force fixture_scan).Lint.r_summaries in
        match Lint.Summaries.find sums "Lint_fixtures.Fix_n2.scale_by" with
        | None -> Alcotest.fail "no summary for scale_by"
        | Some s ->
            Alcotest.(check (list int)) "nonzero-args pins parameter 0" [ 0 ]
              s.Lint.Summaries.s_nonzero_args);
    Alcotest.test_case "N3 fires on non-compensated accumulation" `Quick
      (fun () ->
        check_count "ref sum + fold_left" "fix_n3.ml" Lint.N3 2;
        Alcotest.(check int) "nothing else in the file" 2
          (List.length (List.filter (in_file "fix_n3.ml") (findings ()))));
    Alcotest.test_case "N4 fires on hash-order pool reduction" `Quick
      (fun () ->
        (* nine tainted folds: two over a table that stores the pool
           call itself, three over a table filled through an
           iter/iteri lambda's element; the run_all (bound or stored),
           no-float, fold-before-add and iteri-index cases fire
           nothing but D3 *)
        check_count "Hashtbl.fold over Pool results" "fix_n4.ml" Lint.N4 9;
        check_count "the same fold also trips D3" "fix_n4.ml" Lint.D3 14;
        (match
           List.find_opt
             (fun f -> in_file "fix_n4.ml" f && f.Lint.rule = Lint.N4)
             (findings ())
         with
        | None -> Alcotest.fail "no N4 finding"
        | Some f ->
            Alcotest.(check bool) "trace names the Pool.map origin" true
              (List.exists (fun s -> contains s "Pool.map") f.Lint.trace));
        Alcotest.(check int) "nothing else in the file" 23
          (List.length (List.filter (in_file "fix_n4.ml") (findings ()))));
    Alcotest.test_case "guarded and compensated idioms stay quiet" `Quick
      (fun () -> check_quiet "fix_num_clean.ml");
    Alcotest.test_case "reasoned allows are enumerated on the report" `Quick
      (fun () ->
        let allows = (Lazy.force fixture_scan).Lint.r_allows in
        let in_suppressed =
          List.filter
            (fun (a : Lint.allow) ->
              Filename.basename a.Lint.al_file = "fix_suppressed.ml")
            allows
        in
        Alcotest.(check bool) "fix_suppressed contributes allows" true
          (List.length in_suppressed >= 2);
        List.iter
          (fun (a : Lint.allow) ->
            Alcotest.(check bool) "every allow carries a reason" true
              (String.length a.Lint.al_reason > 0))
          allows);
    Alcotest.test_case "reports match the committed goldens byte for byte"
      `Quick (fun () ->
        (* the full JSON report (messages and traces), the SARIF report
           and the --dump-summaries text of the fixture scan; recapture
           with lint_cli --format json|sarif / --dump-summaries over
           _build/default/test/lint_fixtures only on a deliberate
           change to a rule's output *)
        let r = Lazy.force fixture_scan in
        Alcotest.(check string) "golden_report.json"
          (golden "golden_report.json") (Lint.to_json r ^ "\n");
        Alcotest.(check string) "golden_report.sarif"
          (golden "golden_report.sarif") (Lint.to_sarif r ^ "\n");
        Alcotest.(check string) "golden_summaries.txt"
          (golden "golden_summaries.txt")
          (Lint.Summaries.dump r.Lint.r_summaries ^ "\n"));
    Alcotest.test_case "diagnostics print file:line:col [RULE]" `Quick
      (fun () ->
        match
          List.find_opt
            (fun f -> in_file "fix_h1.ml" f && f.Lint.rule = Lint.H1)
            (findings ())
        with
        | None -> Alcotest.fail "no H1 finding to format"
        | Some f ->
            let s = Lint.to_string f in
            Alcotest.(check bool) "has [H1] marker" true (contains s "[H1]");
            Alcotest.(check bool) "names the file" true
              (contains s "fix_h1.ml");
            Alcotest.(check bool) "has line:col" true
              (contains s
                 (Printf.sprintf ":%d:%d " f.Lint.line f.Lint.col)));
  ]

let suites = [ ("lint", tests) ]
