(* placer-lint driver: scan .cmt trees, print diagnostics, exit
   nonzero only when unsuppressed findings survive. Wired to
   `dune build @lint`, which runs it from the build-context root over
   lib/, bin/, bench/ and test/ (minus the intentional-violation
   fixtures) after everything has compiled. *)

let usage =
  "lint_cli [--root DIR] [--exclude SUBSTR]... [--format text|json|sarif]\n\
  \         [--out FILE] [--dump-summaries] [--explain RULE]\n\
  \         [--list-allows] PATH...\n\
   Scans PATH... (directories, .cmt or .cmti files) and reports\n\
   determinism/parallel-safety findings as file:line:col [RULE].\n\
   --exclude skips any unit whose .cmt path or source path contains\n\
   SUBSTR. --format json/sarif emit machine-readable reports (CI\n\
   artifacts, code-scanning annotation). --dump-summaries prints the\n\
   interprocedural effect summaries instead of findings, for\n\
   reviewable summary drift in diffs. --explain RULE prints only that\n\
   rule's findings, each followed by its flow trace (for C1: the call\n\
   path from the cache entry point to the ambient read; for N2: the\n\
   obligation-forwarding chain down to the unguarded primitive).\n\
   --list-allows prints every reasoned suppression as\n\
   file:line [RULE] reason, for a one-pass audit of the allow budget.\n\
   --dump-summaries, --explain and --list-allows exclude each other.\n\
   Exit status: 0 clean, 1 when findings survive, 2 usage error\n\
   (including a PATH that does not exist and a scan that finds no\n\
   compiled unit: point PATH at the build tree, e.g. _build/default/lib)."

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("lint_cli: " ^ msg);
      exit 2)
    fmt

let () =
  let root = ref "." in
  let excludes = ref [] in
  let format = ref "text" in
  let out = ref "" in
  let dump_summaries = ref false in
  let list_allows = ref false in
  let explain = ref "" in
  let paths = ref [] in
  let spec =
    [
      ( "--root",
        Arg.Set_string root,
        "DIR directory the .cmt-recorded source paths resolve against \
         (workspace root; used to read suppression comments)" );
      ( "--exclude",
        Arg.String (fun s -> excludes := s :: !excludes),
        "SUBSTR skip units whose .cmt path or source path contains SUBSTR \
         (repeatable)" );
      ( "--format",
        Arg.Symbol ([ "text"; "json"; "sarif" ], fun s -> format := s),
        " report format (default text)" );
      ( "--out",
        Arg.Set_string out,
        "FILE write the report to FILE instead of stdout" );
      ( "--dump-summaries",
        Arg.Set dump_summaries,
        " print the per-function effect summaries and exit 0" );
      ( "--explain",
        Arg.Set_string explain,
        "RULE print only RULE's findings, each with its flow trace" );
      ( "--list-allows",
        Arg.Set list_allows,
        " print every reasoned allow suppression and exit 0" );
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  let paths = List.rev !paths in
  if paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  List.iter
    (fun p -> if not (Sys.file_exists p) then usage_error "no such PATH: %s" p)
    paths;
  if
    List.length
      (List.filter Fun.id [ !dump_summaries; !list_allows; !explain <> "" ])
    > 1
  then
    usage_error
      "--dump-summaries, --list-allows and --explain are mutually exclusive";
  let report = Lint.analyze ~excludes:(List.rev !excludes) ~root:!root paths in
  if report.Lint.r_units = 0 then
    usage_error
      "no compiled unit (.cmt/.cmti) under %s; scan the build tree, e.g. \
       _build/default/lib"
      (String.concat " " paths);
  let output s =
    if !out = "" then print_string s
    else Out_channel.with_open_text !out (fun oc -> output_string oc s)
  in
  if !dump_summaries then begin
    output (Lint.Summaries.dump report.Lint.r_summaries ^ "\n");
    exit 0
  end;
  if !list_allows then begin
    let b = Buffer.create 1024 in
    List.iter
      (fun (a : Lint.allow) ->
        Buffer.add_string b
          (Printf.sprintf "%s:%d [%s] %s\n" a.Lint.al_file a.Lint.al_line
             a.Lint.al_rule a.Lint.al_reason))
      report.Lint.r_allows;
    Buffer.add_string b
      (Printf.sprintf "placer-lint: %d reasoned allow(s)\n"
         (List.length report.Lint.r_allows));
    output (Buffer.contents b);
    exit 0
  end;
  if !explain <> "" then begin
    let rule =
      match Lint.rule_of_string !explain with
      | Some r -> r
      | None -> usage_error "--explain: unknown rule '%s'" !explain
    in
    let findings =
      List.filter (fun f -> f.Lint.rule = rule) report.Lint.r_findings
    in
    let b = Buffer.create 1024 in
    List.iter
      (fun f ->
        Buffer.add_string b (Lint.to_string f ^ "\n");
        List.iter
          (fun step -> Buffer.add_string b ("    " ^ step ^ "\n"))
          f.Lint.trace)
      findings;
    Buffer.add_string b
      (Printf.sprintf "placer-lint: %d %s finding(s)\n" (List.length findings)
         (Lint.rule_name rule));
    output (Buffer.contents b);
    exit (if findings = [] then 0 else 1)
  end;
  match !format with
  | "json" ->
      output (Lint.to_json report ^ "\n");
      if report.Lint.r_findings <> [] then exit 1
  | "sarif" ->
      output (Lint.to_sarif report ^ "\n");
      if report.Lint.r_findings <> [] then exit 1
  | _ -> (
      let findings = report.Lint.r_findings in
      let b = Buffer.create 1024 in
      List.iter
        (fun f -> Buffer.add_string b (Lint.to_string f ^ "\n"))
        findings;
      (match findings with
      | [] ->
          Buffer.add_string b
            (Printf.sprintf "placer-lint: %d compilation units clean\n"
               report.Lint.r_units)
      | fs ->
          Buffer.add_string b
            (Printf.sprintf
               "placer-lint: %d finding(s) in %d compilation units\n"
               (List.length fs) report.Lint.r_units);
          List.iter
            (fun (name, n) ->
              if n > 0 then
                Buffer.add_string b (Printf.sprintf "  %-8s %d\n" name n))
            (Lint.counts_of fs));
      output (Buffer.contents b);
      match findings with [] -> () | _ -> exit 1)
