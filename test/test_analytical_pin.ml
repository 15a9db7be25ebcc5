(* Layout pin for the two analytical placers: ePlace-A (one GP seed)
   and the prior work [11] at default parameters, plus their detailed
   placers run alone from one fixed global placement (ePlace-A's ILP
   with flipping off and with exact flips, and [11]'s two-stage LP).
   Their GP density kernels and their shared legalization LP may be
   rewritten only if every final layout stays bit for bit where it was.
   Each case records a digest of the placement text, the final area
   and HPWL (hex floats) and the counters the run published (GP
   iterations and evaluations, or ILP solves and nodes); a DP case adds
   its per-axis node counts and whether it fell back to the
   overlap-only plan. The expected lines were captured before the code
   they pin was rewritten and must not be regenerated to make a change
   pass. *)

let gp_counters = [ "gp.iterations"; "gp.f_evals" ]
let ilp_counters = [ "ilp.nodes"; "ilp.solves" ]

let fingerprint ?(counters = gp_counters) label run =
  Telemetry.reset ();
  let layout, extra = run () in
  let counters =
    List.map
      (fun n ->
        Printf.sprintf "%s=%d" n
          (Telemetry.Counter.value (Telemetry.Counter.make n)))
      counters
  in
  Printf.sprintf "%s area=%h hpwl=%h digest=%s %s" label
    (Netlist.Layout.area layout) (Netlist.Layout.hpwl layout)
    (Digest.to_hex (Digest.string (Netlist.Io.placement_to_string layout)))
    (String.concat " " (extra @ counters))

let layout_exn label = function
  | Some l -> l
  | None -> Alcotest.failf "%s: no legal placement" label

let fingerprints name =
  let c = Circuits.Testcases.get_exn name in
  let eplace =
    let label = name ^ "/eplace" in
    fingerprint label (fun () ->
        let params = { Eplace.Eplace_a.default_params with restarts = 1 } in
        layout_exn label
          (Option.map
             (fun r -> (r.Eplace.Eplace_a.layout, []))
             (Eplace.Eplace_a.place ~params c)))
  in
  let prev =
    let label = name ^ "/prev" in
    fingerprint label (fun () ->
        layout_exn label
          (Option.map
             (fun r -> (r.Prevwork.Prev_analytical.layout, []))
             (Prevwork.Prev_analytical.place c)))
  in
  [ eplace; prev ]

let dp_fingerprints name =
  let c = Circuits.Testcases.get_exn name in
  let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
  let ilp flip tag =
    let label = name ^ "/dp_ilp_" ^ tag in
    fingerprint ~counters:ilp_counters label (fun () ->
        let params = { Eplace.Dp_ilp.default_params with flip } in
        layout_exn label
          (Option.map
             (fun (r : Eplace.Dp_ilp.result) ->
               ( r.layout,
                 [ Printf.sprintf "nodes_x=%d nodes_y=%d fell_back=%b"
                     r.nodes_x r.nodes_y r.fell_back ] ))
             (Eplace.Dp_ilp.run ~params c ~gp)))
  in
  let lp =
    let label = name ^ "/lp_stages" in
    fingerprint ~counters:ilp_counters label (fun () ->
        layout_exn label
          (Option.map
             (fun r -> (r.Prevwork.Lp_stages.layout, []))
             (Prevwork.Lp_stages.run c ~gp)))
  in
  [ ilp Eplace.Dp_ilp.Flip_off "off"; ilp Eplace.Dp_ilp.Flip_exact "exact";
    lp ]

let expected =
  [
    "CC-OTA/eplace area=0x1.2e8f5c28f5c2ap+5 hpwl=0x1.9b33333333334p+4 digest=e27ffd705bd17c4a5abac9ade178377d"
    ^ " gp.iterations=116 gp.f_evals=205";
    "CC-OTA/prev area=0x1.be147ae147aep+4 hpwl=0x1.450a3d70a3d7p+4 digest=f47261f5bfce7200fe1db33d3b8bb8ec"
    ^ " gp.iterations=1800 gp.f_evals=3865";
    "Comp1/eplace area=0x1.dc28f5c28f5c4p+4 hpwl=0x1.65eb851eb851fp+4 digest=212d355f25f4e601db51863800fbac73"
    ^ " gp.iterations=145 gp.f_evals=241";
    "Comp1/prev area=0x1.c6b8570eda8e9p+4 hpwl=0x1.7c51ea78af3e4p+4 digest=292d67fb3e9ed37de38dcb880cf09900"
    ^ " gp.iterations=1800 gp.f_evals=3781";
    "VCO2/eplace area=0x1.3ccccccccccc9p+8 hpwl=0x1.ad851eb851eb5p+6 digest=27e2fac69d3aecf40bb1ba90f13ef6d2"
    ^ " gp.iterations=101 gp.f_evals=165";
    "VCO2/prev area=0x1.68ccccccccccdp+8 hpwl=0x1.d80a3d70a3d72p+6 digest=1c8f18433c567a7aab9f5a7f44b3eff5"
    ^ " gp.iterations=1800 gp.f_evals=3779";
  ]

let dp_expected =
  [
    "CC-OTA/dp_ilp_off area=0x1.2e8f5c28f5c2ap+5 hpwl=0x1.0e7ae147ae147p+5 digest=f8e14c0fe7e0cd403b3c5f2976224f64"
    ^ " nodes_x=1 nodes_y=1 fell_back=false ilp.nodes=2 ilp.solves=2";
    "CC-OTA/dp_ilp_exact area=0x1.2e8f5c28f5c2ap+5 hpwl=0x1.d5851eb851eb8p+4 digest=4c20c43197414b284770bd7bd5568674"
    ^ " nodes_x=21 nodes_y=13 fell_back=false ilp.nodes=34 ilp.solves=2";
    "CC-OTA/lp_stages area=0x1.2e8f5c28f5c2ap+5 hpwl=0x1.0e7ae147ae147p+5 digest=f8e14c0fe7e0cd403b3c5f2976224f64"
    ^ " ilp.nodes=0 ilp.solves=0";
    "VCO2/dp_ilp_off area=0x1.3cccccccccccep+8 hpwl=0x1.e751eb851eb86p+6 digest=f4db4223ed5a0dc9870e91a7d73ffb9b"
    ^ " nodes_x=1 nodes_y=1 fell_back=false ilp.nodes=2 ilp.solves=2";
    "VCO2/dp_ilp_exact area=0x1.3ccccccccccd1p+8 hpwl=0x1.b1c28f5c28f5ap+6 digest=da46a892801b88dbd03cc1d0d9eb0746"
    ^ " nodes_x=9 nodes_y=57 fell_back=false ilp.nodes=66 ilp.solves=2";
    "VCO2/lp_stages area=0x1.3ccccdf414398p+8 hpwl=0x1.e751eb851eb87p+6 digest=91f3b19003e4a6573bad3692078a3867"
    ^ " ilp.nodes=0 ilp.solves=0";
  ]

let tests =
  [
    Alcotest.test_case "final layouts are pinned" `Quick (fun () ->
        Alcotest.(check (list string))
          "fingerprints" expected
          (List.concat_map fingerprints [ "CC-OTA"; "Comp1"; "VCO2" ]));
    Alcotest.test_case "detailed placements are pinned" `Quick (fun () ->
        Alcotest.(check (list string))
          "fingerprints" dp_expected
          (List.concat_map dp_fingerprints [ "CC-OTA"; "VCO2" ]));
  ]

let suites = [ ("analytical.pin", tests) ]
