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
   overlap-only plan.

   The layouts are pinned as they stand since the simplex presolves
   every LP to its implied lower bounds: that start can resolve a tie
   between optimal vertices differently, so every case moved once,
   deliberately, when it was added. The LP objectives themselves are
   guarded by the tolerance oracle in [numerics.lp_oracle], which
   compares each solve with the dense tableau on the LP as given. The
   expected lines must not be regenerated to make a change pass. *)

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
    "CC-OTA/eplace area=0x1.2e8f5c28f5c2ap+5 hpwl=0x1.8dd70a3d70a3ep+4 digest=3d11ba0c07a86b6cf2507e0ff619c3b9"
    ^ " gp.iterations=116 gp.f_evals=205";
    "CC-OTA/prev area=0x1.be147ae147ae1p+4 hpwl=0x1.450a3d70a3d7p+4 digest=583898400d64bb012c4113cf008239bb"
    ^ " gp.iterations=1800 gp.f_evals=3865";
    "Comp1/eplace area=0x1.0bd70a3d70a3dp+5 hpwl=0x1.7f851eb851eb6p+4 digest=f0f59f623c51baa187a7dec5bdd9a3c2"
    ^ " gp.iterations=145 gp.f_evals=241";
    "Comp1/prev area=0x1.c6b8570eda8e6p+4 hpwl=0x1.7c51ea78af3e6p+4 digest=673a0be6b4d5dc01515587a421340fcf"
    ^ " gp.iterations=1800 gp.f_evals=3781";
    "VCO2/eplace area=0x1.3ccccccccccccp+8 hpwl=0x1.ba1eb851eb851p+6 digest=7003ebfc186c7779e76580efc7908dc3"
    ^ " gp.iterations=101 gp.f_evals=165";
    "VCO2/prev area=0x1.68cccccccccccp+8 hpwl=0x1.df47ae147ae14p+6 digest=476d1ff30ea6fbc415b1a1b726c3358e"
    ^ " gp.iterations=1800 gp.f_evals=3779";
  ]

let dp_expected =
  [
    "CC-OTA/dp_ilp_off area=0x1.2e8f5c28f5c2ap+5 hpwl=0x1.0e7ae147ae148p+5 digest=abc620027ce3409516374c5b27f788a7"
    ^ " nodes_x=1 nodes_y=1 fell_back=false ilp.nodes=2 ilp.solves=2";
    "CC-OTA/dp_ilp_exact area=0x1.2e8f5c28f5c2ap+5 hpwl=0x1.d5851eb851eb9p+4 digest=b7049cffddd855bcfe141a329fd39bfa"
    ^ " nodes_x=13 nodes_y=13 fell_back=false ilp.nodes=26 ilp.solves=2";
    "CC-OTA/lp_stages area=0x1.2e8f5c28f5c2ap+5 hpwl=0x1.0e7ae147ae148p+5 digest=abc620027ce3409516374c5b27f788a7"
    ^ " ilp.nodes=0 ilp.solves=0";
    "VCO2/dp_ilp_off area=0x1.3ccccccccccccp+8 hpwl=0x1.e751eb851eb84p+6 digest=2f00a35d7688d644bbde9834e138d198"
    ^ " nodes_x=1 nodes_y=1 fell_back=false ilp.nodes=2 ilp.solves=2";
    "VCO2/dp_ilp_exact area=0x1.3ccccccccccccp+8 hpwl=0x1.b1c28f5c28f5bp+6 digest=74fe67d788750721e915c7395912a633"
    ^ " nodes_x=5 nodes_y=47 fell_back=false ilp.nodes=52 ilp.solves=2";
    "VCO2/lp_stages area=0x1.3ccccccccccccp+8 hpwl=0x1.e751eb851eb84p+6 digest=2f00a35d7688d644bbde9834e138d198"
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
