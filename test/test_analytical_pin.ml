(* Layout pin for the two analytical placers: ePlace-A (one GP seed)
   and the prior work [11] at default parameters. Their GP density
   kernels (the spectral Poisson solve, the bell-shaped density) may be
   rewritten for speed only if every final layout stays bit for bit
   where it was. Each case records a digest of the placement text, the
   final area and HPWL (hex floats) and the GP iteration and
   evaluation counters the run published; the expected lines were
   captured before the kernels were rewritten and must not be
   regenerated to make a kernel change pass. *)

let counter_names = [ "gp.iterations"; "gp.f_evals" ]

let fingerprint label run =
  Telemetry.reset ();
  let layout = run () in
  let counters =
    List.map
      (fun n ->
        Printf.sprintf "%s=%d" n
          (Telemetry.Counter.value (Telemetry.Counter.make n)))
      counter_names
  in
  Printf.sprintf "%s area=%h hpwl=%h digest=%s %s" label
    (Netlist.Layout.area layout) (Netlist.Layout.hpwl layout)
    (Digest.to_hex (Digest.string (Netlist.Io.placement_to_string layout)))
    (String.concat " " counters)

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
             (fun r -> r.Eplace.Eplace_a.layout)
             (Eplace.Eplace_a.place ~params c)))
  in
  let prev =
    let label = name ^ "/prev" in
    fingerprint label (fun () ->
        layout_exn label
          (Option.map
             (fun r -> r.Prevwork.Prev_analytical.layout)
             (Prevwork.Prev_analytical.place c)))
  in
  [ eplace; prev ]

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

let tests =
  [
    Alcotest.test_case "final layouts are pinned" `Quick (fun () ->
        Alcotest.(check (list string))
          "fingerprints" expected
          (List.concat_map fingerprints [ "CC-OTA"; "Comp1"; "VCO2" ]));
  ]

let suites = [ ("analytical.pin", tests) ]
