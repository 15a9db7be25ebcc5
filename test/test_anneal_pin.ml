(* Trajectory pin for the three annealing families: SA, template
   composition and the matheuristic share one Metropolis schedule, so a
   change to that schedule must leave every fixed-seed run bit for bit
   where it was. Each case records the final cost (hex float), a digest
   of the placement text, the best-cost gauge and the move/window
   counters the run published; the expected lines were captured before
   the schedule was shared and must not be regenerated to make a
   refactor pass. The matheuristic rows were recaptured once, on
   purpose, when the simplex began to presolve every LP to its implied
   lower bounds: a window ILP's B&B can then meet another optimal
   vertex at a tie and branch differently. *)

module Sa = Annealing.Sa_placer
module Tp = Templates.Template_placer
module Mh = Matheuristic.Mh_placer

let counter_names =
  [
    "sa.moves"; "sa.accepted"; "sa.rejected"; "sa.evals"; "sa.cache_hits";
    "sa.full_repacks"; "tmpl.swaps"; "mh.windows"; "mh.window_accepts";
    "mh.window_rejects";
  ]

let fingerprint label run =
  Telemetry.reset ();
  let layout, cost = run () in
  let counters =
    List.map
      (fun n ->
        Printf.sprintf "%s=%d" n
          (Telemetry.Counter.value (Telemetry.Counter.make n)))
      counter_names
  in
  Printf.sprintf "%s cost=%h best=%h digest=%s %s" label cost
    (Telemetry.Gauge.value (Telemetry.Gauge.make "sa.best_cost"))
    (Digest.to_hex (Digest.string (Netlist.Io.placement_to_string layout)))
    (String.concat " " counters)

let sa_params restarts =
  { Sa.default_params with Sa.moves = 20_000; seed = 5; restarts }

let mh_params restarts walk_neg =
  {
    Mh.sa = sa_params restarts;
    cycles = 2;
    window = 3;
    node_budget = 10;
    walk_neg;
  }

(* Cases run in list order (explicit lets: a list literal evaluates
   right to left), so the second template run finds the store warm. *)
let fingerprints name =
  let c = Circuits.Testcases.get_exn name in
  List.concat_map
    (fun restarts ->
      let tag fam = Printf.sprintf "%s/%s/r%d" name fam restarts in
      let params = sa_params restarts in
      let store = Templates.Template_store.create () in
      let sa = fingerprint (tag "sa") (fun () -> Sa.place ~params c) in
      let cold =
        fingerprint (tag "template-cold") (fun () -> Tp.place ~params ~store c)
      in
      let warm =
        fingerprint (tag "template-warm") (fun () -> Tp.place ~params ~store c)
      in
      let mh =
        fingerprint (tag "mh") (fun () ->
            Mh.place ~params:(mh_params restarts false) c)
      in
      let mh_neg =
        fingerprint (tag "mh-walk-neg") (fun () ->
            Mh.place ~params:(mh_params restarts true) c)
      in
      [ sa; cold; warm; mh; mh_neg ])
    [ 1; 3 ]

let expected =
  [
    "CC-OTA/sa/r1 cost=0x1.8ce679447a6ddp+0 best=0x1.8ce679447a6ddp+0 digest=dfd59087506fd5478cdfc4ea730ced3a"
    ^ " sa.moves=20000 sa.accepted=18560 sa.rejected=1440 sa.evals=20041 sa.cache_hits=45594 sa.full_repacks=1 tmpl.swaps=0 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "CC-OTA/template-cold/r1 cost=0x1.890f661ff1357p+0 best=0x1.890f661ff1357p+0 digest=ed44d64f53d006e6448634038f987b7b"
    ^ " sa.moves=20000 sa.accepted=15931 sa.rejected=4069 sa.evals=20041 sa.cache_hits=42666 sa.full_repacks=1 tmpl.swaps=0 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "CC-OTA/template-warm/r1 cost=0x1.890f661ff1357p+0 best=0x1.890f661ff1357p+0 digest=ed44d64f53d006e6448634038f987b7b"
    ^ " sa.moves=20000 sa.accepted=15931 sa.rejected=4069 sa.evals=20041 sa.cache_hits=42666 sa.full_repacks=1 tmpl.swaps=0 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "CC-OTA/mh/r1 cost=0x1.502c00f3b9994p+0 best=0x1.502c00f3b9994p+0 digest=0622d6c236c7096c67ff9a85a6746c1f"
    ^ " sa.moves=20000 sa.accepted=16785 sa.rejected=3215 sa.evals=20048 sa.cache_hits=42771 sa.full_repacks=1 tmpl.swaps=0 mh.windows=4 mh.window_accepts=1 mh.window_rejects=2";
    "CC-OTA/mh-walk-neg/r1 cost=0x1.502c00f3b9994p+0 best=0x1.502c00f3b9994p+0 digest=0622d6c236c7096c67ff9a85a6746c1f"
    ^ " sa.moves=20000 sa.accepted=16785 sa.rejected=3215 sa.evals=20057 sa.cache_hits=42786 sa.full_repacks=1 tmpl.swaps=0 mh.windows=8 mh.window_accepts=2 mh.window_rejects=6";
    "CC-OTA/sa/r3 cost=0x1.2687cc6101f1p+0 best=0x1.2687cc6101f1p+0 digest=3e1d58ef8a6929f12a0fff40639486d0"
    ^ " sa.moves=60000 sa.accepted=54311 sa.rejected=5689 sa.evals=60123 sa.cache_hits=135374 sa.full_repacks=3 tmpl.swaps=0 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "CC-OTA/template-cold/r3 cost=0x1.2153768012ab2p+0 best=0x1.2153768012ab2p+0 digest=3daa9d0e2c98f6d1dbbf8b57803cb04b"
    ^ " sa.moves=60000 sa.accepted=46844 sa.rejected=13156 sa.evals=60123 sa.cache_hits=124798 sa.full_repacks=3 tmpl.swaps=0 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "CC-OTA/template-warm/r3 cost=0x1.2153768012ab2p+0 best=0x1.2153768012ab2p+0 digest=3daa9d0e2c98f6d1dbbf8b57803cb04b"
    ^ " sa.moves=60000 sa.accepted=46844 sa.rejected=13156 sa.evals=60123 sa.cache_hits=124798 sa.full_repacks=3 tmpl.swaps=0 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "CC-OTA/mh/r3 cost=0x1.f3db65538acc4p-1 best=0x1.f3db65538acc4p-1 digest=e857e6571eba804aa4c757682fa66379"
    ^ " sa.moves=60000 sa.accepted=52369 sa.rejected=7631 sa.evals=60146 sa.cache_hits=132777 sa.full_repacks=3 tmpl.swaps=0 mh.windows=12 mh.window_accepts=5 mh.window_rejects=6";
    "CC-OTA/mh-walk-neg/r3 cost=0x1.f3db65538acc4p-1 best=0x1.f3db65538acc4p-1 digest=e857e6571eba804aa4c757682fa66379"
    ^ " sa.moves=60000 sa.accepted=52339 sa.rejected=7661 sa.evals=60170 sa.cache_hits=132936 sa.full_repacks=3 tmpl.swaps=0 mh.windows=24 mh.window_accepts=9 mh.window_rejects=14";
    "VCO2/sa/r1 cost=0x1.3b3ec15e6a1f4p+0 best=0x1.3b3ec15e6a1f4p+0 digest=71c3e6d0150a01534eca3c90143db89b"
    ^ " sa.moves=20000 sa.accepted=18714 sa.rejected=1286 sa.evals=20041 sa.cache_hits=155011 sa.full_repacks=1 tmpl.swaps=0 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "VCO2/template-cold/r1 cost=0x1.221db2bb18becp+0 best=0x1.221db2bb18becp+0 digest=2cee0e3a85e4fe8a3f2a772f1e13816f"
    ^ " sa.moves=20000 sa.accepted=16450 sa.rejected=3550 sa.evals=20041 sa.cache_hits=161936 sa.full_repacks=1 tmpl.swaps=3326 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "VCO2/template-warm/r1 cost=0x1.221db2bb18becp+0 best=0x1.221db2bb18becp+0 digest=2cee0e3a85e4fe8a3f2a772f1e13816f"
    ^ " sa.moves=20000 sa.accepted=16450 sa.rejected=3550 sa.evals=20041 sa.cache_hits=161936 sa.full_repacks=1 tmpl.swaps=3326 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "VCO2/mh/r1 cost=0x1.916a9ff373c06p+0 best=0x1.916a9ff373c06p+0 digest=c88f390ca5afe7458b2d50bc5163e581"
    ^ " sa.moves=20000 sa.accepted=17189 sa.rejected=2811 sa.evals=20069 sa.cache_hits=149512 sa.full_repacks=1 tmpl.swaps=0 mh.windows=14 mh.window_accepts=5 mh.window_rejects=9";
    "VCO2/mh-walk-neg/r1 cost=0x1.7697924180c11p+0 best=0x1.7697924180c11p+0 digest=eb8f6aa6ee0d70a4f95eb7d0a62e375a"
    ^ " sa.moves=20000 sa.accepted=17216 sa.rejected=2784 sa.evals=20096 sa.cache_hits=150124 sa.full_repacks=1 tmpl.swaps=0 mh.windows=28 mh.window_accepts=8 mh.window_rejects=19";
    "VCO2/sa/r3 cost=0x1.7db38177ed82ap+0 best=0x1.7db38177ed82ap+0 digest=469b152bd0b9ecfaeaf3c46fc10f5c1b"
    ^ " sa.moves=60000 sa.accepted=57148 sa.rejected=2852 sa.evals=60123 sa.cache_hits=471118 sa.full_repacks=3 tmpl.swaps=0 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "VCO2/template-cold/r3 cost=0x1.538e651537192p+0 best=0x1.538e651537192p+0 digest=2c1a5927a53287777b9dd11c057d779c"
    ^ " sa.moves=60000 sa.accepted=49182 sa.rejected=10818 sa.evals=60123 sa.cache_hits=483561 sa.full_repacks=3 tmpl.swaps=9935 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "VCO2/template-warm/r3 cost=0x1.538e651537192p+0 best=0x1.538e651537192p+0 digest=2c1a5927a53287777b9dd11c057d779c"
    ^ " sa.moves=60000 sa.accepted=49182 sa.rejected=10818 sa.evals=60123 sa.cache_hits=483561 sa.full_repacks=3 tmpl.swaps=9935 mh.windows=0 mh.window_accepts=0 mh.window_rejects=0";
    "VCO2/mh/r3 cost=0x1.0c5bfd729e674p+0 best=0x1.0c5bfd729e674p+0 digest=6b96b3be7efa723770c1036a713c223f"
    ^ " sa.moves=60000 sa.accepted=49198 sa.rejected=10802 sa.evals=60207 sa.cache_hits=434291 sa.full_repacks=3 tmpl.swaps=0 mh.windows=42 mh.window_accepts=13 mh.window_rejects=29";
    "VCO2/mh-walk-neg/r3 cost=0x1.e33bae7765caap-1 best=0x1.e33bae7765caap-1 digest=ae4200cadd1c83a6b87615cb9eb396e6"
    ^ " sa.moves=60000 sa.accepted=49123 sa.rejected=10877 sa.evals=60289 sa.cache_hits=434435 sa.full_repacks=3 tmpl.swaps=0 mh.windows=84 mh.window_accepts=28 mh.window_rejects=54";
  ]

let tests =
  [
    Alcotest.test_case "fixed-seed trajectories are pinned" `Quick (fun () ->
        Alcotest.(check (list string))
          "fingerprints" expected
          (let cc_ota = fingerprints "CC-OTA" in
           cc_ota @ fingerprints "VCO2"));
  ]

let suites = [ ("annealing.pin", tests) ]
