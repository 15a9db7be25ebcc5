(* lib/templates: motif canonicalization, Pareto family invariants,
   the persistent template store, and the composition placer.

   The load-bearing properties: a motif hash depends only on seed-
   independent structure (device ids and JSON field order must not
   leak in), a family is a clean Pareto front with the seed first,
   the JSONL store round-trips packings bit-exactly, and the Template
   method matches SA-grade quality on the golden circuit. *)

module Island = Annealing.Island
module Motif = Templates.Motif
module Store = Templates.Template_store
module Tp = Templates.Template_placer
module M = Experiments.Methods
module Builder = Circuits.Builder
module Blocks = Circuits.Blocks

let motifs_of c =
  List.map (fun isl -> Motif.of_island c isl) (Island.decompose c)

let hashes_of c =
  List.sort String.compare
    (List.map (fun (m, _, _) -> Motif.hash m) (motifs_of c))

(* (device, dx, dy, orientation) of every member, in the island's own
   member order *)
let members (isl : Island.t) =
  List.init (Array.length isl.Island.devs) (fun i ->
      ( isl.Island.devs.(i),
        isl.Island.dx.(i),
        isl.Island.dy.(i),
        isl.Island.orient.(i) ))

(* Two structurally identical one-stage circuits whose device ids and
   names differ: blocks added in opposite order, different prefixes. *)
let stage ~flipped name =
  let b = Builder.create ~name ~perf_class:"ota" in
  let dp p =
    ignore
      (Blocks.diff_pair ~w:1.6 ~h:1.1 b ~prefix:p ~inp:"ip" ~inn:"in"
         ~outp:"op" ~outn:"on" ~tail:"tl")
  and ld p =
    ignore (Blocks.load_pair ~w:1.6 ~h:1.0 b ~prefix:p ~outp:"op" ~outn:"on" ~bias:"vb")
  in
  if flipped then begin
    ld "zz";
    dp "aa"
  end
  else begin
    dp "dp";
    ld "ml"
  end;
  Builder.build b

let motif_tests =
  [
    Alcotest.test_case "hash ignores device numbering and names" `Quick
      (fun () ->
        let a = stage ~flipped:false "A" and b = stage ~flipped:true "B" in
        Alcotest.(check (list string))
          "same motif hashes in any construction order" (hashes_of a)
          (hashes_of b));
    Alcotest.test_case "hash is canonical over JSON field order" `Quick
      (fun () ->
        let c = Circuits.Testcases.cc_ota () in
        List.iter
          (fun (m, _, _) ->
            match Motif.to_json m with
            | Jsonio.Obj fields ->
                let shuffled = Jsonio.Obj (List.rev fields) in
                Alcotest.(check string)
                  "sorted encoding independent of field order"
                  (Jsonio.to_string (Jsonio.sorted (Motif.to_json m)))
                  (Jsonio.to_string (Jsonio.sorted shuffled))
            | _ -> Alcotest.fail "motif json is not an object")
          (motifs_of c));
    Alcotest.test_case "distinct motifs hash apart" `Quick (fun () ->
        let c = Circuits.Testcases.cc_ota () in
        let hs = hashes_of c in
        let dedup = List.sort_uniq String.compare hs in
        (* CC-OTA: dp+cc+ml pairs, tail, bias row, cap pair are all
           structurally different *)
        Alcotest.(check int) "six distinct motifs" 6 (List.length dedup);
        Alcotest.(check int) "no accidental collisions" (List.length hs)
          (List.length dedup));
    Alcotest.test_case "instantiate round-trips the decomposed island"
      `Quick (fun () ->
        let c = Circuits.Testcases.scaled ~devices:24 in
        List.iter
          (fun isl ->
            let _, slots, seed = Motif.of_island c isl in
            let isl' = Motif.instantiate ~slots seed in
            (* instantiate emits devices in canonical slot order, which
               may differ from decompose order — the placement content
               must be identical *)
            let by_dev i =
              List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
                (members i)
            in
            Alcotest.(check (list int))
              "same device set"
              (List.map (fun (d, _, _, _) -> d) (by_dev isl))
              (List.map (fun (d, _, _, _) -> d) (by_dev isl'));
            List.iter2
              (fun (_, dx, dy, o) (_, dx', dy', o') ->
                Alcotest.(check bool) "offsets bit-equal" true
                  (Float.equal dx dx' && Float.equal dy dy');
                Alcotest.(check bool) "orientation preserved" true
                  (Geometry.Orient.equal o o'))
              (by_dev isl) (by_dev isl');
            Alcotest.(check bool) "same bounding box" true
              (Float.equal isl.Island.w isl'.Island.w
              && Float.equal isl.Island.h isl'.Island.h))
          (Island.decompose c));
    Alcotest.test_case "mirror_x involution on every island" `Quick
      (fun () ->
        let c = Circuits.Testcases.scaled ~devices:24 in
        List.iter
          (fun isl ->
            let isl' = Island.mirror_x (Island.mirror_x isl) in
            List.iter2
              (fun (_, dx, dy, o) (_, dx', dy', o') ->
                (* the offset reflection w -. (w -. dx) can round in
                   the last ulp; the documented exact guarantee is on
                   orientations *)
                Alcotest.(check bool) "offset round-trips" true
                  (Float.abs (dx -. dx') < 1e-9 && Float.abs (dy -. dy') < 1e-9);
                Alcotest.(check bool) "orient round-trips exactly" true
                  (Geometry.Orient.equal o o'))
              (members isl) (members isl'))
          (Island.decompose c))
  ]

(* ---- Pareto families ---- *)

let dominates (a : Motif.packing) (b : Motif.packing) =
  a.Motif.pw <= b.Motif.pw && a.Motif.ph <= b.Motif.ph
  && a.Motif.p_hpwl <= b.Motif.p_hpwl
  && (a.Motif.pw < b.Motif.pw || a.Motif.ph < b.Motif.ph
     || a.Motif.p_hpwl < b.Motif.p_hpwl)

let packing_equal (a : Motif.packing) (b : Motif.packing) =
  Float.equal a.Motif.pw b.Motif.pw
  && Float.equal a.Motif.ph b.Motif.ph
  && Float.equal a.Motif.p_hpwl b.Motif.p_hpwl
  && Array.for_all2 Float.equal a.Motif.px b.Motif.px
  && Array.for_all2 Float.equal a.Motif.py b.Motif.py
  && a.Motif.por = b.Motif.por

let pareto_tests =
  [
    Alcotest.test_case "families are clean Pareto fronts, seed first"
      `Quick (fun () ->
        let c = Circuits.Testcases.scaled ~devices:24 in
        List.iter
          (fun (m, _, seed) ->
            let fam = Motif.candidates m ~seed in
            Alcotest.(check bool) "non-empty" true (Array.length fam > 0);
            Alcotest.(check bool) "seed is entry zero" true
              (packing_equal fam.(0) seed);
            Array.iteri
              (fun i a ->
                Array.iteri
                  (fun j b ->
                    if i <> j && j > 0 then
                      Alcotest.(check bool)
                        "no non-seed member is dominated" false
                        (dominates a b))
                  fam)
              fam)
          (motifs_of c));
    Alcotest.test_case "multi-row groups get non-singleton families"
      `Quick (fun () ->
        let c = Circuits.Testcases.scaled ~devices:12 in
        let sizes =
          List.map (fun (m, _, seed) -> Array.length (Motif.candidates m ~seed))
            (motifs_of c)
        in
        Alcotest.(check bool)
          (Fmt.str "some family has alternatives (%a)"
             Fmt.(list ~sep:comma int) sizes)
          true
          (List.exists (fun n -> n > 1) sizes));
    Alcotest.test_case "candidate generation is deterministic" `Quick
      (fun () ->
        let c = Circuits.Testcases.cc_ota () in
        List.iter
          (fun (m, _, seed) ->
            let f1 = Motif.candidates m ~seed
            and f2 = Motif.candidates m ~seed in
            Alcotest.(check int) "same size" (Array.length f1)
              (Array.length f2);
            Array.iteri
              (fun i p -> Alcotest.(check bool) "bit-equal" true
                  (packing_equal p f2.(i)))
              f1)
          (motifs_of c))
  ]

(* ---- the store ---- *)

let with_tmp_dir f =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tmplstore-%d" (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  (try rm d with Sys_error _ -> ());
  Fun.protect ~finally:(fun () -> try rm d with Sys_error _ -> ())
    (fun () -> f d)

let store_tests =
  [
    Alcotest.test_case "JSONL persistence round-trips bit-exactly" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            let c = Circuits.Testcases.scaled ~devices:12 in
            let s1 = Store.create ~dir () in
            let fams1 =
              List.map (fun (m, _, seed) -> Store.family s1 m ~seed)
                (motifs_of c)
            in
            (* a fresh store over the same directory must serve the
               same families from disk, bit for bit *)
            let s2 = Store.create ~dir () in
            let fams2 =
              List.map (fun (m, _, seed) -> Store.family s2 m ~seed)
                (motifs_of c)
            in
            List.iter2
              (fun f1 f2 ->
                Alcotest.(check int) "family size survives" (Array.length f1)
                  (Array.length f2);
                Array.iteri
                  (fun i p ->
                    Alcotest.(check bool) "packing bit-equal" true
                      (packing_equal p f2.(i)))
                  f1)
              fams1 fams2));
    Alcotest.test_case "packing json decode rejects malformed input"
      `Quick (fun () ->
        let c = Circuits.Testcases.cc_ota () in
        let m, _, seed = List.hd (motifs_of c) in
        let j = Motif.packing_to_json seed in
        (match Motif.packing_of_json j with
        | Ok p -> Alcotest.(check bool) "round-trip" true (packing_equal p seed)
        | Error e -> Alcotest.failf "decode failed: %s" e);
        (match Motif.packing_of_json (Jsonio.Str "nope") with
        | Ok _ -> Alcotest.fail "accepted a string"
        | Error _ -> ());
        ignore m);
    Alcotest.test_case "concurrent family requests dedupe (4-domain \
                        hammer)" `Quick (fun () ->
        let c = Circuits.Testcases.cc_ota () in
        let m, _, seed = List.hd (motifs_of c) in
        let store = Store.create () in
        let fams =
          Pool.with_pool ~jobs:4 (fun p ->
              Pool.map p
                (fun _ ->
                  (* placer-lint: allow P2 hammering one motif from every task is the point of this test; the store serialises access behind the Cache lock *)
                  Store.family store m ~seed)
                (Array.init 8 Fun.id))
        in
        let s = Store.stats store in
        Alcotest.(check int) "one computation" 1 s.Cache.misses;
        Alcotest.(check int) "seven hits" 7 s.Cache.hits;
        Array.iter
          (fun f ->
            Alcotest.(check int) "same family everywhere"
              (Array.length fams.(0)) (Array.length f))
          fams)
  ]

(* ---- the composition placer ---- *)

let placer_tests =
  [
    Alcotest.test_case "template method matches SA quality on CC-OTA"
      `Quick (fun () ->
        let c = Circuits.Testcases.cc_ota () in
        let run spec =
          match (M.of_spec spec).M.run c with
          | Some o -> o.M.layout
          | None -> Alcotest.fail "placement failed"
        in
        let sa =
          run { (M.default_spec M.Sa) with M.moves = 200_000 }
        in
        let tmpl =
          run { (M.default_spec M.Template) with M.moves = 25_000 }
        in
        Alcotest.(check int) "template layout is legal" 0
          (List.length (Netlist.Checks.all tmpl));
        let ratio = Netlist.Layout.area tmpl /. Netlist.Layout.area sa in
        Alcotest.(check bool)
          (Fmt.str "area within 25%% of SA (ratio %.3f)" ratio)
          true
          (ratio < 1.25));
    Alcotest.test_case "template placement is deterministic" `Quick
      (fun () ->
        let c = Circuits.Testcases.scaled ~devices:24 in
        let place () =
          let store = Store.create () in
          let l, cost = Tp.place ~store c in
          (Netlist.Io.placement_to_string l, cost)
        in
        let l1, c1 = place () and l2, c2 = place () in
        Alcotest.(check string) "bit-identical layout text" l1 l2;
        Alcotest.(check bool) "bit-identical cost" true (Float.equal c1 c2));
    Alcotest.test_case "spec round-trips through json" `Quick (fun () ->
        let s = M.default_spec M.Template in
        match M.spec_of_json (M.spec_to_json s) with
        | Ok s' ->
            Alcotest.(check string) "same canonical form" (M.spec_canonical s)
              (M.spec_canonical s');
            Alcotest.(check string) "same hash" (M.spec_hash s)
              (M.spec_hash s')
        | Error e -> Alcotest.failf "decode failed: %s" e)
  ]

(* ---- pin: motifs, families and instantiated members ---- *)

(* One line per decomposed island: motif hash, family length, a digest
   of the family's packing_to_json lines and a digest of every
   instantiated member's devices, offsets (hex) and orientations. The
   expected lines were captured before island packing moved into
   Annealing.Island and must not be regenerated to make a refactor
   pass. *)
let pin_lines name =
  let c = Circuits.Testcases.get_exn name in
  List.mapi
    (fun k isl ->
      let m, slots, seed = Motif.of_island c isl in
      let fam = Motif.candidates m ~seed in
      let packings =
        Array.to_list fam
        |> List.map (fun p -> Jsonio.to_string (Motif.packing_to_json p))
      in
      let member_text p =
        let isl' = Motif.instantiate ~slots p in
        Printf.sprintf "w=%h h=%h %s" isl'.Island.w isl'.Island.h
          (String.concat ";"
             (List.map
                (fun (d, dx, dy, (o : Geometry.Orient.t)) ->
                  Printf.sprintf "%d,%h,%h,%b,%b" d dx dy o.Geometry.Orient.fx
                    o.Geometry.Orient.fy)
                (members isl')))
      in
      let md5 lines =
        Digest.to_hex (Digest.string (String.concat "\n" lines))
      in
      Printf.sprintf "%s#%d motif=%s family=%d packings=%s members=%s" name k
        (Motif.hash m) (Array.length fam) (md5 packings)
        (md5 (List.map member_text (Array.to_list fam))))
    (Island.decompose c)

let pin_expected =
  [
    "Adder#0 motif=c681eb675fe25d4c8596facccd064c6f family=1"
    ^ " packings=7ad3126f13ef269018cb6d808af833c3 members=55b68b9d0f044e8571ba9dc8c0f802e1";
    "Adder#1 motif=941926399ca7695d5b5e7a01a29403d8 family=1"
    ^ " packings=4ade1ae0f9fb8d8eeacd6de25cf3df75 members=1db33f41d0fefe39843344d763010939";
    "Adder#2 motif=cdbb2d0d28a02db963d9b522aafdc47d family=1"
    ^ " packings=ecb3d2dd37de28ee752175f70197c19d members=36528a8f697025eec730a55d9c7022a0";
    "Adder#3 motif=e33eab5f701ff66c3a525f02b02ceffe family=1"
    ^ " packings=2ca902febf596e7865b7d74b5994f98d members=d3259d34531056fefb6d04667cfd1af9";
    "Adder#4 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=1decbc28ac69f1d145a48a2621736635";
    "Adder#5 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=bd32e31c36919052f82920f4115840b3";
    "Adder#6 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=ff7737454bfbbc5647fd33971ec1bd73";
    "Adder#7 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=4d6c243f3b13a096c5689f8b41b90b2c";
    "Adder#8 motif=0260f0fd3becd8d8688f51c95c2b8aa0 family=1"
    ^ " packings=7202c23f355a030c9eac9aac35951af1 members=d1ae3cf64a142904b9aaf5455d00f715";
    "Adder#9 motif=0260f0fd3becd8d8688f51c95c2b8aa0 family=1"
    ^ " packings=7202c23f355a030c9eac9aac35951af1 members=a80d2e411b26bd5a8937e4f5c4b18767";
    "CC-OTA#0 motif=abbc5a4350fd5ee096f28d9b7a5629aa family=1"
    ^ " packings=976a2e3184e140e6b539f0c38f327a69 members=9b76058b77b62a816312787e01136bdd";
    "CC-OTA#1 motif=7c7c503a61e18bfae2598dee092c3ce9 family=1"
    ^ " packings=4e0f583f37334867626c2f5ff43ae29b members=bdd893772db924cf9f810bb0b633122e";
    "CC-OTA#2 motif=941926399ca7695d5b5e7a01a29403d8 family=1"
    ^ " packings=4ade1ae0f9fb8d8eeacd6de25cf3df75 members=9b67b8af610dae8fe7c8aacf36a09916";
    "CC-OTA#3 motif=2ade39f3172fe7e66b46ac8429412129 family=1"
    ^ " packings=4f3cb5216796da0988b541bc6c93cea7 members=a35c481c9a796806f09446586632aba3";
    "CC-OTA#4 motif=57d34e8dd3ee34e2da06066ebce1fbc3 family=1"
    ^ " packings=a75f4eb85e4c393156c1831c3753e7a0 members=2b857bb1c00e79a6abbfbe9fe7172ebd";
    "CC-OTA#5 motif=ca6b53f6d6992d7a4cc70ab5710fae32 family=1"
    ^ " packings=6198ab4d9baa353a84392646140ececc members=a046060c5aef23d394628f22ad500435";
    "Comp1#0 motif=3a3aab64b772218051bc2bf14da2251c family=1"
    ^ " packings=605cc3a3085060e20a8421e69c248f04 members=d7b4d2f2e4bbad088726a9b63d8736d5";
    "Comp1#1 motif=3a3aab64b772218051bc2bf14da2251c family=1"
    ^ " packings=605cc3a3085060e20a8421e69c248f04 members=1bb2fdb582373750303014209c06ec0b";
    "Comp1#2 motif=d41c88a210915e01a53b1eef07e47549 family=1"
    ^ " packings=0e38e4098000891febaa106f0615308e members=c80ded245ebab57aa32b7e6c7d1eef8c";
    "Comp1#3 motif=c681eb675fe25d4c8596facccd064c6f family=1"
    ^ " packings=7ad3126f13ef269018cb6d808af833c3 members=38bde97d03240f43550fe4e44865f2a7";
    "Comp1#4 motif=cdbb2d0d28a02db963d9b522aafdc47d family=1"
    ^ " packings=ecb3d2dd37de28ee752175f70197c19d members=36528a8f697025eec730a55d9c7022a0";
    "Comp1#5 motif=39efe15c4cd90c9599d0789016df8306 family=1"
    ^ " packings=0617f34e61714164c875078a1cb71ff9 members=4e3c54b16e53973f7eebbecb3a6173c0";
    "Comp1#6 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=0db07ca0349b3c8f1eb6f3a12304f496";
    "Comp1#7 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=fef240d5ecf91f42283d4de4722829e5";
    "Comp1#8 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=c1656aaa7a466fad244666b29d430be1";
    "Comp1#9 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=c6ffbadfddf5faa5af006c152f5cb723";
    "Comp2#0 motif=3a3aab64b772218051bc2bf14da2251c family=1"
    ^ " packings=605cc3a3085060e20a8421e69c248f04 members=d7b4d2f2e4bbad088726a9b63d8736d5";
    "Comp2#1 motif=3a3aab64b772218051bc2bf14da2251c family=1"
    ^ " packings=605cc3a3085060e20a8421e69c248f04 members=1bb2fdb582373750303014209c06ec0b";
    "Comp2#2 motif=d41c88a210915e01a53b1eef07e47549 family=1"
    ^ " packings=0e38e4098000891febaa106f0615308e members=c80ded245ebab57aa32b7e6c7d1eef8c";
    "Comp2#3 motif=c681eb675fe25d4c8596facccd064c6f family=1"
    ^ " packings=7ad3126f13ef269018cb6d808af833c3 members=38bde97d03240f43550fe4e44865f2a7";
    "Comp2#4 motif=abbc5a4350fd5ee096f28d9b7a5629aa family=1"
    ^ " packings=976a2e3184e140e6b539f0c38f327a69 members=bf9589b635f5e960cfb7830dec7f5dc6";
    "Comp2#5 motif=941926399ca7695d5b5e7a01a29403d8 family=1"
    ^ " packings=4ade1ae0f9fb8d8eeacd6de25cf3df75 members=008ddcb3d5e0c16ebfa0d0e3d776eacf";
    "Comp2#6 motif=26abd827414828901d9f3018bf614e22 family=1"
    ^ " packings=36eb8cd08055f4c5d4db7e929bd4b70c members=7250a098412293104b8fd6780c8c713b";
    "Comp2#7 motif=2129871c16a08db5e3c8e9ba99afaff4 family=1"
    ^ " packings=c8faa12c4da82f37b26c140a2a39dbdf members=0cfe0450414effc2b3ae6645f3a0ade7";
    "Comp2#8 motif=cdbb2d0d28a02db963d9b522aafdc47d family=1"
    ^ " packings=ecb3d2dd37de28ee752175f70197c19d members=36528a8f697025eec730a55d9c7022a0";
    "Comp2#9 motif=39efe15c4cd90c9599d0789016df8306 family=1"
    ^ " packings=0617f34e61714164c875078a1cb71ff9 members=4e3c54b16e53973f7eebbecb3a6173c0";
    "Comp2#10 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=0db07ca0349b3c8f1eb6f3a12304f496";
    "Comp2#11 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=fef240d5ecf91f42283d4de4722829e5";
    "Comp2#12 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=c1656aaa7a466fad244666b29d430be1";
    "Comp2#13 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=c6ffbadfddf5faa5af006c152f5cb723";
    "Comp2#14 motif=32718b764bd4ca890975aece97137d4d family=1"
    ^ " packings=3f477260898b0a3c876cb0d18c840bc7 members=fb85542ea794d3476999dfd783d1c01d";
    "CM-OTA1#0 motif=abbc5a4350fd5ee096f28d9b7a5629aa family=1"
    ^ " packings=976a2e3184e140e6b539f0c38f327a69 members=9b76058b77b62a816312787e01136bdd";
    "CM-OTA1#1 motif=9e85060e4c150cb75f5e6c9393d5e1f5 family=1"
    ^ " packings=605cc3a3085060e20a8421e69c248f04 members=0db01caec3345970dd06c5dcadcf449f";
    "CM-OTA1#2 motif=9e85060e4c150cb75f5e6c9393d5e1f5 family=1"
    ^ " packings=605cc3a3085060e20a8421e69c248f04 members=f594928aaa76c467371bd8859411b933";
    "CM-OTA1#3 motif=4b3d31dd5d21f4e58cf9aac50248b09b family=1"
    ^ " packings=7ad3126f13ef269018cb6d808af833c3 members=38bde97d03240f43550fe4e44865f2a7";
    "CM-OTA1#4 motif=35d42c985b07c74b1c118117729e34ad family=1"
    ^ " packings=070af122d2f1e5c73cd23c7847b56a04 members=b3416a6d48c8454224ed1b671405ab4e";
    "CM-OTA1#5 motif=ca1877f42954fb81743529351d3c0d80 family=1"
    ^ " packings=8be07cfba5ca13704006b3f07b628331 members=a644f2471e77ac3d585bc7212ace42ce";
    "CM-OTA1#6 motif=d4f6034a7d036da916d661374ad3a787 family=1"
    ^ " packings=7a49a85c0887315d14230fa6901e18d8 members=6dc9d914605cbc605fbbc47ea98d4bc7";
    "CM-OTA1#7 motif=7f75ee21a94c5d6a4393cd87c93fab84 family=1"
    ^ " packings=318cf1f9773c2c403c5f2087b363dc25 members=09ad4edeaff0dbe76fe06bc33e4afb9f";
    "CM-OTA2#0 motif=d65a62f6dacf5026ca0b11eb00331462 family=1"
    ^ " packings=428dd582d38f581e27b9c5c2ae7e957d members=33d97e25f1930d065c7be667a1ed3261";
    "CM-OTA2#1 motif=1d1a2edc9da621dae917fd3bbc661515 family=1"
    ^ " packings=4ade1ae0f9fb8d8eeacd6de25cf3df75 members=e40b51e7fd10e27088ee4d4cc979d9b3";
    "CM-OTA2#2 motif=1d1a2edc9da621dae917fd3bbc661515 family=1"
    ^ " packings=4ade1ae0f9fb8d8eeacd6de25cf3df75 members=5e07c6f8f266d2754b22104bddd50c49";
    "CM-OTA2#3 motif=9e85060e4c150cb75f5e6c9393d5e1f5 family=1"
    ^ " packings=605cc3a3085060e20a8421e69c248f04 members=077f8f06bdbde2ef5034b217951cfe39";
    "CM-OTA2#4 motif=b8971fd16c1ad2e8914dc37e513b0bff family=1"
    ^ " packings=3608150576d968b0e7967ac9b59357fa members=5f4ac0db0b54053710b9c5fbe792c0f1";
    "CM-OTA2#5 motif=6b554dfcc53cdc0ea1b9888d93f28c79 family=1"
    ^ " packings=4e7b5e531d331d8d03c5534ccbc87f60 members=1106ee84e76ebf19800c1fdf2f3480cb";
    "CM-OTA2#6 motif=b9772d7bd7fb0fff338f1b5be8a5274d family=1"
    ^ " packings=b76a7ace5456d579ddf556543e60a6e5 members=d2d797795a6d5b9c78360e323d886d2e";
    "CM-OTA2#7 motif=7a3b88b75a9124b492019233a401b6c0 family=1"
    ^ " packings=c4c41df7efb3a85fd6fa3944458843c9 members=81f1b5dc0bee0e9dbe88f426e164f017";
    "CM-OTA2#8 motif=8ac32136ee0bab019360d690b59ee10f family=1"
    ^ " packings=2e92b634e7cca819676b3cd803bed92c members=2cb463f4bd850e18e9391da9ee73b58f";
    "CM-OTA2#9 motif=a64099d71527f68920d983e82e7506b2 family=1"
    ^ " packings=b839eb859f6aa32c9bdac21872541ad4 members=cc8097ac2f4e04ec8bac34655d53e220";
    "CM-OTA2#10 motif=ac9d9c3a01de7874feede7ae394c3355 family=1"
    ^ " packings=b3c0e2d4f17c25d2c623386351d04e43 members=1d97f051de2b1361d0c36f72986e9901";
    "CM-OTA2#11 motif=c6937b7b3896a87b76ae6aea2f14f269 family=1"
    ^ " packings=db8a77f32dbf8b57aba7a15545a20f32 members=0cb89bb6f5728f99e7dad8890dd0221f";
    "SCF#0 motif=01aadd6e6a2e32d76078e746176992dc family=1"
    ^ " packings=bdc3fd72694633fcd6ace89cbde99cf0 members=e651ca07d9bfc910342520c395e53b9a";
    "SCF#1 motif=f17a84488db0a4a557ada527cd5b8ac5 family=1"
    ^ " packings=3711fb0476ac41924bcb8ed53a94b1bf members=f7927eabdd6ee1b07c18e4a4fa05622f";
    "SCF#2 motif=db3b476a7ca81e2decc28c5b78af3c80 family=1"
    ^ " packings=976a2e3184e140e6b539f0c38f327a69 members=592d494d843ce5b89e22dd76bccbaa58";
    "SCF#3 motif=473890b37b3c6d9cd091600649c2de18 family=1"
    ^ " packings=df93b657a4a4a92247dbcb23292fbda7 members=53f2439a7415511e0bb7e43c73af0390";
    "SCF#4 motif=473890b37b3c6d9cd091600649c2de18 family=1"
    ^ " packings=df93b657a4a4a92247dbcb23292fbda7 members=1a42f3087e43fb490e4c8c1633d35541";
    "SCF#5 motif=ab30230a86c5ed4b674905d17921157b family=1"
    ^ " packings=86be78cc30f550a3cc5ace9ce845e89d members=eaa7542a9cc88b9200e68eb7366979b9";
    "SCF#6 motif=13f8d442242aedd284d5411ec395092d family=1"
    ^ " packings=94bd177eab8d5fd2bb51e4a77383f5ef members=f200ff0845ffade514321ed835afeef3";
    "SCF#7 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=269fbbd3fa5ee3b03f93c8a1e283463e";
    "SCF#8 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=a697d6d7d085a1907757da9d9b56d72d";
    "SCF#9 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=4952904030c336fdf2960eea88bac635";
    "SCF#10 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=6d19a71c3257483afafbf4c60f77cffa";
    "SCF#11 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=fc1983077ca2c56819d0edc4ed2c06e4";
    "SCF#12 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=cef2fd8c463e795fcd957d61db5119ff";
    "SCF#13 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=5d64a738c0cffa867124d3814204e5c6";
    "SCF#14 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=13198addca22b6c4ed5866ca1060c26a";
    "SCF#15 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=74a524287f03d54f7c5fde0d0b313296";
    "SCF#16 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=de285a6eff43ea67ae51f1c7ea681697";
    "VGA#0 motif=3a3aab64b772218051bc2bf14da2251c family=1"
    ^ " packings=605cc3a3085060e20a8421e69c248f04 members=d7b4d2f2e4bbad088726a9b63d8736d5";
    "VGA#1 motif=3a3aab64b772218051bc2bf14da2251c family=1"
    ^ " packings=605cc3a3085060e20a8421e69c248f04 members=f594928aaa76c467371bd8859411b933";
    "VGA#2 motif=6b554dfcc53cdc0ea1b9888d93f28c79 family=1"
    ^ " packings=4e7b5e531d331d8d03c5534ccbc87f60 members=980d897cba031eb647a33cca0b529acb";
    "VGA#3 motif=ca1877f42954fb81743529351d3c0d80 family=1"
    ^ " packings=8be07cfba5ca13704006b3f07b628331 members=7fbb54845694bf56a97039de45329c6d";
    "VGA#4 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=0737ef72022084483e0b384532a49162";
    "VGA#5 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=9eecdf3d0499244eb7fa09593033cb76";
    "VGA#6 motif=cdbb2d0d28a02db963d9b522aafdc47d family=1"
    ^ " packings=ecb3d2dd37de28ee752175f70197c19d members=36528a8f697025eec730a55d9c7022a0";
    "VGA#7 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=bd32e31c36919052f82920f4115840b3";
    "VGA#8 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=ff7737454bfbbc5647fd33971ec1bd73";
    "VGA#9 motif=cdbb2d0d28a02db963d9b522aafdc47d family=1"
    ^ " packings=ecb3d2dd37de28ee752175f70197c19d members=c4ec9e338f055a1174e6666cb616d7c6";
    "VGA#10 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=f80f9d9a45e59b6597c96d1b4e85b84d";
    "VGA#11 motif=f3a473d15f91052ca13b4eeb74fc9729 family=1"
    ^ " packings=0d82deb45ca2eb6138b504d01143e59f members=57b450a7407128cbe1d3a23d80fa15bf";
    "VCO1#0 motif=9119191d28fc1b81cba89ac8213e920c family=1"
    ^ " packings=76bcd60159a41a35d8360e121ec0345b members=54fc7f755f28d5a4222e352ce681d2c3";
    "VCO1#1 motif=9119191d28fc1b81cba89ac8213e920c family=1"
    ^ " packings=76bcd60159a41a35d8360e121ec0345b members=0a57bde21e6185cbca87f9283b4d5b4f";
    "VCO1#2 motif=4b3d31dd5d21f4e58cf9aac50248b09b family=1"
    ^ " packings=7ad3126f13ef269018cb6d808af833c3 members=6a36f066e995b1f9a107e9d9e1b2e680";
    "VCO1#3 motif=70e7d2694d35cbd2f85a84acade0b071 family=1"
    ^ " packings=cd003f799385f2105ba15052bebbbb3d members=aa49e5acce3c0caff82f62e992067900";
    "VCO1#4 motif=70e7d2694d35cbd2f85a84acade0b071 family=1"
    ^ " packings=cd003f799385f2105ba15052bebbbb3d members=b2a5967086f7d13f91e6c4455de22e90";
    "VCO1#5 motif=70e7d2694d35cbd2f85a84acade0b071 family=1"
    ^ " packings=cd003f799385f2105ba15052bebbbb3d members=b86f843bf45982c7a06e8090253d3224";
    "VCO1#6 motif=70e7d2694d35cbd2f85a84acade0b071 family=1"
    ^ " packings=cd003f799385f2105ba15052bebbbb3d members=a816a75bf0857f400e08d2e1e997c372";
    "VCO1#7 motif=70e7d2694d35cbd2f85a84acade0b071 family=1"
    ^ " packings=cd003f799385f2105ba15052bebbbb3d members=ee79351b902ecf6ac1c76a385b3a685b";
    "VCO1#8 motif=5362963beed2d2bd3648f6a4447d65c4 family=2"
    ^ " packings=e299a727e81cf64018a0e79be358de0c members=37237d40cdaba52f8dc806219ad182e2";
    "VCO2#0 motif=029bb8d9aa5c97a8222b62e0570e5b57 family=1"
    ^ " packings=1073ab63ef856d374cdb94a0b1f33dbc members=be2bd62d83674d368390e04924aeddca";
    "VCO2#1 motif=94d04afd9fe92b97bcd33d12caa40a13 family=1"
    ^ " packings=75b51584bcfc5471a70f42fb96982eab members=a4d0521d794b1764ade86190f6e05d32";
    "VCO2#2 motif=029bb8d9aa5c97a8222b62e0570e5b57 family=1"
    ^ " packings=1073ab63ef856d374cdb94a0b1f33dbc members=a09cff35e2847b5cd4f909297d761312";
    "VCO2#3 motif=94d04afd9fe92b97bcd33d12caa40a13 family=1"
    ^ " packings=75b51584bcfc5471a70f42fb96982eab members=1bdcd39732361482469872061a534551";
    "VCO2#4 motif=029bb8d9aa5c97a8222b62e0570e5b57 family=1"
    ^ " packings=1073ab63ef856d374cdb94a0b1f33dbc members=1892bd5cf15529a22ffa7bc3dc88b190";
    "VCO2#5 motif=94d04afd9fe92b97bcd33d12caa40a13 family=1"
    ^ " packings=75b51584bcfc5471a70f42fb96982eab members=b27c2d2b7969c2f81357ccfc421efffa";
    "VCO2#6 motif=029bb8d9aa5c97a8222b62e0570e5b57 family=1"
    ^ " packings=1073ab63ef856d374cdb94a0b1f33dbc members=4f9e9177a40761ec03aa946631f61155";
    "VCO2#7 motif=94d04afd9fe92b97bcd33d12caa40a13 family=1"
    ^ " packings=75b51584bcfc5471a70f42fb96982eab members=2b13269e1e0f124b91abb75d869d4b57";
    "VCO2#8 motif=e0f21a9ae79be65d9a6d08478ccc0fa0 family=1"
    ^ " packings=65c86205269c77dca7895e934d09f0da members=55a285f904553ff02c8042318d9cf1a2";
    "VCO2#9 motif=e0f21a9ae79be65d9a6d08478ccc0fa0 family=1"
    ^ " packings=65c86205269c77dca7895e934d09f0da members=d3af3843009429348f287b6da5832a99";
    "VCO2#10 motif=4b3d31dd5d21f4e58cf9aac50248b09b family=1"
    ^ " packings=7ad3126f13ef269018cb6d808af833c3 members=c5e50ec0c9028939553ad905e7ea6aaa";
    "VCO2#11 motif=af7118bd32711a8ffe6c1cf6d79a2b9e family=1"
    ^ " packings=7214d779e0e5aadc8cdea33b15b176c1 members=90f0a05065cf94726a5c07a6fe31b038";
    "VCO2#12 motif=af7118bd32711a8ffe6c1cf6d79a2b9e family=1"
    ^ " packings=7214d779e0e5aadc8cdea33b15b176c1 members=addc420ccd133441365e733a8872707d";
    "VCO2#13 motif=af7118bd32711a8ffe6c1cf6d79a2b9e family=1"
    ^ " packings=7214d779e0e5aadc8cdea33b15b176c1 members=29a054bab2107e8f32f593e222046bd0";
    "VCO2#14 motif=af7118bd32711a8ffe6c1cf6d79a2b9e family=1"
    ^ " packings=7214d779e0e5aadc8cdea33b15b176c1 members=6c95615d308055d12e9726102e83c4fa";
    "VCO2#15 motif=5362963beed2d2bd3648f6a4447d65c4 family=2"
    ^ " packings=e299a727e81cf64018a0e79be358de0c members=5a07557a43bc4a1b6242dc57e97969bb";
    "Scaled-40#0 motif=6b3cbc2162d68bf47dc2753e5d353b80 family=2"
    ^ " packings=a6ee23420c68cd76f72a509742461073 members=cd2b24bc07280ab73bea48adcd764e8b";
    "Scaled-40#1 motif=943f509eada16c506c2f20840a69c85e family=1"
    ^ " packings=476e6078c8b18b31a00882ff4ff9ee7d members=60ee019d98820d400302667219e3d1f2";
    "Scaled-40#2 motif=941926399ca7695d5b5e7a01a29403d8 family=1"
    ^ " packings=4ade1ae0f9fb8d8eeacd6de25cf3df75 members=03097d75a0ce763771a27b6e19b7a720";
    "Scaled-40#3 motif=6b3cbc2162d68bf47dc2753e5d353b80 family=2"
    ^ " packings=a6ee23420c68cd76f72a509742461073 members=45f3b26ea8dfa4a60a9da6ecc0542eae";
    "Scaled-40#4 motif=943f509eada16c506c2f20840a69c85e family=1"
    ^ " packings=476e6078c8b18b31a00882ff4ff9ee7d members=e72d60f212de8fe18e80be6fe43cbf2c";
    "Scaled-40#5 motif=941926399ca7695d5b5e7a01a29403d8 family=1"
    ^ " packings=4ade1ae0f9fb8d8eeacd6de25cf3df75 members=80d7dc6c4ebbd8ecc0341bd30b8801bf";
    "Scaled-40#6 motif=6b3cbc2162d68bf47dc2753e5d353b80 family=2"
    ^ " packings=a6ee23420c68cd76f72a509742461073 members=51fab171f2eeccc847a14e143793de43";
    "Scaled-40#7 motif=943f509eada16c506c2f20840a69c85e family=1"
    ^ " packings=476e6078c8b18b31a00882ff4ff9ee7d members=fa97cb59d6071f1694c33694f44af294";
    "Scaled-40#8 motif=941926399ca7695d5b5e7a01a29403d8 family=1"
    ^ " packings=4ade1ae0f9fb8d8eeacd6de25cf3df75 members=65861f70b4e3c93db99478648c1e02e0";
    "Scaled-40#9 motif=6b3cbc2162d68bf47dc2753e5d353b80 family=2"
    ^ " packings=a6ee23420c68cd76f72a509742461073 members=80f90137618af589a734cc19ea67b6d5";
    "Scaled-40#10 motif=943f509eada16c506c2f20840a69c85e family=1"
    ^ " packings=476e6078c8b18b31a00882ff4ff9ee7d members=0ff4bc5bc5e1f285ebac16b1d1b3b031";
    "Scaled-40#11 motif=941926399ca7695d5b5e7a01a29403d8 family=1"
    ^ " packings=4ade1ae0f9fb8d8eeacd6de25cf3df75 members=6eb70b50039e579fbe44dc47e5ddf055";
    "Scaled-40#12 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=d0ea01a2700c9b499b0aee985dc5cacc";
    "Scaled-40#13 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=fef240d5ecf91f42283d4de4722829e5";
    "Scaled-40#14 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=74a524287f03d54f7c5fde0d0b313296";
    "Scaled-40#15 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=65849a486f698932ec056836301f90f7";
    "Scaled-40#16 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=ad5f4f8ebbf43e2641610e349cf496bc";
    "Scaled-40#17 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=4e31822b31e8b847992e9eaaf089287e";
    "Scaled-40#18 motif=3dacfc86f336bf10158a4a8729d94bc7 family=1"
    ^ " packings=43af225bc0b55ed30548927edfcb302b members=0dcf237e6ccfa6c1db87fbfc9b54b2d0";
    "Scaled-40#19 motif=dceabf9f07becf3c5ba89008944c850a family=1"
    ^ " packings=7544f287f73ce3bec19cf58c4b2bf04c members=c8e1f261b866e53f242a17bb334c7328";
  ]

let pin_tests =
  [
    Alcotest.test_case "motif families and instances are pinned" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "pin lines" pin_expected
          (List.concat_map pin_lines
             (Circuits.Testcases.all_names @ [ "Scaled-40" ])));
  ]

let suites =
  [
    ("templates.motif", motif_tests);
    ("templates.pareto", pareto_tests);
    ("templates.store", store_tests);
    ("templates.placer", placer_tests);
    ("templates.pin", pin_tests);
  ]
