(* lib/cache (bounded LRU + single-flight dedup), the Methods.spec
   serialization that keys it, and the hand-rolled JSON codec both ride
   on. The dedupe test hammers one key from a 4-domain pool: exactly
   one computation may run, everyone shares its result. *)

module M = Experiments.Methods

let cache_tests =
  [
    Alcotest.test_case "hit/miss counters" `Quick (fun () ->
        let c = Cache.create ~capacity:4 () in
        let v = Cache.get_or_compute c ~key:"a" (fun () -> 1) in
        Alcotest.(check int) "computed" 1 v;
        Alcotest.(check int) "second call hits" 1
          (Cache.get_or_compute c ~key:"a" (fun () -> 99));
        Alcotest.(check (option int)) "find hits" (Some 1)
          (Cache.find c ~key:"a");
        Alcotest.(check (option int)) "find misses" None
          (Cache.find c ~key:"b");
        let s = Cache.stats c in
        Alcotest.(check int) "hits" 2 s.Cache.hits;
        (* only the computing lookup counts a miss: a find that comes
           back empty leaves the count to the get_or_compute after it *)
        Alcotest.(check int) "misses" 1 s.Cache.misses;
        Alcotest.(check int) "size" 1 s.Cache.size;
        Alcotest.(check int) "evictions" 0 s.Cache.evictions);
    Alcotest.test_case "LRU eviction order" `Quick (fun () ->
        let c = Cache.create ~capacity:2 () in
        let put k v = ignore (Cache.get_or_compute c ~key:k (fun () -> v)) in
        put "a" 1;
        put "b" 2;
        put "c" 3;
        (* a was least recent *)
        Alcotest.(check (option int)) "a evicted" None (Cache.find c ~key:"a");
        Alcotest.(check (option int)) "b stays" (Some 2) (Cache.find c ~key:"b");
        Alcotest.(check (option int)) "c stays" (Some 3) (Cache.find c ~key:"c");
        (* touch b so d evicts c, not b *)
        ignore (Cache.find c ~key:"b");
        put "d" 4;
        Alcotest.(check (option int)) "c evicted after b was touched" None
          (Cache.find c ~key:"c");
        Alcotest.(check (option int)) "b survived" (Some 2)
          (Cache.find c ~key:"b");
        Alcotest.(check int) "two evictions" 2 (Cache.stats c).Cache.evictions;
        Alcotest.(check int) "bounded" 2 (Cache.length c));
    Alcotest.test_case "capacity 1 and bad capacity" `Quick (fun () ->
        Alcotest.check_raises "capacity 0 rejected"
          (Invalid_argument "Cache.create: capacity < 1") (fun () ->
            ignore (Cache.create ~capacity:0 ()));
        let c = Cache.create ~capacity:1 () in
        ignore (Cache.get_or_compute c ~key:"a" (fun () -> 1));
        ignore (Cache.get_or_compute c ~key:"b" (fun () -> 2));
        Alcotest.(check int) "size stays 1" 1 (Cache.length c);
        Alcotest.(check (option int)) "latest wins" (Some 2)
          (Cache.find c ~key:"b"));
    Alcotest.test_case "raising computer withdraws; next caller retries"
      `Quick (fun () ->
        let c = Cache.create ~capacity:4 () in
        (try
           ignore
             (Cache.get_or_compute c ~key:"k" (fun () -> failwith "boom"))
         with Failure _ -> ());
        Alcotest.(check int) "nothing cached" 0 (Cache.length c);
        Alcotest.(check int) "retry computes fresh" 7
          (Cache.get_or_compute c ~key:"k" (fun () -> 7)));
    Alcotest.test_case "concurrent misses dedupe (4-domain hammer)" `Quick
      (fun () ->
        let c = Cache.create ~capacity:4 () in
        let runs = Atomic.make 0 in
        let ys =
          Pool.with_pool ~jobs:4 (fun p ->
              Pool.map p
                (fun _ ->
                  (* placer-lint: allow P2 concurrent writers are the point of this test; Cache serialises access behind its lock *)
                  Cache.get_or_compute c ~key:"shared" (fun () ->
                      (* placer-lint: allow P2 'runs' is an Atomic counting computations across domains *)
                      Atomic.incr runs;
                      (* hold the computation open long enough that the
                         other domains pile up behind the in-flight
                         entry instead of racing past a finished one *)
                      Thread.delay 0.05;
                      42))
                (Array.init 16 Fun.id))
        in
        Alcotest.(check int) "computed exactly once" 1 (Atomic.get runs);
        Array.iter
          (fun y -> Alcotest.(check int) "every caller got the value" 42 y)
          ys;
        let s = Cache.stats c in
        Alcotest.(check int) "one miss" 1 s.Cache.misses;
        Alcotest.(check int) "fifteen hits" 15 s.Cache.hits;
        Alcotest.(check bool) "waits within bound" true
          (s.Cache.dedup_waits <= 15));
  ]

(* ---- Methods.spec serialization ---- *)

let spec_eq = Alcotest.testable
    (fun ppf s -> Fmt.string ppf (M.spec_canonical s))
    (fun a b -> String.equal (M.spec_canonical a) (M.spec_canonical b))

let all_specs =
  List.concat_map
    (fun kind ->
      List.map (fun perf -> M.default_spec ~perf kind) [ false; true ])
    M.all
  @ [
      { (M.default_spec M.Sa) with M.moves = 123; seed = 9; check_every = 50 };
      { (M.default_spec M.Eplace) with M.restarts = 2; alpha = 3.5;
        quick = true };
    ]

let spec_tests =
  [
    Alcotest.test_case "spec -> json -> spec identity" `Quick (fun () ->
        List.iter
          (fun s ->
            match M.spec_of_json (M.spec_to_json s) with
            | Ok s' -> Alcotest.check spec_eq "round trip" s s'
            | Error e -> Alcotest.failf "round trip failed: %s" e)
          all_specs);
    Alcotest.test_case "spec -> string -> spec via parser" `Quick (fun () ->
        List.iter
          (fun s ->
            match M.spec_of_string (M.spec_canonical s) with
            | Ok s' ->
                Alcotest.(check string) "hash stable through text"
                  (M.spec_hash s) (M.spec_hash s')
            | Error e -> Alcotest.failf "parse failed: %s" e)
          all_specs);
    Alcotest.test_case "hash stable across field reordering" `Quick (fun () ->
        let a = {|{"kind":"sa","moves":5000,"seed":3,"perf":false}|} in
        let b = {|{"seed":3,"perf":false,"kind":"sa","moves":5000}|} in
        match (M.spec_of_string a, M.spec_of_string b) with
        | Ok sa, Ok sb ->
            Alcotest.check spec_eq "same spec" sa sb;
            Alcotest.(check string) "same hash" (M.spec_hash sa)
              (M.spec_hash sb)
        | Error e, _ | _, Error e -> Alcotest.failf "parse failed: %s" e);
    Alcotest.test_case "distinct specs hash differently" `Quick (fun () ->
        let base = M.default_spec M.Sa in
        let tweaked = { base with M.seed = base.M.seed + 1 } in
        Alcotest.(check bool) "seed changes the hash" false
          (String.equal (M.spec_hash base) (M.spec_hash tweaked));
        Alcotest.(check bool) "kind changes the hash" false
          (String.equal (M.spec_hash base)
             (M.spec_hash (M.default_spec M.Eplace))));
    Alcotest.test_case "strictness: unknown fields and bad kinds" `Quick
      (fun () ->
        (match M.spec_of_string {|{"kind":"sa","movez":1}|} with
         | Ok _ -> Alcotest.fail "unknown field accepted"
         | Error e ->
             (* the daemon returns this string to clients verbatim *)
             Alcotest.(check string) "message" {|unknown spec field "movez"|} e);
        (match M.spec_of_string {|{"kind":"tabu"}|} with
         | Ok _ -> Alcotest.fail "unknown kind accepted"
         | Error _ -> ());
        match M.spec_of_string {|{"perf":true}|} with
        | Ok _ -> Alcotest.fail "missing kind accepted"
        | Error _ -> ());
    Alcotest.test_case "of_spec matches the optional-arg constructors" `Quick
      (fun () ->
        (* the spec path must be a pure re-plumbing of the engine: the
           ePlace-A name, and the same layout on a real circuit as
           Eplace_a.place at its default parameters *)
        let c = Circuits.Testcases.get_exn "CC-OTA" in
        let via_spec =
          M.of_spec { (M.default_spec M.Eplace) with M.quick = true }
        in
        Alcotest.(check string) "name" "ePlace-A" via_spec.M.method_name;
        match (via_spec.M.run c, Eplace.Eplace_a.place c) with
        | Some a, Some b ->
            let direct = b.Eplace.Eplace_a.layout in
            Alcotest.(check (float 0.0)) "same area"
              (Netlist.Layout.area direct)
              (Netlist.Layout.area a.M.layout);
            Alcotest.(check (float 0.0)) "same hpwl"
              (Netlist.Layout.hpwl direct)
              (Netlist.Layout.hpwl a.M.layout)
        | _ -> Alcotest.fail "a placement failed");
  ]

(* ---- Jsonio ---- *)

let json_tests =
  [
    Alcotest.test_case "parse/print round trips" `Quick (fun () ->
        List.iter
          (fun s ->
            match Jsonio.parse s with
            | Ok j -> Alcotest.(check string) "round trip" s (Jsonio.to_string j)
            | Error e -> Alcotest.failf "parse %s: %s" s e)
          [
            {|null|}; {|true|}; {|[]|}; {|{}|}; {|-1.5|}; {|42|};
            {|"a\"b\\c"|}; {|[1,2,[3],{"k":null}]|};
            {|{"a":1,"b":[true,false],"c":"x"}|};
          ]);
    Alcotest.test_case "sorted is canonical" `Quick (fun () ->
        match
          ( Jsonio.parse {|{"b":1,"a":{"d":2,"c":3}}|},
            Jsonio.parse {|{"a":{"c":3,"d":2},"b":1}|} )
        with
        | Ok x, Ok y ->
            Alcotest.(check string) "same canonical form"
              (Jsonio.to_string (Jsonio.sorted x))
              (Jsonio.to_string (Jsonio.sorted y))
        | _ -> Alcotest.fail "parse failed");
    Alcotest.test_case "rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s ->
            match Jsonio.parse s with
            | Ok _ -> Alcotest.failf "accepted %s" s
            | Error _ -> ())
          [ ""; "{"; "[1,]"; {|{"a"}|}; "1 2"; {|"unterminated|}; "nul" ]);
    Alcotest.test_case "accessors" `Quick (fun () ->
        match Jsonio.parse {|{"n":3.5,"i":7,"s":"x","b":true}|} with
        | Error e -> Alcotest.fail e
        | Ok j ->
            Alcotest.(check (option (float 0.0))) "num" (Some 3.5)
              (Option.bind (Jsonio.member "n" j) Jsonio.to_float);
            Alcotest.(check (option int)) "int" (Some 7)
              (Option.bind (Jsonio.member "i" j) Jsonio.to_int);
            Alcotest.(check (option string)) "str" (Some "x")
              (Option.bind (Jsonio.member "s" j) Jsonio.to_str);
            Alcotest.(check (option bool)) "bool" (Some true)
              (Option.bind (Jsonio.member "b" j) Jsonio.to_bool);
            Alcotest.(check (option int)) "absent" None
              (Option.bind (Jsonio.member "zz" j) Jsonio.to_int));
    Alcotest.test_case "deep nesting parses and round trips" `Quick
      (fun () ->
        (* the parser is recursive, so the depth this must survive is
           bounded by the stack — 2000 is far beyond any wire message
           while staying well inside the default stack *)
        let depth = 2000 in
        let b = Buffer.create (4 * depth) in
        for _ = 1 to depth do Buffer.add_char b '[' done;
        Buffer.add_string b "42";
        for _ = 1 to depth do Buffer.add_char b ']' done;
        let s = Buffer.contents b in
        match Jsonio.parse s with
        | Error e -> Alcotest.failf "deep parse: %s" e
        | Ok j ->
            Alcotest.(check string) "round trip" s (Jsonio.to_string j);
            let rec unwrap = function
              | Jsonio.Arr [ x ] -> unwrap x
              | Jsonio.Num n -> n
              | _ -> Alcotest.fail "unexpected shape"
            in
            Alcotest.(check (float 0.0)) "innermost value" 42.0 (unwrap j));
    Alcotest.test_case "string escapes decode and re-encode" `Quick
      (fun () ->
        (* \uXXXX decodes to UTF-8; raw control characters re-encode as
           \u escapes (or their short forms), so a printed value never
           contains a literal control byte *)
        (match Jsonio.parse {|"Aé€"|} with
        | Ok (Jsonio.Str s) ->
            Alcotest.(check string) "BMP code points to UTF-8"
              "A\xc3\xa9\xe2\x82\xac" s
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.failf "unicode escapes: %s" e);
        (match Jsonio.parse "\"\\u0001\\n\\t\"" with
        | Ok (Jsonio.Str s) ->
            Alcotest.(check string) "control escapes decode" "\x01\n\t" s
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.failf "control escapes: %s" e);
        let printed = Jsonio.to_string (Jsonio.Str "\x01\x1f\n") in
        Alcotest.(check bool) "no raw control bytes in output" false
          (String.exists (fun c -> Char.code c < 0x20) printed);
        (match Jsonio.parse printed with
        | Ok (Jsonio.Str s) ->
            Alcotest.(check string) "escaped output re-parses" "\x01\x1f\n" s
        | _ -> Alcotest.fail "printed control string must re-parse");
        List.iter
          (fun s ->
            match Jsonio.parse s with
            | Ok _ -> Alcotest.failf "accepted %s" s
            | Error _ -> ())
          [ {|"\u12"|}; {|"\u12zz"|}; {|"\q"|} ]);
    Alcotest.test_case "duplicate keys keep order, member takes first"
      `Quick (fun () ->
        match Jsonio.parse {|{"k":1,"k":2,"j":3}|} with
        | Error e -> Alcotest.failf "duplicate keys: %s" e
        | Ok j ->
            Alcotest.(check (option int)) "member returns the first"
              (Some 1)
              (Option.bind (Jsonio.member "k" j) Jsonio.to_int);
            Alcotest.(check string) "printer keeps both, in order"
              {|{"k":1,"k":2,"j":3}|} (Jsonio.to_string j));
    Alcotest.test_case "canonical sorted form round trips bit-exact" `Quick
      (fun () ->
        (* every cache key hashes the sorted form; canonicalization must
           be a fixpoint and must survive a print/parse cycle, or the
           same spec could hash two ways *)
        let src =
          {|{"z":[{"b":1,"a":[1.5,-0.25,"é"]},null],"a":{"y":true,"x":"s\n"},"m":7}|}
        in
        match Jsonio.parse src with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok j -> (
            let canon = Jsonio.to_string (Jsonio.sorted j) in
            match Jsonio.parse canon with
            | Error e -> Alcotest.failf "canonical form must re-parse: %s" e
            | Ok j2 ->
                Alcotest.(check string) "print-parse-sort-print fixpoint"
                  canon
                  (Jsonio.to_string (Jsonio.sorted j2));
                Alcotest.(check bool) "keys are sorted" true
                  (match Jsonio.sorted j with
                  | Jsonio.Obj fields ->
                      let ks = List.map fst fields in
                      ks = List.sort compare ks
                  | _ -> false)));
  ]

let suites =
  [
    ("cache", cache_tests);
    ("methods.spec", spec_tests);
    ("jsonio", json_tests);
  ]
