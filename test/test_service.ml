(* bin/placed end to end: each case starts a fresh daemon on a
   temporary socket and talks to it over line-delimited JSON, as a
   client would. The daemon is the one built beside this test
   executable (test/dune depends on it). *)

let placed_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/placed.exe"

type client = { ic : in_channel; oc : out_channel }

(* The daemon binds its socket shortly after it starts: retry until it
   is there. *)
let connect sock =
  let deadline = Telemetry.now () +. 20.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Telemetry.now () < deadline ->
        Unix.close fd;
        Thread.delay 0.01;
        go ()
  in
  go ()

let with_daemon f =
  let sock = Filename.temp_file "placed" ".sock" in
  Sys.remove sock;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process placed_exe
          [| placed_exe; "--socket"; sock; "--jobs"; "1" |]
          devnull devnull devnull)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove sock with Sys_error _ -> ())
    (fun () -> f sock)

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let field j k = Option.bind (Jsonio.member k j) Jsonio.to_str
let typ j = Option.value ~default:"?" (field j "type")

(* The next protocol line, skipping telemetry stream lines *)
let rec recv c =
  match Jsonio.parse (input_line c.ic) with
  | Error e -> Alcotest.failf "placed sent bad JSON: %s" e
  | Ok j -> (
      match typ j with "span" | "counter" | "gauge" -> recv c | _ -> j)

let place c ~id ~circuit spec =
  send c
    (Printf.sprintf {|{"op":"place","id":%S,"circuit":%S,"spec":%s}|} id
       circuit spec)

let stat c name =
  send c {|{"op":"stats"}|};
  let j = recv c in
  let rec dig j = function
    | [] -> Option.value ~default:(-1) (Jsonio.to_int j)
    | k :: rest -> (
        match Jsonio.member k j with Some v -> dig v rest | None -> -1)
  in
  dig j (String.split_on_char '.' name)

let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1))
  in
  at 0

(* placed's request-line cap, [max_request_line] in bin/placed.ml *)
let max_request_line = 1 lsl 20

(* Every read and write on the client fails after 10 s rather than
   hang on a daemon that keeps buffering. *)
let bounded c =
  let fd = Unix.descr_of_in_channel c.ic in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0;
  c

let tests =
  [
    Alcotest.test_case "an over-long request line is refused" `Quick
      (fun () ->
        with_daemon (fun sock ->
            let c = bounded (connect sock) in
            output_string c.oc (String.make (max_request_line + 1) 'x');
            flush c.oc;
            let r = recv c in
            Alcotest.(check string) "an error result" "result" (typ r);
            check_bool "the error names the cap" true
              (match field r "error" with
              | Some e -> contains e (string_of_int max_request_line)
              | None -> false);
            check_bool "then the connection is closed" true
              (match input_line c.ic with
              | _ -> false
              | exception End_of_file -> true);
            let d = bounded (connect sock) in
            send d {|{"op":"ping"}|};
            Alcotest.(check string) "a fresh connection is served" "pong"
              (typ (recv d))));
    Alcotest.test_case "over-cap Scaled name refused at once" `Quick
      (fun () ->
        with_daemon (fun sock ->
            let c = connect sock in
            (* one device above the cap: cheap to build, so a daemon
               without the cap would queue it rather than stall *)
            let name =
              Printf.sprintf "Scaled-%d"
                (Circuits.Testcases.max_scaled_devices + 1)
            in
            place c ~id:"big" ~circuit:name {|{"kind":"eplace"}|};
            let r = recv c in
            Alcotest.(check string) "first reply is a result" "result" (typ r);
            Alcotest.(check (option string)) "for the request" (Some "big")
              (field r "id");
            check_bool "refused" false
              (Option.value ~default:true
                 (Option.bind (Jsonio.member "ok" r) Jsonio.to_bool));
            check_bool "the error names the cap" true
              (match field r "error" with
              | Some e ->
                  contains e
                    (string_of_int Circuits.Testcases.max_scaled_devices)
              | None -> false);
            Alcotest.(check int) "nothing was queued" 0 (stat c "submitted")));
    Alcotest.test_case "a hit overtakes a running cold job" `Slow (fun () ->
        with_daemon (fun sock ->
            let warm = {|{"kind":"sa","moves":2000}|} in
            let a = connect sock in
            place a ~id:"w1" ~circuit:"CC-OTA" warm;
            Alcotest.(check string) "first: queued" "queued" (typ (recv a));
            let r1 = recv a in
            Alcotest.(check string) "first: result" "result" (typ r1);
            let layout1 = field r1 "layout" in
            check_bool "first reply has a layout" true (Option.is_some layout1);
            (* the cold job: about 3 s of annealing on a 2-CPU container *)
            let b = connect sock in
            place b ~id:"cold" ~circuit:"Comp1" {|{"kind":"sa","moves":1500000}|};
            Alcotest.(check string) "cold: queued" "queued" (typ (recv b));
            let cold_done = Atomic.make false and cold = ref None in
            let reader =
              Thread.create
                (fun () ->
                  let r = recv b in
                  Atomic.set cold_done true;
                  cold := Some r)
                ()
            in
            place a ~id:"w2" ~circuit:"CC-OTA" warm;
            let q2 = recv a in
            let r2 = recv a in
            let overtook = not (Atomic.get cold_done) in
            Thread.join reader;
            check_bool "warm reply arrived while the cold job ran" true overtook;
            Alcotest.(check (list string)) "warm lines" [ "queued"; "result" ]
              [ typ q2; typ r2 ];
            Alcotest.(check (option string)) "warm id" (Some "w2") (field r2 "id");
            check_bool "served from the cache" true
              (Option.value ~default:false
                 (Option.bind (Jsonio.member "cached" r2) Jsonio.to_bool));
            check_bool "layout byte-identical to the first reply" true
              (layout1 = field r2 "layout");
            (match !cold with
            | Some r ->
                Alcotest.(check (option string)) "cold id" (Some "cold")
                  (field r "id");
                Alcotest.(check string) "cold: result" "result" (typ r)
            | None -> Alcotest.fail "no cold reply");
            (* one hit or one miss per request *)
            Alcotest.(check int) "hits" 1 (stat a "cache.hits");
            Alcotest.(check int) "misses" 2 (stat a "cache.misses");
            Alcotest.(check int) "completed" 3 (stat a "completed")));
  ]

let suites = [ ("service", tests) ]
