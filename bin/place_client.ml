(* place-client — client for the placement service.

     place-client --ping
     place-client -c CC-OTA -p eplace                 # one job, print result
     place-client -c CC-OTA -p sa --moves 120000 --stream
     place-client --stats
     place-client --shutdown

   The service's throughput and latency are measured by perfbench's
   [service] workload, not here. *)

module M = Experiments.Methods

let j_str s = Jsonio.Str s
let j_num f = Jsonio.Num f
let j_int i = Jsonio.Num (float_of_int i)
let j_bool b = Jsonio.Bool b

(* A client racing the daemon's startup sees ENOENT (socket file not
   bound yet) or ECONNREFUSED (stale file from a previous run, no
   listener behind it). Both resolve themselves once the server is up,
   so retry with capped exponential backoff until [wait_s] runs out
   instead of failing the race; any other error is immediately fatal. *)
let connect ?(wait_s = 5.0) path =
  let deadline = Telemetry.now () +. wait_s in
  let rec attempt delay =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT) as err, _, _) ->
        Unix.close fd;
        if Telemetry.now () >= deadline then begin
          Fmt.epr "cannot connect to %s: %s (is placed running?)@." path
            (Unix.error_message err);
          exit 1
        end;
        Unix.sleepf delay;
        attempt (Float.min 0.5 (2.0 *. delay))
    | exception Unix.Unix_error (err, _, _) ->
        Unix.close fd;
        Fmt.epr "cannot connect to %s: %s@." path (Unix.error_message err);
        exit 1
  in
  attempt 0.02

let send oc v =
  output_string oc (Jsonio.to_string v);
  output_char oc '\n';
  flush oc

(* Every request carries the wire-protocol version (see DESIGN.md);
   the server rejects versions it does not speak with a structured
   error instead of misreading them. *)
let req fields = Jsonio.Obj (("v", j_int 1) :: fields)

let recv ic =
  match input_line ic with
  | line -> (
      match Jsonio.parse line with
      | Ok j -> j
      | Error e ->
          Fmt.epr "garbled response (%s): %s@." e line;
          exit 1)
  | exception End_of_file ->
      Fmt.epr "server closed the connection@.";
      exit 1

let typ j =
  Option.value ~default:"?" (Option.bind (Jsonio.member "type" j) Jsonio.to_str)

(* Read protocol lines until this job's result arrives. Telemetry
   stream lines (span/counter/gauge) and queue acks pass through;
   [echo] prints them for --stream runs. *)
let await_result ic ~id ~echo =
  let rec loop () =
    let j = recv ic in
    match typ j with
    | "result"
      when (match Option.bind (Jsonio.member "id" j) Jsonio.to_str with
           | Some i -> String.equal i id
           | None -> true) ->
        j
    | "queued" -> loop ()
    | _ ->
        if echo then Fmt.pr "%s@." (Jsonio.to_string j);
        loop ()
  in
  loop ()

let spec_json_of_flags kind perf moves seed restarts =
  let d = M.default_spec ~perf kind in
  let s =
    { d with
      M.seed;
      moves =
        (match kind with
        | M.Sa | M.Template | M.Matheuristic -> moves
        | M.Prev | M.Eplace -> d.M.moves);
      restarts = (if restarts > 0 then restarts else d.M.restarts) }
  in
  M.spec_to_json s

let place_req ~id ~circuit ~spec ~stream ~layout ~deadline =
  req
    ([
       ("op", j_str "place");
       ("id", j_str id);
       ("circuit", j_str circuit);
       ("spec", spec);
       ("stream", j_bool stream);
       ("layout", j_bool layout);
     ]
    @ match deadline with
      | Some d -> [ ("deadline_s", j_num d) ]
      | None -> [])

let print_result j =
  match Option.bind (Jsonio.member "ok" j) Jsonio.to_bool with
  | Some true ->
      let f field =
        Option.value ~default:Float.nan
          (Option.bind (Jsonio.member field j) Jsonio.to_float)
      in
      let cached =
        Option.value ~default:false
          (Option.bind (Jsonio.member "cached" j) Jsonio.to_bool)
      in
      Fmt.pr "area      : %.1f um^2@." (f "area");
      Fmt.pr "hpwl      : %.1f um@." (f "hpwl");
      Fmt.pr "runtime   : %.2f s%s@." (f "runtime_s")
        (if cached then " (cached)" else "");
      Option.iter
        (fun l ->
          Option.iter (fun t -> Fmt.pr "%s@." t) (Jsonio.to_str l))
        (Jsonio.member "layout" j);
      0
  | _ ->
      Fmt.epr "job failed: %s@."
        (Option.value ~default:"unknown error"
           (Option.bind (Jsonio.member "error" j) Jsonio.to_str));
      1

(* ---------- driver ---------- *)

let run_cmd socket ping stats shutdown circuit kind perf moves seed restarts
    stream deadline no_layout =
  let ic, oc = connect socket in
  if ping then begin
    send oc (req [ ("op", j_str "ping") ]);
    let j = recv ic in
    Fmt.pr "%s@." (Jsonio.to_string j);
    if String.equal (typ j) "pong" then 0 else 1
  end
  else if stats then begin
    send oc (req [ ("op", j_str "stats") ]);
    Fmt.pr "%s@." (Jsonio.to_string (recv ic));
    0
  end
  else if shutdown then begin
    send oc (req [ ("op", j_str "shutdown") ]);
    Fmt.pr "%s@." (Jsonio.to_string (recv ic));
    0
  end
  else begin
    let spec = spec_json_of_flags kind perf moves seed restarts in
    let id = "cli" in
    send oc
      (place_req ~id ~circuit ~spec ~stream ~layout:(not no_layout) ~deadline);
    print_result (await_result ic ~id ~echo:stream)
  end

open Cmdliner

let socket_arg =
  Arg.(value & opt string "placed.sock"
       & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"Service socket path.")

let ping_arg = Arg.(value & flag & info [ "ping" ] ~doc:"Health check.")
let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print server stats.")

let shutdown_arg =
  Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to shut down.")

let circuit_arg =
  Arg.(value & opt string "CC-OTA"
       & info [ "c"; "circuit" ] ~docv:"NAME" ~doc:"Benchmark circuit name.")

let placer_conv = Arg.enum (List.map (fun k -> (M.to_string k, k)) M.all)

let placer_arg =
  Arg.(value & opt placer_conv M.Eplace
       & info [ "p"; "placer" ] ~docv:"METHOD"
           ~doc:"Placement method: $(b,sa), $(b,prev), $(b,eplace), \
                 $(b,template), or $(b,matheuristic).")

let perf_arg =
  Arg.(value & flag
       & info [ "perf" ] ~doc:"Performance-driven variant (trains a GNN).")

let moves_arg =
  Arg.(value & opt int 200_000
       & info [ "moves" ] ~docv:"N" ~doc:"SA/template move budget.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")

let restarts_arg =
  Arg.(value & opt int 0
       & info [ "restarts" ] ~docv:"N"
           ~doc:"Independent restarts; 0 keeps the method's default.")

let stream_arg =
  Arg.(value & flag
       & info [ "stream" ]
           ~doc:"Print the telemetry lines the server streams during the \
                 run.")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"S"
           ~doc:"Refuse the job if it cannot start within $(docv) seconds.")

let no_layout_arg =
  Arg.(value & flag
       & info [ "no-layout" ] ~doc:"Do not request the placed layout text.")

let cmd =
  let doc = "client for the placement service" in
  Cmd.v
    (Cmd.info "place-client" ~doc)
    Term.(
      const run_cmd $ socket_arg $ ping_arg $ stats_arg $ shutdown_arg
      $ circuit_arg $ placer_arg $ perf_arg $ moves_arg $ seed_arg
      $ restarts_arg $ stream_arg $ deadline_arg $ no_layout_arg)

let () = exit (Cmd.eval' cmd)
