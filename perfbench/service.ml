(* The service workload's client: start a fresh bin/placed, drive it
   over one closed-loop connection with line-delimited JSON, and stop
   it again. Paths are relative to the checkout root, which keeps the
   socket path short whatever the checkout's location. *)

module M = Experiments.Methods

let placed_exe = "_build/default/bin/placed.exe"

type daemon = {
  pid : int;
  sock_path : string;
  ic : in_channel;
  oc : out_channel;
}

let send d v =
  output_string d.oc (Jsonio.to_string v);
  output_char d.oc '\n';
  flush d.oc

(* The next protocol line, skipping telemetry stream lines. *)
let rec recv d =
  let line = input_line d.ic in
  match Jsonio.parse line with
  | Error e -> failwith (Printf.sprintf "placed sent bad JSON (%s): %s" e line)
  | Ok j -> (
      match Option.bind (Jsonio.member "type" j) Jsonio.to_str with
      | Some ("span" | "counter" | "gauge") -> recv d
      | _ -> j)

let rec recv_type d ty =
  let j = recv d in
  match Option.bind (Jsonio.member "type" j) Jsonio.to_str with
  | Some t when String.equal t ty -> j
  | _ -> recv_type d ty

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Start a daemon with one placement domain, an empty result cache and
   no template directory, and wait for its first [pong]. Returns the
   daemon and the start-to-pong time. *)
let start ~clock =
  let t0 = clock () in
  let sock_path = Printf.sprintf "_build/perfbench-%d.sock" (Unix.getpid ()) in
  (try Unix.unlink sock_path with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process placed_exe
          [| placed_exe; "--socket"; sock_path; "--jobs"; "1" |]
          devnull devnull Unix.stderr)
  in
  let deadline = clock () +. 30.0 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock_path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when clock () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.001;
        connect ()
  in
  match connect () with
  | exception e ->
      kill pid;
      raise e
  | fd -> (
      let d =
        {
          pid;
          sock_path;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
        }
      in
      match
        send d (Jsonio.Obj [ ("op", Jsonio.Str "ping") ]);
        recv_type d "pong"
      with
      | _ -> (d, clock () -. t0)
      | exception e ->
          kill pid;
          raise e)

(* Peak resident set of the daemon, from /proc. *)
let peak_rss_mb d = Host.vm_hwm_mb (Printf.sprintf "/proc/%d/status" d.pid)

let stats d =
  send d (Jsonio.Obj [ ("op", Jsonio.Str "stats") ]);
  recv_type d "stats"

(* Ask for a clean shutdown and reap the process; kill it if the
   protocol breaks down. *)
let stop d =
  (try
     send d (Jsonio.Obj [ ("op", Jsonio.Str "shutdown") ]);
     ignore (recv_type d "bye");
     close_in_noerr d.ic;
     ignore (Unix.waitpid [] d.pid)
   with _ -> kill d.pid);
  try Unix.unlink d.sock_path with Unix.Unix_error _ -> ()

let with_daemon ~clock f =
  let d, setup_s = start ~clock in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d setup_s)

(* One request/response exchange; the latency runs from the request
   being written to its result being read. *)
type reply = {
  r_json : Jsonio.t;
  latency_s : float;
}

let place d ~clock ~id ~circuit spec =
  let req =
    Jsonio.Obj
      [
        ("op", Jsonio.Str "place");
        ("id", Jsonio.Str id);
        ("circuit", Jsonio.Str circuit);
        ("spec", M.spec_to_json spec);
        ("layout", Jsonio.Bool true);
      ]
  in
  let t0 = clock () in
  send d req;
  let j = recv_type d "result" in
  { r_json = j; latency_s = clock () -. t0 }
