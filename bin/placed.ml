(* placed — the placement service daemon.

   Long-running server: placement jobs arrive over a Unix-domain
   socket as line-delimited JSON, are scheduled FIFO with per-job
   deadlines and cancellation, and results are served from a
   content-addressed LRU cache keyed on (netlist hash, constraints
   hash, spec hash) so identical requests cost one placement. Per-run
   telemetry can be streamed back live through the JSONL sink.

   Wire protocol v1 (one JSON object per line; full schema in
   DESIGN.md "Wire protocol", summary in README "Running the
   service"). Requests may carry "v": absent or 1 is accepted, any
   other value gets a structured error, so an incompatible future
   client fails loudly instead of being misread. Unknown request
   fields are ignored (clients may extend), unknown spec fields are
   rejected (a misspelled knob must not silently run with defaults).
   Every response carries "v":1; telemetry stream lines (span/counter/
   gauge, from the JSONL sink) are not protocol responses and carry no
   version.

     -> {"v":1,"op":"place","id":"j1","circuit":"CC-OTA",
         "spec":{"kind":"eplace"},"deadline_s":60,"stream":false,
         "layout":true}
     -> {"op":"place","netlist":"circuit ad-hoc ota\n...","spec":{...}}
     -> {"op":"cancel","id":"j1"}
     -> {"op":"stats"} | {"op":"ping"} | {"op":"shutdown"}

     <- {"v":1,"type":"queued","id":"j1","spec_hash":"..."}
     <- {"type":"span",...} {"type":"counter",...}     (stream:true only)
     <- {"v":1,"type":"result","id":"j1","ok":true,"cached":false,
         "area":...,"hpwl":...,"runtime_s":...,"wait_s":...,
         "netlist_hash":"...","constraints_hash":"...","spec_hash":"...",
         "layout":"place ..."}
     <- {"v":1,"type":"result","id":"j1","ok":false,"error":"..."}
     <- {"v":1,"type":"stats",...} | {"v":1,"type":"pong"}
        | {"v":1,"type":"bye"}

   Concurrency: one accepter (the main thread), one handler thread per
   connection, and a single scheduler thread that runs placements — so
   the pool's "one fan-out at a time" contract holds, and two jobs
   never interleave their telemetry. A handler parses each request,
   computes its cache key and answers a result-cache hit itself; only
   misses (and keys still being placed) are queued. So a hit never
   waits behind a running placement, and may be answered before an
   earlier miss on the same connection: clients match replies by id.
   Cancellation removes a queued job; a job already running completes
   (placements have no preemption point) and still reports its result.
   A deadline is checked when the job reaches the head of the queue:
   expired jobs are refused without running. *)

module M = Experiments.Methods

(* ---------- wire helpers ---------- *)

let j_str s = Jsonio.Str s
let j_num f = Jsonio.Num f
let j_int i = Jsonio.Num (float_of_int i)
let j_bool b = Jsonio.Bool b

type conn = {
  oc : out_channel;
  oc_lock : Mutex.t;
  peer : int;  (* connection number, for logs *)
  mutable alive : bool;
}

(* Every protocol line goes through here: one line per value, flushed,
   under the connection's write lock. A dead peer (closed socket) just
   marks the connection; the scheduler must never die on EPIPE. The
   wire version is stamped here so no response can forget it. *)
let send conn (v : Jsonio.t) =
  let v =
    match v with
    | Jsonio.Obj fields when not (List.mem_assoc "v" fields) ->
        Jsonio.Obj (("v", j_int 1) :: fields)
    | _ -> v
  in
  Mutex.lock conn.oc_lock;
  (try
     if conn.alive then begin
       output_string conn.oc (Jsonio.to_string v);
       output_char conn.oc '\n';
       flush conn.oc
     end
   with Sys_error _ -> conn.alive <- false);
  Mutex.unlock conn.oc_lock

let send_error conn ?id msg =
  let base = [ ("type", j_str "result"); ("ok", j_bool false) ] in
  let base =
    match id with Some i -> base @ [ ("id", j_str i) ] | None -> base
  in
  send conn (Jsonio.Obj (base @ [ ("error", j_str msg) ]))

(* ---------- jobs ---------- *)

(* A parsed place request: everything its replies need. The spec hash
   is computed once and serves the key, the queued line and the
   result line. *)
type request = {
  job_id : string;
  spec : M.spec;
  spec_hash : string;
  hashes : string * string;  (* netlist, constraints *)
  key : string;  (* result-cache key: the three hashes *)
  want_layout : bool;
  conn : conn;
}

(* A request that missed the result cache, queued for the scheduler *)
type job = {
  req : request;
  circuit : Netlist.Circuit.t;
  deadline : float option;  (* absolute, on the telemetry clock *)
  submitted : float;
  stream : bool;
  mutable cancelled : bool;
}

(* What the result cache stores: everything needed to answer a
   repeated request without re-placing. The layout is kept as
   interchange text — immutable, so physically shared across hits. *)
type placement = {
  p_area : float;
  p_hpwl : float;
  p_runtime_s : float;
  p_layout_text : string;
}

type server = {
  queue : job Queue.t;
  q_lock : Mutex.t;
  q_cond : Condition.t;
  results : placement option Cache.t;
  hash_memo : (string, string * string) Hashtbl.t;
      (* registry name -> its circuit's hashes, filled on the name's
         first request; bounded by the registry's ten names *)
  memo_lock : Mutex.t;
  tstore : Templates.Template_store.t;
      (* second cache tier: motif-keyed template families. Unlike
         [results] — keyed on whole (netlist, constraints, spec) — a
         template hit survives across distinct netlists that share a
         motif, so a new circuit's job can still start warm. *)
  mutable stopping : bool;
  mutable submitted : int;
  mutable completed : int;
  mutable refused : int;  (* cancelled or expired before running *)
  mutable next_id : int;
  verbose : bool;
}

let log server fmt =
  if server.verbose then Fmt.epr ("[placed] " ^^ fmt ^^ "@.")
  else
    Format.ikfprintf
      (fun _ -> ())
      Format.err_formatter
      ("[placed] " ^^ fmt ^^ "@.")

(* Cache key: the three content hashes the README documents — the
   circuit's two from [Netlist.Io.circuit_hashes], then the spec's. *)
let cache_key (nh, ch) spec_hash = String.concat "/" [ nh; ch; spec_hash ]

let count_completed server =
  Mutex.lock server.q_lock;
  server.completed <- server.completed + 1;
  Mutex.unlock server.q_lock

(* ---------- the scheduler ---------- *)

let run_placement (job : job) =
  let m = M.of_spec job.req.spec in
  match m.M.run job.circuit with
  | Some o ->
      let layout = o.M.layout in
      Some
        {
          p_area = Netlist.Layout.area layout;
          p_hpwl = Netlist.Layout.hpwl layout;
          p_runtime_s = o.M.runtime_s;
          p_layout_text = Netlist.Io.placement_to_string layout;
        }
  | None -> None

let result_fields req ~cached ~wait_s ~template_hits ~template_misses p =
  let nh, ch = req.hashes in
  [
    ("type", j_str "result");
    ("id", j_str req.job_id);
    ("ok", j_bool true);
    ("cached", j_bool cached);
    ("area", j_num p.p_area);
    ("hpwl", j_num p.p_hpwl);
    ("runtime_s", j_num p.p_runtime_s);
    ("wait_s", j_num wait_s);
    (* template-tier traffic this job caused: family lookups served
       from the warm store vs packed fresh. Both 0 for result-cache
       hits and non-template methods. *)
    ("template_hits", j_int template_hits);
    ("template_misses", j_int template_misses);
    ("netlist_hash", j_str nh);
    ("constraints_hash", j_str ch);
    ("spec_hash", j_str req.spec_hash);
  ]
  @ if req.want_layout then [ ("layout", j_str p.p_layout_text) ] else []

(* The reply to a request whose placement is known (computed now or
   found cached): its result line, or the error for a cached failure. *)
let send_result server req ~cached ~wait_s ~template_hits ~template_misses r =
  count_completed server;
  match r with
  | Some p ->
      send req.conn
        (Jsonio.Obj
           (result_fields req ~cached ~wait_s ~template_hits ~template_misses
              p))
  | None ->
      send_error req.conn ~id:req.job_id
        "placer returned no layout (infeasible constraints or failed \
         legalisation)"

let expired deadline now =
  match deadline with Some d -> Float.compare now d > 0 | None -> false

let process server (job : job) =
  let req = job.req in
  let now = Telemetry.now () in
  let wait_s = now -. job.submitted in
  if job.cancelled then begin
    server.refused <- server.refused + 1;
    send_error req.conn ~id:req.job_id "cancelled before start"
  end
  else if expired job.deadline now then begin
    server.refused <- server.refused + 1;
    send_error req.conn ~id:req.job_id
      (Printf.sprintf "deadline expired before start (queued %.2fs)" wait_s)
  end
  else
    (* the scheduler runs one placement at a time, so the delta
       between these snapshots is exactly this job's traffic *)
    let t0 = Templates.Template_store.stats server.tstore in
    let computed = ref false in
    let compute () =
      computed := true;
      (* live per-phase telemetry: the run executes under the JSONL
         sink pointed at the requesting connection. The write lock
         is held for the whole run so control responses to other
         requests on this connection cannot tear a streamed line;
         they are delayed, not lost. *)
      if job.stream then begin
        Mutex.lock req.conn.oc_lock;
        Telemetry.set_sink (Telemetry.jsonl req.conn.oc)
      end;
      let finish () =
        if job.stream then begin
          Telemetry.flush ();
          Telemetry.set_sink Telemetry.noop;
          Mutex.unlock req.conn.oc_lock
        end
      in
      match run_placement job with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    in
    (* placer-lint: allow C1 the template tier (default_store + its family files) is audited at its own get_or_compute site and keyed by motif hash; configure_default runs once at startup before the first job; the dls read is per-domain telemetry stat accounting *)
    match Cache.get_or_compute server.results ~key:req.key compute with
    | r ->
        let cached = not !computed in
        let t1 = Templates.Template_store.stats server.tstore in
        let template_hits = t1.Cache.hits - t0.Cache.hits
        and template_misses = t1.Cache.misses - t0.Cache.misses in
        log server "job %s %s in %.2fs (key %s..., tmpl %d/%d)"
          req.job_id
          (if cached then "served from cache" else "placed")
          (Telemetry.now () -. now)
          (String.sub req.key 0 8) template_hits template_misses;
        send_result server req ~cached ~wait_s ~template_hits
          ~template_misses r
    | exception e ->
        count_completed server;
        send_error req.conn ~id:req.job_id
          (Printf.sprintf "placement raised: %s" (Printexc.to_string e))

let scheduler server () =
  let rec loop () =
    Mutex.lock server.q_lock;
    while Queue.is_empty server.queue && not server.stopping do
      Condition.wait server.q_cond server.q_lock
    done;
    if Queue.is_empty server.queue then
      (* stopping and drained *)
      Mutex.unlock server.q_lock
    else begin
      let job = Queue.pop server.queue in
      Mutex.unlock server.q_lock;
      process server job;
      loop ()
    end
  in
  loop ()

(* ---------- request handling ---------- *)

(* A requested circuit: its hashes, and the circuit itself, built only
   when the request misses the result cache. Registry circuits are
   deterministic, so their hashes are memoised for the life of the
   process; "Scaled-<n>" and inline netlists are hashed per request,
   which keeps the memo at the registry's ten names. *)
type source = {
  hashes : string * string;
  circuit : Netlist.Circuit.t Lazy.t;
}

let of_circuit c =
  { hashes = Netlist.Io.circuit_hashes c; circuit = Lazy.from_val c }

let registry_source server name =
  Mutex.lock server.memo_lock;
  let memo = Hashtbl.find_opt server.hash_memo name in
  Mutex.unlock server.memo_lock;
  match memo with
  | Some hashes ->
      { hashes; circuit = lazy (Circuits.Testcases.get_exn name) }
  | None ->
      let src = of_circuit (Circuits.Testcases.get_exn name) in
      Mutex.lock server.memo_lock;
      Hashtbl.replace server.hash_memo name src.hashes;
      Mutex.unlock server.memo_lock;
      src

let parse_circuit server j =
  match (Jsonio.member "circuit" j, Jsonio.member "netlist" j) with
  | Some name, None -> (
      match Jsonio.to_str name with
      | None -> Error "field \"circuit\": expected a string"
      | Some n when List.mem n Circuits.Testcases.all_names ->
          Ok (registry_source server n)
      | Some n -> (
          (* refused before anything is built: building is linear in
             the size, and a hostile size would stall the daemon *)
          match Circuits.Testcases.scaled_size n with
          | Some d when d > Circuits.Testcases.max_scaled_devices ->
              Error
                (Printf.sprintf "circuit %S: Scaled-<n> takes at most %d devices"
                   n Circuits.Testcases.max_scaled_devices)
          | _ -> (
              match Circuits.Testcases.get n with
              | Some c -> Ok (of_circuit c)
              | None ->
                  Error
                    (Printf.sprintf "unknown circuit %S (known: %s)" n
                       (String.concat ", " Circuits.Testcases.all_names)))))
  | None, Some text -> (
      match Jsonio.to_str text with
      | None -> Error "field \"netlist\": expected a string"
      | Some t -> (
          match Netlist.Io.parse_circuit t with
          | c -> Ok (of_circuit c)
          | exception Netlist.Io.Parse_error (line, msg) ->
              Error (Printf.sprintf "netlist line %d: %s" line msg)
          | exception Invalid_argument msg ->
              Error (Printf.sprintf "invalid netlist: %s" msg)))
  | Some _, Some _ -> Error "give either \"circuit\" or \"netlist\", not both"
  | None, None ->
      Error "missing \"circuit\" (registry name) or \"netlist\" (inline text)"

let handle_place server conn j =
  let id =
    match Option.bind (Jsonio.member "id" j) Jsonio.to_str with
    | Some i -> i
    | None ->
        Mutex.lock server.q_lock;
        server.next_id <- server.next_id + 1;
        let i = Printf.sprintf "job-%d" server.next_id in
        Mutex.unlock server.q_lock;
        i
  in
  let spec =
    match Jsonio.member "spec" j with
    | None -> Ok (M.default_spec M.Eplace)
    | Some sj -> M.spec_of_json sj
  in
  match (parse_circuit server j, spec) with
  | Error e, _ | _, Error e -> send_error conn ~id e
  | Ok src, Ok spec -> (
      let spec_hash = M.spec_hash spec in
      let req =
        {
          job_id = id;
          spec;
          spec_hash;
          hashes = src.hashes;
          key = cache_key src.hashes spec_hash;
          want_layout =
            Option.value ~default:true
              (Option.bind (Jsonio.member "layout" j) Jsonio.to_bool);
          conn;
        }
      in
      let deadline_s = Option.bind (Jsonio.member "deadline_s" j) Jsonio.to_float in
      let stream =
        Option.value ~default:false
          (Option.bind (Jsonio.member "stream" j) Jsonio.to_bool)
      in
      let now = Telemetry.now () in
      let deadline = Option.map (fun d -> now +. d) deadline_s in
      let queued depth =
        send conn
          (Jsonio.Obj
             [
               ("type", j_str "queued");
               ("id", j_str id);
               ("spec_hash", j_str spec_hash);
               ("queue_depth", j_int depth);
             ])
      in
      (* a hit is answered here, without building the circuit or
         waiting on the scheduler; a request whose deadline has passed
         is queued all the same, for the scheduler to refuse *)
      let hit =
        if expired deadline now then None
        else Cache.find server.results ~key:req.key
      in
      match hit with
      | Some r ->
          Mutex.lock server.q_lock;
          server.submitted <- server.submitted + 1;
          let depth = Queue.length server.queue in
          Mutex.unlock server.q_lock;
          log server "job %s served from cache on connection %d (key %s...)"
            id conn.peer (String.sub req.key 0 8);
          queued depth;
          send_result server req ~cached:true ~wait_s:0.0 ~template_hits:0
            ~template_misses:0 r
      | None ->
          let circuit = Lazy.force src.circuit in
          let job =
            { req; circuit; deadline; submitted = now; stream; cancelled = false }
          in
          Mutex.lock server.q_lock;
          server.submitted <- server.submitted + 1;
          Queue.push job server.queue;
          Condition.signal server.q_cond;
          let depth = Queue.length server.queue in
          Mutex.unlock server.q_lock;
          log server "queued %s (%s on %s, depth %d)" id
            (M.to_string spec.M.kind) circuit.Netlist.Circuit.name depth;
          queued depth)

let handle_cancel server conn j =
  match Option.bind (Jsonio.member "id" j) Jsonio.to_str with
  | None -> send_error conn "cancel: missing \"id\""
  | Some id ->
      Mutex.lock server.q_lock;
      let found = ref false in
      Queue.iter
        (fun job ->
          if String.equal job.req.job_id id && not job.cancelled then begin
            job.cancelled <- true;
            found := true
          end)
        server.queue;
      Mutex.unlock server.q_lock;
      send conn
        (Jsonio.Obj
           [
             ("type", j_str "cancelled");
             ("id", j_str id);
             ("found", j_bool !found);
           ])

let handle_stats server conn =
  let s = Cache.stats server.results in
  let ts = Templates.Template_store.stats server.tstore in
  Mutex.lock server.q_lock;
  let depth = Queue.length server.queue in
  let submitted = server.submitted
  and completed = server.completed
  and refused = server.refused in
  Mutex.unlock server.q_lock;
  send conn
    (Jsonio.Obj
       [
         ("type", j_str "stats");
         ("submitted", j_int submitted);
         ("completed", j_int completed);
         ("refused", j_int refused);
         ("queue_depth", j_int depth);
         ( "cache",
           Jsonio.Obj
             [
               ("hits", j_int s.Cache.hits);
               ("misses", j_int s.Cache.misses);
               ("evictions", j_int s.Cache.evictions);
               ("dedup_waits", j_int s.Cache.dedup_waits);
               ("size", j_int s.Cache.size);
               ("capacity", j_int s.Cache.cap);
             ] );
         ( "template_cache",
           Jsonio.Obj
             ([
                ("hits", j_int ts.Cache.hits);
                ("misses", j_int ts.Cache.misses);
                ("evictions", j_int ts.Cache.evictions);
                ("dedup_waits", j_int ts.Cache.dedup_waits);
                ("size", j_int ts.Cache.size);
                ("capacity", j_int ts.Cache.cap);
              ]
             @
             match Templates.Template_store.dir server.tstore with
             | Some d -> [ ("dir", j_str d) ]
             | None -> []) );
       ])

let handle_line server conn ~wake_accepter line =
  match Jsonio.parse line with
  | Error e -> send_error conn (Printf.sprintf "bad request: %s" e)
  | Ok j -> (
      let version =
        match Jsonio.member "v" j with
        | None -> Ok ()  (* v0 clients predate the field *)
        | Some vj -> (
            match Jsonio.to_int vj with
            | Some 1 -> Ok ()
            | Some n ->
                Error
                  (Printf.sprintf
                     "unsupported protocol version %d (this server speaks 1)"
                     n)
            | None -> Error "field \"v\": expected an integer")
      in
      match version with
      | Error e ->
          send_error conn
            ?id:(Option.bind (Jsonio.member "id" j) Jsonio.to_str)
            e
      | Ok () -> (
      match Option.bind (Jsonio.member "op" j) Jsonio.to_str with
      | Some "place" -> handle_place server conn j
      | Some "cancel" -> handle_cancel server conn j
      | Some "stats" -> handle_stats server conn
      | Some "ping" -> send conn (Jsonio.Obj [ ("type", j_str "pong") ])
      | Some "shutdown" ->
          log server "shutdown requested by connection %d" conn.peer;
          send conn (Jsonio.Obj [ ("type", j_str "bye") ]);
          Mutex.lock server.q_lock;
          server.stopping <- true;
          Condition.broadcast server.q_cond;
          Mutex.unlock server.q_lock;
          (* unblock the accepter: close() from another thread does not
             interrupt a blocked accept(2), and shutdown() on a
             listening socket is not portable — so wake it with a
             throwaway self-connection; the accept loop re-checks
             [stopping] after every accept *)
          wake_accepter ()
      | Some op -> send_error conn (Printf.sprintf "unknown op %S" op)
      | None -> send_error conn "missing \"op\""))

(* The longest request line read. The largest circuit the daemon
   builds, Scaled-1000, is 121 KB of interchange text; a client that
   streams past this without a newline gets an error and is dropped,
   rather than growing the daemon's buffer without bound. *)
let max_request_line = 1 lsl 20

(* A connection's request lines, read in chunks under
   [max_request_line]. Like [input_line], a last line without its
   newline still counts. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let rec read_line r =
  let take () =
    let l = Buffer.contents r.line in
    Buffer.clear r.line;
    `Line l
  in
  if r.pos >= r.len then begin
    r.pos <- 0;
    r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk)
  end;
  if r.len = 0 then if Buffer.length r.line = 0 then `Eof else take ()
  else begin
    let nl = ref r.pos in
    while !nl < r.len && Bytes.get r.chunk !nl <> '\n' do incr nl done;
    if Buffer.length r.line + (!nl - r.pos) > max_request_line then `Too_long
    else begin
      Buffer.add_subbytes r.line r.chunk r.pos (!nl - r.pos);
      r.pos <- !nl + 1;
      if !nl < r.len then take () else read_line r
    end
  end

let handle_conn server ~wake_accepter fd peer =
  let r =
    { ic = Unix.in_channel_of_descr fd; chunk = Bytes.create 4096; pos = 0;
      len = 0; line = Buffer.create 256 }
  in
  let oc = Unix.out_channel_of_descr fd in
  let conn = { oc; oc_lock = Mutex.create (); peer; alive = true } in
  log server "connection %d opened" peer;
  let rec loop () =
    match read_line r with
    | `Line line ->
        if String.length (String.trim line) > 0 then
          handle_line server conn ~wake_accepter line;
        if conn.alive && not server.stopping then loop ()
    | `Too_long ->
        send_error conn
          (Printf.sprintf "request line longer than %d bytes"
             max_request_line)
    | `Eof -> ()
    | exception Sys_error _ -> ()
  in
  loop ();
  conn.alive <- false;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  log server "connection %d closed" peer

(* ---------- main ---------- *)

let serve socket_path jobs cache_capacity template_dir template_capacity
    verbose =
  Pool.set_default_jobs jobs;
  (* a client that disconnects mid-stream must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  (* install the template tier before any job can run, so every
     template placement in this process shares one store (and one
     on-disk directory, when given) *)
  let tstore =
    Templates.Template_store.configure_default ~capacity:template_capacity
      ?dir:template_dir ()
  in
  let server =
    {
      queue = Queue.create ();
      q_lock = Mutex.create ();
      q_cond = Condition.create ();
      results = Cache.create ~capacity:cache_capacity ();
      hash_memo = Hashtbl.create 16;
      memo_lock = Mutex.create ();
      tstore;
      stopping = false;
      submitted = 0;
      completed = 0;
      refused = 0;
      next_id = 0;
      verbose;
    }
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 16;
  Fmt.pr "placed: listening on %s (jobs %d, cache %d, template cache %d%s)@."
    socket_path jobs cache_capacity template_capacity
    (match template_dir with
     | Some d -> Printf.sprintf " at %s" d
     | None -> "");
  let sched = Thread.create (scheduler server) () in
  let wake_accepter () =
    match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | fd ->
        (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  let peer = ref 0 in
  let rec accept_loop () =
    match Unix.accept listen_fd with
    | fd, _ ->
        if server.stopping then
          (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          incr peer;
          let p = !peer in
          ignore
            (Thread.create (fun () -> handle_conn server ~wake_accepter fd p) ());
          accept_loop ()
        end
    | exception Unix.Unix_error _ ->
        (* listening socket broke out from under us *)
        ()
  in
  accept_loop ();
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (* drain: the scheduler finishes queued jobs, then exits *)
  Thread.join sched;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let s = Cache.stats server.results in
  let ts = Templates.Template_store.stats server.tstore in
  Fmt.pr
    "placed: clean shutdown (%d submitted, %d completed, %d refused, \
     cache %d/%d hits/misses, template %d/%d)@."
    server.submitted server.completed server.refused s.Cache.hits
    s.Cache.misses ts.Cache.hits ts.Cache.misses;
  0

open Cmdliner

let socket_arg =
  Arg.(value & opt string "placed.sock"
       & info [ "s"; "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path to listen on.")

let jobs_arg =
  Arg.(value & opt int (Domain.recommended_domain_count ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for each placement's parallel fan-outs.")

let cache_arg =
  Arg.(value & opt int 256
       & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Result-cache entries before LRU eviction.")

let template_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "template-dir" ] ~docv:"DIR"
           ~doc:"Persist the motif template store to $(docv) as JSONL \
                 files, so template families survive restarts. Without \
                 it the store is in-memory only.")

let template_cache_arg =
  Arg.(value & opt int 256
       & info [ "template-capacity" ] ~docv:"N"
           ~doc:"Template-store families held in memory before LRU \
                 eviction (evicted families reload from --template-dir \
                 if set, else repack).")

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ] ~doc:"Log job lifecycle events to stderr.")

let cmd =
  let doc = "analog placement service daemon (line-delimited JSON over a \
             Unix socket)" in
  Cmd.v
    (Cmd.info "placed" ~doc)
    Term.(const serve $ socket_arg $ jobs_arg $ cache_arg
          $ template_dir_arg $ template_cache_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
