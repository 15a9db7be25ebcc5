(* A batch-at-a-time domain pool. The submitting domain pushes the
   whole batch onto a Chase-Lev deque it owns and then works from the
   bottom; parked worker domains wake on the pool condition and steal
   from the top until the deque drains, so load balances whatever the
   per-task cost spread (a 4M-move SA run next to a 50 ms analytical
   run). Task thunks never let exceptions escape: results, telemetry
   snapshots and exceptions are all captured into per-task slots and
   settled by the caller at the join, in task order, which is what
   makes parallel runs reproduce serial ones exactly. *)

type task = { t_run : unit -> unit }

type batch = {
  deque : task Ws_deque.t;
  remaining : int Atomic.t;
  b_id : int;
}

type t = {
  n_jobs : int;
  lock : Mutex.t;
  work_cond : Condition.t;  (* workers: a new batch is available *)
  done_cond : Condition.t;  (* caller: a batch finished *)
  mutable current : batch option;
  mutable next_id : int;
  mutable stopped : bool;
  mutable domains : unit Domain.t array;
}

(* Set in every spawned worker: a nested [map] from a task must run
   inline rather than repark its own domain waiting for itself. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let exec pool b task =
  task.t_run ();
  if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
    Mutex.lock pool.lock;
    Condition.broadcast pool.done_cond;
    Mutex.unlock pool.lock
  end

let rec drain pool b =
  match Ws_deque.steal b.deque with
  | Some task ->
      exec pool b task;
      drain pool b
  | None -> ()

let rec worker_loop pool last_id =
  Mutex.lock pool.lock;
  let rec await () =
    if pool.stopped then None
    else
      match pool.current with
      | Some b when b.b_id <> last_id && not (Ws_deque.is_empty b.deque) ->
          Some b
      | _ ->
          Condition.wait pool.work_cond pool.lock;
          await ()
  in
  let next = await () in
  Mutex.unlock pool.lock;
  match next with
  | None -> ()
  | Some b ->
      drain pool b;
      worker_loop pool b.b_id

let create ?jobs () =
  let n =
    match jobs with
    | Some j -> max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  let pool =
    {
      n_jobs = n;
      lock = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      current = None;
      next_id = 0;
      stopped = false;
      domains = [||];
    }
  in
  if n > 1 then
    pool.domains <-
      Array.init (n - 1) (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_worker true;
              worker_loop pool (-1)));
  pool

let jobs pool = pool.n_jobs

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopped <- true;
  Condition.broadcast pool.work_cond;
  Mutex.unlock pool.lock;
  Array.iter Domain.join pool.domains;
  pool.domains <- [||]

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let deltas = Array.make n None in
    let mk i x =
      {
        t_run =
          (fun () ->
            match Telemetry.capture (fun () -> f x) with
            | r, snap ->
                results.(i) <- Some r;
                deltas.(i) <- Some snap
            | exception e ->
                errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      }
    in
    let tasks = Array.mapi mk xs in
    let parallel =
      pool.n_jobs > 1 && n > 1 && (not pool.stopped)
      && not (Domain.DLS.get in_worker)
    in
    if not parallel then Array.iter (fun t -> t.t_run ()) tasks
    else begin
      let deque = Ws_deque.create ~capacity:n in
      Array.iter (Ws_deque.push deque) tasks;
      Mutex.lock pool.lock;
      let b = { deque; remaining = Atomic.make n; b_id = pool.next_id } in
      pool.next_id <- pool.next_id + 1;
      pool.current <- Some b;
      Condition.broadcast pool.work_cond;
      Mutex.unlock pool.lock;
      (* the caller works from the bottom of its own deque *)
      let rec help () =
        match Ws_deque.pop deque with
        | Some t ->
            exec pool b t;
            help ()
        | None -> ()
      in
      help ();
      Mutex.lock pool.lock;
      while Atomic.get b.remaining > 0 do
        Condition.wait pool.done_cond pool.lock
      done;
      pool.current <- None;
      Mutex.unlock pool.lock
    end;
    (* the join: merge telemetry in task order, then settle exceptions
       deterministically (lowest failing index wins), then results *)
    Array.iter (function Some s -> Telemetry.merge s | None -> ()) deltas;
    (match
       Array.fold_left
         (fun acc e -> match acc with Some _ -> acc | None -> e)
         None errors
     with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some r -> r
        | None -> invalid_arg "Pool.map: task produced no result")
      results
  end

let map_list pool f xs = Array.to_list (map pool f (Array.of_list xs))

let run_all pool thunks = ignore (map_list pool (fun f -> f ()) thunks)

(* ----- the process-wide default pool ----- *)

let default_lock = Mutex.create ()
let configured_jobs : int option ref = ref None
let default_pool : t option ref = ref None
let cleanup_registered = ref false

let set_default_jobs n =
  Mutex.lock default_lock;
  (match !default_pool with Some p -> shutdown p | None -> ());
  default_pool := None;
  configured_jobs := Some (max 1 n);
  Mutex.unlock default_lock

let default () =
  Mutex.lock default_lock;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ?jobs:!configured_jobs () in
        default_pool := Some p;
        if not !cleanup_registered then begin
          cleanup_registered := true;
          (* park-waiting domains die with the process anyway, but a
             clean join keeps exit paths (and test runners) quiet *)
          at_exit (fun () ->
              Mutex.lock default_lock;
              let q = !default_pool in
              default_pool := None;
              Mutex.unlock default_lock;
              Option.iter shutdown q)
        end;
        p
  in
  Mutex.unlock default_lock;
  p
