(* A batch-at-a-time domain pool. A batch is a fixed task array with
   two claim cursors, guarded by the pool mutex: the submitting domain
   claims from the back ([hi - 1]) while parked worker domains, woken on
   [work_cond], claim from the front ([lo]), so load balances whatever
   the per-task cost spread (a 4M-move SA run next to a 50 ms analytical
   run). The lock is held only to claim and to count; it is released
   while a task runs. A task's writes reach the caller through the same
   mutex: the worker takes it to decrement [running], and the caller
   reads [running] under it before it touches the task slots. Task
   thunks never let exceptions escape: results, telemetry snapshots and
   exceptions are all captured into per-task slots and settled by the
   caller at the join, in task order, which is what makes parallel runs
   reproduce serial ones exactly. *)

type batch = {
  tasks : (unit -> unit) array;
  mutable lo : int;  (* next task from the front, for workers *)
  mutable hi : int;  (* one past the next task from the back, for the caller *)
  mutable running : int;
}

type t = {
  n_jobs : int;
  lock : Mutex.t;
  work_cond : Condition.t;  (* workers: a new batch is available *)
  done_cond : Condition.t;  (* caller: the last running task finished *)
  mutable current : batch option;
  mutable stopped : bool;
  mutable domains : unit Domain.t array;
}

(* Set in every spawned worker: a nested [map] from a task must run
   inline rather than repark its own domain waiting for itself. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Entered and left with [pool.lock] held: claim and run tasks of [b]
   from the caller's end or the workers' end until none is left. *)
let rec work pool b ~caller =
  if b.lo < b.hi then begin
    let i =
      if caller then (b.hi <- b.hi - 1; b.hi)
      else (b.lo <- b.lo + 1; b.lo - 1)
    in
    b.running <- b.running + 1;
    Mutex.unlock pool.lock;
    b.tasks.(i) ();
    Mutex.lock pool.lock;
    b.running <- b.running - 1;
    if b.running = 0 && b.lo >= b.hi then Condition.broadcast pool.done_cond;
    work pool b ~caller
  end

let worker_loop pool =
  Mutex.lock pool.lock;
  while not pool.stopped do
    match pool.current with
    | Some b when b.lo < b.hi -> work pool b ~caller:false
    | _ -> Condition.wait pool.work_cond pool.lock
  done;
  Mutex.unlock pool.lock

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
      stopped = false;
      domains = [||];
    }
  in
  if n > 1 then
    pool.domains <-
      Array.init (n - 1) (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_worker true;
              worker_loop pool));
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
    let tasks =
      Array.mapi
        (fun i x () ->
          match Telemetry.capture (fun () -> f x) with
          | r, snap ->
              results.(i) <- Some r;
              deltas.(i) <- Some snap
          | exception e ->
              errors.(i) <- Some (e, Printexc.get_raw_backtrace ()))
        xs
    in
    let parallel =
      pool.n_jobs > 1 && n > 1 && (not pool.stopped)
      && not (Domain.DLS.get in_worker)
    in
    if not parallel then Array.iter (fun t -> t ()) tasks
    else begin
      Mutex.lock pool.lock;
      let b = { tasks; lo = 0; hi = n; running = 0 } in
      pool.current <- Some b;
      Condition.broadcast pool.work_cond;
      work pool b ~caller:true;
      while b.running > 0 do
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
