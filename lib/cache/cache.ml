(* Bounded LRU cache with single-flight computation dedup.

   Layout: a string-keyed hashtable for lookup plus an intrusive
   doubly-linked recency list (most recent at the head). The list is
   walked only via explicit prev/next pointers — never by hashtable
   iteration — so eviction order is fully deterministic given the
   operation sequence, whatever the hash layout (placer-lint rule D3).

   In-flight misses live in a separate table of condition variables,
   exactly the protocol proven out by Gnn_setup: the first caller to
   miss registers a condition and computes with the lock released;
   later callers for the same key wait on the condition and re-check.
   A raising computer withdraws its entry and broadcasts, so one
   waiter retries as the new computer. *)

type 'v node = {
  n_key : string;
  n_value : 'v;
  mutable prev : 'v node option;  (* toward the head (more recent) *)
  mutable next : 'v node option;  (* toward the tail (less recent) *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  dedup_waits : int;
  size : int;
  cap : int;
}

type 'v t = {
  lock : Mutex.t;
  table : (string, 'v node) Hashtbl.t;
  in_flight : (string, Condition.t) Hashtbl.t;
  cap : int;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable dedup_waits : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create (min capacity 64);
    in_flight = Hashtbl.create 4;
    cap = capacity;
    head = None;
    tail = None;
    size = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    dedup_waits = 0;
  }

let capacity t = t.cap

(* ----- recency list (caller holds the lock) ----- *)

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  (match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n)

let insert t key v =
  let n = { n_key = key; n_value = v; prev = None; next = None } in
  Hashtbl.replace t.table key n;
  push_front t n;
  t.size <- t.size + 1;
  if t.size > t.cap then begin
    match t.tail with
    | Some lru ->
        unlink t lru;
        Hashtbl.remove t.table lru.n_key;
        t.size <- t.size - 1;
        t.evictions <- t.evictions + 1
    | None -> ()
  end

(* ----- public operations ----- *)

let find t ~key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some n ->
        t.hits <- t.hits + 1;
        touch t n;
        Some n.n_value
    | None -> None
  in
  Mutex.unlock t.lock;
  r

let get_or_compute t ~key f =
  let rec obtain ~waited =
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.table key with
    | Some n ->
        t.hits <- t.hits + 1;
        if waited then t.dedup_waits <- t.dedup_waits + 1;
        touch t n;
        let v = n.n_value in
        Mutex.unlock t.lock;
        v
    | None -> (
        match Hashtbl.find_opt t.in_flight key with
        | Some cond ->
            Condition.wait cond t.lock;
            Mutex.unlock t.lock;
            obtain ~waited:true
        | None -> (
            t.misses <- t.misses + 1;
            let cond = Condition.create () in
            Hashtbl.replace t.in_flight key cond;
            Mutex.unlock t.lock;
            let finish res =
              Mutex.lock t.lock;
              Option.iter (fun v -> insert t key v) res;
              Hashtbl.remove t.in_flight key;
              Condition.broadcast cond;
              Mutex.unlock t.lock
            in
            match f () with
            | v ->
                finish (Some v);
                v
            | exception e ->
                finish None;
                raise e))
  in
  obtain ~waited:false

let length t =
  Mutex.lock t.lock;
  let n = t.size in
  Mutex.unlock t.lock;
  n

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      dedup_waits = t.dedup_waits;
      size = t.size;
      cap = t.cap;
    }
  in
  Mutex.unlock t.lock;
  s
