(* The benchmark's own arithmetic: rank-rule percentiles, geometric
   means, failure counting and the self time of benchmark-side spans.
   Free of the placer libraries, so its tests run on their own. *)

(* ---------- percentiles ---------- *)

(* A percentile meets the reporting rule when at least this many
   samples lie strictly beyond its rank. *)
let min_beyond = 10

type pct = { value : float; n : int; beyond : int }

(* Nearest rank: the k-th smallest of n samples, k = ceil (p n / 100),
   clamped to [1, n]. *)
let rank ~p n =
  if n <= 0 then invalid_arg "Pbstats.rank: no samples";
  let k = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  max 1 (min n k)

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentile ~p xs =
  let n = Array.length xs in
  if n = 0 then None
  else
    let k = rank ~p n in
    Some { value = (sorted xs).(k - 1); n; beyond = n - k }

let reportable pc = pc.beyond >= min_beyond

(* The plain median (mean of the middle pair for even n), for
   aggregating repeated timings of one fixed operation. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pbstats.median: no samples";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* Passes that repeat the same items in the same order: item i of one
   pass is item i of every other. Each item's median time over the
   passes. *)
let median_by_item passes =
  match passes with
  | [] -> [||]
  | p :: _ ->
      Array.init (Array.length p) (fun i ->
          median (Array.of_list (List.map (fun q -> q.(i)) passes)))

(* Each pass's times scaled by [nominal /. r], where [r] is the time of
   the reference burst that followed the pass: the times the pass would
   have taken on a host that runs the burst in [nominal]. *)
let normalise ~nominal passes refs =
  List.map2 (fun ts r -> Array.map (fun t -> t *. nominal /. r) ts) passes refs

let mean xs =
  if Array.length xs = 0 then invalid_arg "Pbstats.mean: no samples";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let geomean xs =
  if Array.length xs = 0 then invalid_arg "Pbstats.geomean: no samples";
  if Array.exists (fun x -> not (x > 0.0)) xs then
    invalid_arg "Pbstats.geomean: non-positive sample";
  exp (mean (Array.map log xs))

(* A ratio with the base it was taken over, so a reader can tell 0/0
   from 0/1000. *)
type ratio = { num : float; base : float }

let ratio_value r = if r.base > 0.0 then r.num /. r.base else 0.0

(* ---------- failures ---------- *)

type verdict =
  | Placed
  | No_layout
  | Illegal of int  (* number of legality violations *)
  | Error of string  (* the placer raised, or the service said ok:false *)
  | Refused of string  (* the service refused to run the job *)

let verdict_of_violations n = if n = 0 then Placed else Illegal n

let is_failure = function
  | Placed -> false
  | No_layout | Illegal _ | Error _ | Refused _ -> true

(* [(attempted, failed)] *)
let count_failures vs =
  (List.length vs, List.length (List.filter is_failure vs))

let verdict_to_string = function
  | Placed -> "placed"
  | No_layout -> "no layout"
  | Illegal n -> Printf.sprintf "%d violations" n
  | Error e -> "error: " ^ e
  | Refused e -> "refused: " ^ e

(* ---------- benchmark-side spans ---------- *)

type span = {
  id : int;
  parent : int option;
  group : int;  (* every span of one job or request shares this id *)
  name : string;
  t0 : float;
  t1 : float;
}

(* Total length covered by a set of intervals, overlaps counted once. *)
let union_length intervals =
  let a = Array.of_list intervals in
  Array.sort (fun (s1, _) (s2, _) -> Float.compare s1 s2) a;
  let total = ref 0.0 and cur = ref None in
  Array.iter
    (fun (s, e) ->
      match !cur with
      | None -> cur := Some (s, e)
      | Some (cs, ce) ->
          if s <= ce then cur := Some (cs, Float.max ce e)
          else begin
            total := !total +. (ce -. cs);
            cur := Some (s, e)
          end)
    a;
  (match !cur with Some (cs, ce) -> total := !total +. (ce -. cs) | None -> ());
  !total

(* A span's duration minus the part its children cover. Children are
   clipped to the parent; overlapping children (parallel jobs under a
   phase) are counted once. *)
let self_time spans s =
  let kids =
    List.filter_map
      (fun c ->
        if c.parent = Some s.id then
          let a = Float.max s.t0 c.t0 and b = Float.min s.t1 c.t1 in
          if b > a then Some (a, b) else None
        else None)
      spans
  in
  (s.t1 -. s.t0) -. union_length kids

(* An in-memory span recorder, safe to use from several domains. A
   disabled recorder runs the bodies and keeps nothing. *)
module Recorder = struct
  type t = {
    enabled : bool;
    clock : unit -> float;
    lock : Mutex.t;
    next : int Atomic.t;
    mutable acc : span list;
  }

  let create ~enabled ~clock =
    { enabled; clock; lock = Mutex.create (); next = Atomic.make 0; acc = [] }

  let enabled t = t.enabled
  let fresh_id t = Atomic.fetch_and_add t.next 1

  let add t s =
    if t.enabled then begin
      Mutex.lock t.lock;
      t.acc <- s :: t.acc;
      Mutex.unlock t.lock
    end

  (* [with_ t ?parent ~group name f] runs [f id] inside a span; [id] is
     the new span's id, for children to name as their parent. *)
  let with_ t ?parent ?group name f =
    if not t.enabled then f (-1)
    else begin
      let id = fresh_id t in
      let group = Option.value group ~default:id in
      let t0 = t.clock () in
      Fun.protect
        ~finally:(fun () -> add t { id; parent; group; name; t0; t1 = t.clock () })
        (fun () -> f id)
    end

  let spans t =
    Mutex.lock t.lock;
    let l = List.rev t.acc in
    Mutex.unlock t.lock;
    l
end

(* Rebuild parent links for properly nested intervals recorded on one
   domain: each interval's parent is the innermost earlier one that
   contains it, or [root]. Input is (start, stop, payload); output keeps
   input order as (index, parent index option). *)
let nest intervals =
  let a = Array.of_list (List.mapi (fun i (s, e, _) -> (i, s, e)) intervals) in
  Array.sort
    (fun (_, s1, e1) (_, s2, e2) ->
      match Float.compare s1 s2 with 0 -> Float.compare e2 e1 | c -> c)
    a;
  let parent = Array.make (Array.length a) None in
  let stack = ref [] in
  Array.iter
    (fun (i, s, e) ->
      let rec pop () =
        match !stack with
        | (_, _, pe) :: rest when pe +. 1e-9 < e ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with (j, _, _) :: _ -> parent.(i) <- Some j | [] -> ());
      stack := (i, s, e) :: !stack)
    a;
  List.mapi (fun i _ -> (i, parent.(i))) intervals
