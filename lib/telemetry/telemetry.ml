(* Domain-safe collector: every domain records into its own collector
   (held in domain-local storage), so placers running under the domain
   pool never contend or race. [capture] runs a thunk against a fresh
   collector and returns what it recorded; [merge] folds a snapshot
   into the calling domain's collector — the pool merges worker
   snapshots in task order at join, which makes the merged aggregates
   (and the sink output) independent of scheduling.

   Spans cost two clock reads and one hashtable update, counters an
   array increment behind a DLS lookup, so the placers keep them on
   unconditionally and the sink decides whether anything is emitted. *)

let now () = Unix.gettimeofday ()

(* ----- interned handles -----

   Handles are global and immutable: a name is interned once (under a
   mutex, so any domain may mint handles) and maps to a small integer
   id. Values live in the per-domain collector, indexed by id. *)

let registry_lock = Mutex.create ()

type registry = {
  mutable names : string array;  (* id -> name; first [n_ids] are live *)
  mutable n_ids : int;
  index : (string, int) Hashtbl.t;
}

let new_registry () =
  { names = Array.make 16 ""; n_ids = 0; index = Hashtbl.create 32 }

let intern r name =
  Mutex.lock registry_lock;
  let id =
    match Hashtbl.find_opt r.index name with
    | Some id -> id
    | None ->
        let id = r.n_ids in
        if id >= Array.length r.names then begin
          let bigger = Array.make (2 * Array.length r.names) "" in
          Array.blit r.names 0 bigger 0 id;
          r.names <- bigger
        end;
        r.names.(id) <- name;
        r.n_ids <- id + 1;
        Hashtbl.add r.index name id;
        id
  in
  Mutex.unlock registry_lock;
  id

let registry_entries r =
  Mutex.lock registry_lock;
  let l = Array.to_list (Array.sub r.names 0 r.n_ids) in
  Mutex.unlock registry_lock;
  l

(* placer-lint: allow D4 process-wide metric-name interning table; every access is serialised by registry_lock *)
let counter_registry = new_registry ()
(* placer-lint: allow D4 process-wide metric-name interning table; every access is serialised by registry_lock *)
let gauge_registry = new_registry ()

type span = {
  path : string list;
  span_name : string;
  t_start : float;
  dur_s : float;
}

(* ----- sinks ----- *)

type report = {
  r_spans : (string * int * float) list;  (* name, count, total_s *)
  r_counters : (string * int) list;
  r_gauges : (string * float) list;
}

type sink = { on_span : span -> unit; on_flush : report -> unit }

let noop = { on_span = ignore; on_flush = ignore }

let summary ppf =
  let on_flush r =
    Fmt.pf ppf "@.-- telemetry ----------------------------------------@.";
    (match r.r_spans with
    | [] -> ()
    | spans ->
        Fmt.pf ppf "%-28s %8s %12s@." "span" "count" "total(s)";
        List.iter
          (fun (name, count, total) ->
            Fmt.pf ppf "%-28s %8d %12.4f@." name count total)
          spans);
    List.iter
      (fun (name, v) -> Fmt.pf ppf "%-28s %21d@." name v)
      r.r_counters;
    List.iter
      (fun (name, v) ->
        if not (Float.is_nan v) then Fmt.pf ppf "%-28s %21.6g@." name v)
      r.r_gauges;
    Fmt.pf ppf "-----------------------------------------------------@."
  in
  { on_span = ignore; on_flush }

let jsonl oc =
  let line typ fields =
    output_string oc
      (Jsonio.to_string (Jsonio.Obj (("type", Jsonio.Str typ) :: fields)));
    output_char oc '\n'
  in
  let on_span s =
    line "span"
      [
        ("name", Jsonio.Str s.span_name);
        ("path", Jsonio.Arr (List.map (fun p -> Jsonio.Str p) s.path));
        ("t_start", Jsonio.Num s.t_start);
        ("dur_s", Jsonio.Num s.dur_s);
      ]
  in
  let on_flush r =
    List.iter
      (fun (name, v) ->
        line "counter"
          [ ("name", Jsonio.Str name); ("value", Jsonio.Num (float_of_int v)) ])
      r.r_counters;
    List.iter
      (fun (name, v) ->
        if not (Float.is_nan v) then
          line "gauge" [ ("name", Jsonio.Str name); ("value", Jsonio.Num v) ])
      r.r_gauges;
    flush oc
  in
  { on_span; on_flush }

(* ----- the per-domain collector ----- *)

type agg = { mutable a_count : int; mutable a_total : float }

type collector = {
  mutable c_counters : int array;  (* by counter id *)
  mutable c_gauges : float array;  (* by gauge id; nan = unset *)
  c_span_aggs : (string, agg) Hashtbl.t;
  mutable c_finished : span list;  (* newest first *)
  mutable c_stack : string list;  (* innermost first *)
  mutable c_sink : sink;
}

let new_collector () =
  {
    c_counters = [||];
    c_gauges = [||];
    c_span_aggs = Hashtbl.create 32;
    c_finished = [];
    c_stack = [];
    c_sink = noop;
  }

let collector_key : collector Domain.DLS.key =
  Domain.DLS.new_key new_collector

let cur () = Domain.DLS.get collector_key

let counter_slot col id =
  let a = col.c_counters in
  if id < Array.length a then a
  else begin
    let bigger = Array.make (max 16 (2 * (id + 1))) 0 in
    Array.blit a 0 bigger 0 (Array.length a);
    col.c_counters <- bigger;
    bigger
  end

let gauge_slot col id =
  let a = col.c_gauges in
  if id < Array.length a then a
  else begin
    let bigger = Array.make (max 16 (2 * (id + 1))) nan in
    Array.blit a 0 bigger 0 (Array.length a);
    col.c_gauges <- bigger;
    bigger
  end

module Counter = struct
  type t = { c_id : int; c_name : string }

  let make name = { c_id = intern counter_registry name; c_name = name }

  let add c n =
    let col = cur () in
    let a = counter_slot col c.c_id in
    a.(c.c_id) <- a.(c.c_id) + n

  let incr c = add c 1

  let value c =
    let a = (cur ()).c_counters in
    if c.c_id < Array.length a then a.(c.c_id) else 0

  let name c = c.c_name
end

module Gauge = struct
  type t = { g_id : int; g_name : string }

  let make name = { g_id = intern gauge_registry name; g_name = name }

  let set g v =
    let col = cur () in
    let a = gauge_slot col g.g_id in
    a.(g.g_id) <- v

  let value g =
    let a = (cur ()).c_gauges in
    if g.g_id < Array.length a then a.(g.g_id) else nan

  let name g = g.g_name
end

let set_sink s = (cur ()).c_sink <- s

let reset () =
  let col = cur () in
  Hashtbl.reset col.c_span_aggs;
  col.c_finished <- [];
  col.c_stack <- [];
  Array.fill col.c_counters 0 (Array.length col.c_counters) 0;
  Array.fill col.c_gauges 0 (Array.length col.c_gauges) nan

module Span = struct
  let record col name t_start dur_s path =
    (match Hashtbl.find_opt col.c_span_aggs name with
    | Some a ->
        a.a_count <- a.a_count + 1;
        a.a_total <- a.a_total +. dur_s
    | None -> Hashtbl.add col.c_span_aggs name { a_count = 1; a_total = dur_s });
    let s = { path; span_name = name; t_start; dur_s } in
    col.c_finished <- s :: col.c_finished;
    col.c_sink.on_span s

  let timed ~name f =
    let col = cur () in
    let path = List.rev col.c_stack in
    col.c_stack <- name :: col.c_stack;
    let t0 = now () in
    let finish () =
      let dur = now () -. t0 in
      (* re-read the collector: [capture] may not swap it mid-span, but
         being defensive here costs one DLS load *)
      let col = cur () in
      col.c_stack <- (match col.c_stack with _ :: tl -> tl | [] -> []);
      record col name t0 dur path;
      dur
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
        ignore (finish ());
        raise e

  let with_ ~name f = fst (timed ~name f)
end

let span_total name =
  match Hashtbl.find_opt (cur ()).c_span_aggs name with
  | Some a -> a.a_total
  | None -> 0.0

let span_count name =
  match Hashtbl.find_opt (cur ()).c_span_aggs name with
  | Some a -> a.a_count
  | None -> 0

let spans () = List.rev (cur ()).c_finished

let sorted_by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* Deterministic view of a string-keyed hash table: bindings sorted by
   key, so hash order can never leak into sinks, merges or reports. *)
let sorted_bindings tbl =
  Hashtbl.to_seq tbl |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () =
  List.map
    (fun name -> (name, Counter.value (Counter.make name)))
    (registry_entries counter_registry)
  |> sorted_by_name

let gauges () =
  List.map
    (fun name -> (name, Gauge.value (Gauge.make name)))
    (registry_entries gauge_registry)
  |> sorted_by_name

let flush () =
  let col = cur () in
  let r_spans =
    List.map
      (fun (name, a) -> (name, a.a_count, a.a_total))
      (sorted_bindings col.c_span_aggs)
  in
  col.c_sink.on_flush
    { r_spans; r_counters = counters (); r_gauges = gauges () }

(* ----- capture / merge (the pool's join protocol) ----- *)

type snapshot = collector

let capture f =
  let parent = cur () in
  let fresh = new_collector () in
  Domain.DLS.set collector_key fresh;
  match f () with
  | r ->
      Domain.DLS.set collector_key parent;
      (r, fresh)
  | exception e ->
      Domain.DLS.set collector_key parent;
      raise e

let merge snap =
  let col = cur () in
  Array.iteri
    (fun id v ->
      if v <> 0 then begin
        let a = counter_slot col id in
        a.(id) <- a.(id) + v
      end)
    snap.c_counters;
  Array.iteri
    (fun id v ->
      if not (Float.is_nan v) then begin
        let a = gauge_slot col id in
        a.(id) <- v
      end)
    snap.c_gauges;
  List.iter
    (fun (name, (a : agg)) ->
      match Hashtbl.find_opt col.c_span_aggs name with
      | Some dst ->
          dst.a_count <- dst.a_count + a.a_count;
          dst.a_total <- dst.a_total +. a.a_total
      | None ->
          Hashtbl.add col.c_span_aggs name
            { a_count = a.a_count; a_total = a.a_total })
    (sorted_bindings snap.c_span_aggs);
  (* replay the captured spans through the parent's sink, oldest first,
     so a jsonl trace of a parallel run is ordered by task, not by
     scheduling accident *)
  List.iter
    (fun s ->
      col.c_finished <- s :: col.c_finished;
      col.c_sink.on_span s)
    (List.rev snap.c_finished)
