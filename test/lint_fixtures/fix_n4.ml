(* Intentional N4 violation: Pool.map results stored into a hash table
   and reduced with Hashtbl.fold — the fold visits entries in hash
   order, so the float accumulation diverges between serial and
   parallel runs. (The same fold also trips D3, hash-order iteration.) *)

let pool_hash_reduce () =
  Pool.with_pool ~jobs:2 (fun p ->
      let sums =
        Pool.map p (fun i -> float_of_int i *. 0.5) (Array.init 8 Fun.id)
      in
      let tbl = Hashtbl.create 16 in
      Hashtbl.add tbl 0 sums;
      Hashtbl.fold
        (fun _ v acc -> acc +. Array.fold_left ( +. ) 0.0 v)
        tbl 0.0)

(* Taint flows through a second [let]: [b] derives from the pool
   results, so folding [b] out of a hash table is the same hazard. *)
let second_let () =
  Pool.with_pool ~jobs:2 (fun p ->
      let a = Pool.map p (fun i -> float_of_int i) (Array.init 8 Fun.id) in
      let b = Array.map (fun x -> x *. 2.0) a in
      let tbl = Hashtbl.create 16 in
      Hashtbl.add tbl 0 b;
      Hashtbl.fold (fun _ v acc -> acc +. v.(0)) tbl 0.0)

(* [Hashtbl.replace] stores the results as [Hashtbl.add] does *)
let via_replace () =
  Pool.with_pool ~jobs:2 (fun p ->
      let parts = Pool.map p (fun i -> float_of_int i) (Array.init 8 Fun.id) in
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace tbl 0 parts;
      Hashtbl.fold (fun _ v acc -> acc +. v.(1)) tbl 0.0)

(* a subtracting accumulation over Pool.map_list results, through
   Hashtbl.iter *)
let sub_accumulation () =
  Pool.with_pool ~jobs:2 (fun p ->
      let parts = Pool.map_list p (fun i -> float_of_int i) [ 1; 2; 3 ] in
      let tbl = Hashtbl.create 16 in
      Hashtbl.add tbl 0 parts;
      let total = ref 0.0 in
      Hashtbl.iter (fun _ v -> total := !total -. List.hd v) tbl;
      !total)

(* Pool.run_all returns unit: nothing to reduce, no N4 (D3 only) *)
let run_all_results () =
  Pool.with_pool ~jobs:2 (fun p ->
      let done_ = Pool.run_all p [ (fun () -> ()); (fun () -> ()) ] in
      let tbl = Hashtbl.create 4 in
      Hashtbl.replace tbl 0 done_;
      Hashtbl.fold (fun _ () acc -> acc +. 1.0) tbl 0.0)

(* a hash-order fold that accumulates no float: no N4 (D3 only) *)
let no_float_accumulation () =
  Pool.with_pool ~jobs:2 (fun p ->
      let sums = Pool.map p (fun i -> float_of_int i) (Array.init 8 Fun.id) in
      let tbl = Hashtbl.create 16 in
      Hashtbl.add tbl 0 sums;
      Hashtbl.fold (fun _ v acc -> acc + Array.length v) tbl 0)

(* The fold runs before the results reach the table. Taint flows
   forward only, so this fold is not N4 (D3 only). *)
let fold_before_add () =
  Pool.with_pool ~jobs:2 (fun p ->
      let tbl = Hashtbl.create 16 in
      let before = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0 in
      let sums = Pool.map p (fun i -> float_of_int i) (Array.init 8 Fun.id) in
      Hashtbl.replace tbl 0 sums.(0);
      before)

(* The stored value is the pool call itself, with no [let] between:
   the table is tainted all the same. *)
let stored_call () =
  Pool.with_pool ~jobs:2 (fun p ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace tbl 0
        (Pool.map p (fun i -> float_of_int i) (Array.init 8 Fun.id));
      Hashtbl.fold (fun _ v acc -> acc +. v.(0)) tbl 0.0)

(* ... through Hashtbl.add, into a subtracting Hashtbl.iter *)
let stored_call_list () =
  Pool.with_pool ~jobs:2 (fun p ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.add tbl 0 (Pool.map_list p (fun i -> float_of_int i) [ 1; 2 ]);
      let total = ref 0.0 in
      Hashtbl.iter (fun _ v -> total := !total -. List.hd v) tbl;
      !total)

(* a direct Pool.run_all call stores unit: no N4 (D3 only) *)
let stored_run_all () =
  Pool.with_pool ~jobs:2 (fun p ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.add tbl 0 (Pool.run_all p [ (fun () -> ()) ]);
      Hashtbl.fold (fun _ () acc -> acc +. 1.0) tbl 0.0)

(* The results reach the table through the element parameter of an
   [Array.iteri] lambda: the element is tainted, so the table is. *)
let iteri_store () =
  Pool.with_pool ~jobs:2 (fun p ->
      let results = Pool.map p (fun i -> float_of_int i) (Array.init 8 Fun.id) in
      let tbl = Hashtbl.create 16 in
      Array.iteri (fun i v -> Hashtbl.add tbl i v) results;
      Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0)

(* ... through [List.iter] over a value derived from the results *)
let list_iter_derived () =
  Pool.with_pool ~jobs:2 (fun p ->
      let parts = Pool.map_list p (fun i -> float_of_int i) [ 1; 2; 3 ] in
      let doubled = List.map (fun x -> x *. 2.0) parts in
      let tbl = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.replace tbl (Hashtbl.length tbl) v) doubled;
      let total = ref 0.0 in
      Hashtbl.iter (fun _ v -> total := !total -. v) tbl;
      !total)

(* ... through [Array.iter] straight over the pool call *)
let iter_over_call () =
  Pool.with_pool ~jobs:2 (fun p ->
      let tbl = Hashtbl.create 16 in
      Array.iter
        (fun v -> Hashtbl.replace tbl 0 v)
        (Pool.map p (fun i -> float_of_int i) (Array.init 8 Fun.id));
      Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0)

(* [iteri]'s index is not pool data: storing only the index stays
   quiet (D3 only) *)
let iteri_index_only () =
  Pool.with_pool ~jobs:2 (fun p ->
      let results = Pool.map p (fun i -> float_of_int i) (Array.init 8 Fun.id) in
      let tbl = Hashtbl.create 16 in
      Array.iteri (fun i _ -> Hashtbl.add tbl i (float_of_int i)) results;
      Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0)
