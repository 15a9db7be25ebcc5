(* P2 fixture: a task writes a mutable value captured from the
   enclosing scope that the caller can still reach after the join. *)

let leaky () =
  let sum = ref 0 in
  Pool.with_pool ~jobs:2 (fun p ->
      Pool.run_all p (List.map (fun i () -> sum := !sum + i) [ 1; 2; 3 ]));
  !sum

(* A composite task whose thunks hold inner lambdas. Only the topmost
   lambdas are tasks: [acc] is allocated inside each thunk, so the inner
   [fun j -> ...] writes task-local state and nothing fires. *)
let nested_thunks () =
  Pool.with_pool ~jobs:2 (fun p ->
      Pool.run_all p
        (List.map
           (fun i () ->
             let acc = Array.make 2 0 in
             List.iter (fun j -> acc.(0) <- acc.(0) + (i * j)) [ 1; 2 ];
             ignore acc.(0))
           [ 1; 2; 3 ]))
