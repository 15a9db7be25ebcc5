(* Branch and bound over LP relaxations (depth-first with best-bound
   pruning). Integer variables are branched by adding bound rows to the
   relaxation; binaries get an implicit upper bound of 1. The node
   budget is the only limit: no clock is read, so a solve is a pure
   function of its problem. *)

type vartype = Continuous | Integer | Binary

type problem = { base : Simplex.problem; kinds : vartype array }

type status = Ilp_optimal | Ilp_feasible | Ilp_infeasible | Ilp_unbounded

type result = {
  status : status;
  x : float array;
  objective_value : float;
  nodes : int;
}

type node = { extra : Simplex.constr list; depth : int }

let int_tol = 1e-5

let is_integral v = abs_float (v -. Float.round v) <= int_tol

let nodes_counter = Telemetry.Counter.make "ilp.nodes"
let solves_counter = Telemetry.Counter.make "ilp.solves"

let solve ?(max_nodes = 500) ?ws (p : problem) =
  if Array.length p.kinds <> p.base.Simplex.n_vars then
    invalid_arg "Ilp.solve: kinds size";
  (* one tableau for every node of the tree *)
  let ws = match ws with Some ws -> ws | None -> Simplex.workspace () in
  let binary_bounds =
    List.concat
      (List.init (Array.length p.kinds) (fun j ->
           match p.kinds.(j) with
           | Binary ->
               [ { Simplex.coeffs = [ (j, 1.0) ]; op = Simplex.Le; rhs = 1.0 } ]
           | Integer | Continuous -> []))
  in
  let relax extra =
    Simplex.solve ~ws
      {
        p.base with
        Simplex.constraints =
          binary_bounds @ extra @ p.base.Simplex.constraints;
      }
  in
  Telemetry.Counter.incr solves_counter;
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let nodes = ref 0 in
  let truncated = ref false in
  let stack = ref [ { extra = []; depth = 0 } ] in
  let root_unbounded = ref false in
  let running = ref true in
  while !running do
    match !stack with
    | [] -> running := false
    | node :: rest ->
        stack := rest;
        if !nodes >= max_nodes then begin
          truncated := true;
          stack := []
        end
        else begin
          incr nodes;
          match relax node.extra with
          | Simplex.Infeasible -> ()
          | Simplex.Iter_limit -> truncated := true
          | Simplex.Unbounded ->
              if node.depth = 0 then begin
                root_unbounded := true;
                stack := []
              end
          | Simplex.Optimal sol ->
              if sol.Simplex.objective_value >= !incumbent_obj -. 1e-9 then ()
              else begin
                (* most fractional integer variable, binaries first *)
                let frac j = abs_float (sol.Simplex.x.(j)
                                        -. Float.round sol.Simplex.x.(j)) in
                let pick = ref (-1) and best = ref int_tol in
                let consider j =
                  let f = frac j in
                  if f > !best then begin
                    best := f;
                    pick := j
                  end
                in
                Array.iteri
                  (fun j k -> match k with Binary -> consider j | _ -> ())
                  p.kinds;
                if !pick < 0 then
                  Array.iteri
                    (fun j k -> match k with Integer -> consider j | _ -> ())
                    p.kinds;
                if !pick < 0 then begin
                  (* integral: new incumbent *)
                  incumbent := Some sol;
                  incumbent_obj := sol.Simplex.objective_value
                end
                else begin
                  let j = !pick in
                  let v = sol.Simplex.x.(j) in
                  let lo =
                    { Simplex.coeffs = [ (j, 1.0) ]; op = Simplex.Le;
                      rhs = Float.of_int (int_of_float (Float.floor v)) }
                  and hi =
                    { Simplex.coeffs = [ (j, 1.0) ]; op = Simplex.Ge;
                      rhs = Float.of_int (int_of_float (Float.ceil v)) }
                  in
                  let down = { extra = lo :: node.extra; depth = node.depth + 1 }
                  and up = { extra = hi :: node.extra; depth = node.depth + 1 } in
                  (* explore the branch nearer the relaxed value first *)
                  let first, second =
                    if v -. Float.floor v <= 0.5 then (down, up) else (up, down)
                  in
                  stack := first :: second :: !stack
                end
              end
        end
  done;
  Telemetry.Counter.add nodes_counter !nodes;
  match !incumbent with
  | Some sol ->
      let x = Array.copy sol.Simplex.x in
      (* clean near-integral values *)
      Array.iteri
        (fun j k ->
          match k with
          | Binary | Integer -> if is_integral x.(j) then x.(j) <- Float.round x.(j)
          | Continuous -> ())
        p.kinds;
      {
        status = (if !truncated then Ilp_feasible else Ilp_optimal);
        x;
        objective_value = sol.Simplex.objective_value;
        nodes = !nodes;
      }
  | None ->
      {
        status = (if !root_unbounded then Ilp_unbounded else Ilp_infeasible);
        x = Array.make p.base.Simplex.n_vars 0.0;
        objective_value = infinity;
        nodes = !nodes;
      }
