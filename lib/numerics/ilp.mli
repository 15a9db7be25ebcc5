(** Integer linear programming by branch and bound over the simplex
    relaxation. Depth-first diving (nearest-branch-first) finds an
    incumbent quickly; best-bound pruning keeps node counts low at
    analog-placement problem sizes. *)

type vartype = Continuous | Integer | Binary

type problem = {
  base : Simplex.problem;  (** relaxation; variables are >= 0 *)
  kinds : vartype array;  (** one kind per variable *)
}

type status =
  | Ilp_optimal  (** proved optimal *)
  | Ilp_feasible  (** node budget hit; best incumbent returned *)
  | Ilp_infeasible
  | Ilp_unbounded

type result = {
  status : status;
  x : float array;
  objective_value : float;
  nodes : int;  (** LP relaxations solved *)
}

val solve : ?max_nodes:int -> problem -> result
(** Solves at most [max_nodes] (default 500) LP relaxations; the node
    budget is the only limit, so results never depend on host load.
    Binary variables get an implicit [x <= 1] bound.
    @raise Invalid_argument if [kinds] size mismatches the problem. *)
