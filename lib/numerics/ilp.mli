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

val solve :
  ?max_nodes:int ->
  ?ws:Simplex.workspace ->
  ?on_lp:(Simplex.problem -> unit) ->
  problem ->
  result
(** Solves at most [max_nodes] (default 500) LP relaxations; the node
    budget is the only limit, so results never depend on host load.
    Binary variables get an implicit [x <= 1] bound. Every relaxation
    is solved in [ws]; without it, the call creates one workspace and
    shares it across its nodes. [on_lp] sees each node's relaxation
    before it is solved (a test probe).

    A branch is a row on the relaxation: [x <= floor v] down, and
    [x >= ceil v] up. {!Simplex.solve}'s presolve turns an up-branch
    row (and any bound the rows imply) into the variable's lower bound
    and leaves the row out of the tableau, so an up-branch costs no
    artificial column.
    @raise Invalid_argument if [kinds] size mismatches the problem. *)
