(** Two-phase primal simplex for linear programs

    {[ minimize c.x  subject to  a_i.x (<= | = | >=) b_i,  x >= 0 ]}

    This powers the LP legalization / detailed placement of the prior
    analytical work and the LP relaxations inside the ILP
    branch-and-bound. Analog problem sizes (hundreds of rows) keep the
    tableau dense, but each pivot eliminates over the pivot row's
    nonzero columns only. That takes exactly the pivots of a dense
    elimination and yields the same values, except that a cell may hold
    [+0.0] where the dense one holds [-0.0]; no comparison the solver
    makes tells the two apart. *)

type op = Le | Ge | Eq

type constr = { coeffs : (int * float) list; op : op; rhs : float }
(** Sparse row: list of (variable index, coefficient). *)

type problem = {
  n_vars : int;
  objective : float array;  (** length [n_vars]; minimized *)
  constraints : constr list;
}

type solution = { x : float array; objective_value : float }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit  (** safety valve; treat as a solver failure *)

val solve : ?max_iter:int -> problem -> result
(** The ratio test only admits pivot elements with [|pv| > eps], and
    the pivot routine turns a zero pivot into a hard error rather than
    a silent [inf]/[nan] tableau (placer-lint rule N2: division and
    reciprocal scaling are guarded). Entering columns follow Dantzig's
    rule for the first [5 (m + ncols)] iterations of each phase (rows
    plus structural, slack and artificial columns), then Bland's
    smallest-index rule, which cannot cycle; ratio ties go to the
    smallest basic index. Degenerate problems — tied ratio tests,
    redundant constraints through one vertex, Beale-style cycling
    examples — therefore reach their optimum (Beale's LP after 50
    cycling Dantzig pivots and 4 Bland pivots, pinned by tests);
    [max_iter] only bounds the work per phase.

    Each call adds its pivots (phase 1, driving artificials out, phase
    2) to the telemetry counter [simplex.pivots].

    @raise Invalid_argument on malformed input (bad sizes or indices). *)

val pp_result : Format.formatter -> result -> unit
