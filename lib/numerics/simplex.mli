(** Two-phase primal simplex for linear programs

    {[ minimize c.x  subject to  a_i.x (<= | = | >=) b_i,  x >= 0 ]}

    This powers the LP legalization / detailed placement of the prior
    analytical work and the LP relaxations inside the ILP
    branch-and-bound. Analog problem sizes (hundreds of rows) keep the
    tableau dense, but each pivot eliminates over the pivot row's
    nonzero columns only. That takes exactly the pivots of a dense
    elimination and yields the same values, except that a cell may hold
    [+0.0] where the dense one holds [-0.0]; no comparison the solver
    makes tells the two apart.

    The tableau is one row-major float array in a {!workspace} that the
    caller owns. A [Ge] row's artificial column is kept implicit: it
    stays the exact negation of the row's slack column (up to the sign
    of a zero), so it is read as [-. slack] and never stored, scaled or
    eliminated. Column numbering, pricing and tie-breaking are those of
    the full dense tableau, so neither changes a pivot. *)

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

type workspace
(** Scratch storage for solves: the tableau and its index arrays. Each
    array grows to the exact size a solve needs and is never shrunk, so
    a workspace holds as much as the largest LP solved in it. Reuse one
    across the LPs of one job (the nodes of a branch-and-bound tree, the
    axes of a detailed placement); a solve overwrites all of it, so
    nothing leaks from one LP into the next, even after a solve that
    raised or stopped at [max_iter]. A workspace is not thread-safe:
    give each domain its own. *)

val workspace : unit -> workspace
(** An empty workspace; the first solve sizes it. *)

val solve : ?max_iter:int -> ?ws:workspace -> problem -> result
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

    [ws] defaults to a fresh workspace, used once.

    Each call adds its pivots (phase 1, driving artificials out, phase
    2) to the telemetry counter [simplex.pivots], and those taken before
    phase 2 (phase 1 and the drive-out: the work a feasible start would
    remove) to [simplex.phase1_pivots].

    @raise Invalid_argument on malformed input (bad sizes or indices). *)

val pp_result : Format.formatter -> result -> unit
