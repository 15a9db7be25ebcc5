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
    the full dense tableau, so neither changes a pivot.

    Every solve starts with an exact presolve ({!presolve}). Bound
    propagation finds the lower bound [lo_j >= 0] that the rows imply
    for each variable, and the tableau is built over [x' = x - lo]. A
    row [x_j >= c], an [x_i - x_j >= d] separation or a
    [Ge] row already met at [lo] then costs no artificial, so phase 1
    is left with only the rows that [lo] does not satisfy (chiefly the
    equalities). The feasible set, the status and the optimal objective
    are those of the problem as given; only which optimal vertex is
    returned may differ where several tie. *)

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

val presolve : problem -> float array * problem
(** [presolve p] is [(lo, p')]: the implied lower bounds and the
    problem over [x' = x - lo] that {!solve} hands its tableau.

    - [lo] starts at 0. Each row, oriented as [>=] ([Le] negated, [Eq]
      both ways), that has exactly one positive summed coefficient
      [a_k] raises [lo_k] to [(b - sum_{j<>k} a_j lo_j) / a_k]. The rows
      are swept in order until no bound rises, at most [n_vars + 1]
      times; a positive cycle (an infeasible LP) stops there, with
      bounds that are still implied. A bound rises only by more than
      1e-9 of its size, so a rounding error cannot seed a rise that a
      cycle of rows would amplify past a feasible point. A non-finite
      bound is no bound.
      On detailed-placement LPs this is the longest-path packing, and
      [Ilp]'s up-branch rows [x >= ceil v] become bounds.
    - [p'] has each row's right-hand side shifted to
      [b - sum a_j lo_j]. A one-variable row that [x' >= 0] implies is
      left out. A row whose shifted rhs is negative, or a [Ge] row
      whose shifted rhs is [<= 0], is negated, so every rhs is [>= 0]
      and a [Ge] row met at [lo] is written as [Le].

    [solve p] returns [x = lo + x'] for the [x'] it finds on [p'], and
    its objective recomputed from [x]. The solve keeps [lo] and this
    scratch in its workspace; [presolve] itself allocates, and exists
    so that tests can run an oracle on [p'].

    @raise Invalid_argument on malformed input (bad sizes or indices). *)

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
    phase 2 (phase 1 and the drive-out) to [simplex.phase1_pivots]. Both
    count the pivots on the presolved problem: phase 1 runs only for
    the equalities and the rows that [lo] leaves unmet.

    A bound row such as [x >= size/2] costs the tableau nothing: the
    presolve turns it into [lo] and leaves it out (one row and one
    slack column fewer), so [x >= 0] and every implied lower bound
    are free. Propagation itself is a few sweeps over the rows and
    allocates no array in a warm workspace.

    @raise Invalid_argument on malformed input (bad sizes or indices). *)

val pp_result : Format.formatter -> result -> unit
