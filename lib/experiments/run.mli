(** One function per table and figure of the paper's evaluation
    (Sec. IV-C and V-C). DESIGN.md maps each to its bench target;
    EXPERIMENTS.md records paper-vs-measured. *)

type cfg = {
  quick : bool;
  sa_moves : int;
  sa_perf_moves : int;
  restarts : int;
  alpha : float;  (** Eq. 5 weight for the analytical performance term *)
  sa_alpha : float;
  check_eval : int;
      (** SA debug: cross-check the incremental cost engine against a
          full recomputation every N evaluations (0 disables) *)
}

val default_cfg : cfg
val quick_cfg : cfg

type method_row = {
  design : string;
  area : float;
  hpwl : float;
  runtime : float;
  gp_s : float;  (** phase breakdown from the run's telemetry *)
  dp_s : float;
  violations : int;
      (** {!Netlist.Checks.all} on the layout: 0 for a legal one (and
          for a failed design) *)
  error : string option;
      (** [Some why] when the placer produced no layout for this design
          (the numeric columns are then [nan]); also logged on stderr
          at the fan-out join *)
}

val run_method : Methods.t -> string list -> method_row list
(** One placement per design on the default pool. Failed designs yield
    a row with [error = Some _], illegal layouts a row with
    [violations > 0]; both get a stderr report at the join, in task
    order, so the log is the same whatever the worker count. *)

val table1 : cfg -> Table_fmt.t
(** Soft vs hard symmetry constraints in global placement. *)

val fig2 : cfg -> Table_fmt.t
(** Area-term ablation (with vs without eta Area(v)). *)

val table3 : cfg -> Table_fmt.t * Table_fmt.t
(** Main conventional comparison on the paper's ten circuits
    ({!Circuits.Testcases.all_names}): SA vs prior work [11] vs
    ePlace-A (and the template and matheuristic families), with
    geometric-mean [Avg.(X)] ratios against ePlace-A, then the
    per-method GP/DP runtime breakdown of the same runs. An illegal
    layout's area cell ends in ["!"]. *)

val table4 : cfg -> Table_fmt.t
(** Detailed placement only, from the same GP solutions. *)

val table5 : cfg -> Table_fmt.t * (string * float list) list
(** FOM for the three methods, conventional and performance-driven. *)

val table6 : cfg -> Table_fmt.t
(** CC-OTA detailed metrics, ePlace-A vs ePlace-AP. *)

val table7 : cfg -> Table_fmt.t * Table_fmt.t
(** Area/HPWL/runtime for the performance-driven methods on the ten
    circuits, then their runtime breakdown as in {!table3}. Each
    circuit's GNN is trained once before the families run (offline, as
    in the paper: no family's runtime includes it), and the breakdown
    shows that training time in one [GNN] column per circuit. *)

type point = { p_method : string; p_x : float; p_y : float }

val fig5 : cfg -> Table_fmt.t * point list
(** HPWL-area tradeoff scatter on CM-OTA1 (parameter sweeps). *)

val fig6 : cfg -> Table_fmt.t * point list
(** FOM-area tradeoff scatter on CM-OTA1. *)

val ablations : cfg -> Table_fmt.t
(** Beyond-the-paper ablations of ePlace-A's design choices: WA vs LSE
    smoothing, flipping strategy, restarts, density-grid resolution and
    DP refinement passes. *)

val scaling : cfg -> Table_fmt.t * Table_fmt.t
(** Beyond-the-paper size axis: {!table3}'s five-family comparison on
    ["Scaled-<n>"] ({!Circuits.Testcases.scaled}) for n = 12, 40 and
    120 (12 and 40 when [quick]), with one analytical restart.
    Scaled-240 is left out until ePlace-A's detailed placement there
    gets faster: one restart takes about 19 min. *)
