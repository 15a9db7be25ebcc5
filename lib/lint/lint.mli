(** placer-lint: typed determinism and parallel-safety rules, checked
    against the [.cmt] files dune produces for every module.

    The analyzer walks the Typedtree (so rules that depend on the
    instantiated type at a use site — notably F1 — are precise, not
    textual), and enforces the repo's reproducibility contract:
    parallel runs must reproduce serial runs bit for bit, so no code
    outside the sanctioned modules may read wall clocks, draw from the
    global RNG, iterate hashtables in hash order, or share module-level
    mutable state across domains.

    On top of the per-expression rules, an interprocedural effect and
    escape analysis ({!Effects}) computes a summary for every
    top-level function (fixpoint over call-graph SCCs) and re-checks
    every [Pool.map]/[map_list]/[run_all] task closure in "task mode":
    P1 (no writes to shared state), P2 (no writes to captured
    mutables) and R1 (no shared [Rng.t] streams — pre-split with
    [Rng.split_n]).

    A third, dependence pass ({!Deps}) layers cache-key soundness on
    the same summaries: every [Cache.get_or_compute] call site is a
    cache entry point whose thunk is closed over the call graph; C1
    reports ambient inputs (env vars, clock, filesystem, hash order,
    domain-local storage, module-level mutable reads) observable from
    the cached computation, C2 reports thunk inputs whose root is not
    reachable from the [~key] expression, and A1 reports heap
    allocation inside functions marked [[@@placer_lint.hot]] (the SA
    propose/commit path, the matheuristic window re-pricing).

    A fourth, numeric-stability pass ({!Numeric}) walks each function
    of the numeric core ([lib/numerics], [lib/density],
    [lib/wirelength], [lib/gnn], [lib/annealing], [lib/matheuristic],
    plus any function marked [[@@placer_lint.numeric]]) carrying a
    small interval/sign lattice per syntactic path: N1 exact float equality as a loop-exit or
    recursive-termination test; N2 [/.], [sqrt], [log] whose operand
    is not dominated by a zero/sign guard — divisors that are bare
    parameters become nonzero-args preconditions on the effect
    summaries and are re-checked at every call site (the N2 trace
    prints the forwarding chain); N3 non-compensated float
    accumulation inside [[@@placer_lint.numeric]] functions (the
    blessed fix is [Vec.ksum]/[Vec.kdot]); N4 float reductions over
    [Pool.map]/[map_list] results folded in hash order. *)

type rule =
  | D1  (** wall-clock read outside [lib/telemetry] *)
  | D2  (** [Stdlib.Random] outside [lib/numerics/rng.ml] *)
  | D3  (** [Hashtbl.iter]/[fold]/[hash]: hash-order iteration *)
  | D4  (** module-level mutable state outside [lib/pool] *)
  | F1  (** polymorphic [=]/[<>]/[compare] instantiated at a
            float-containing type *)
  | H1  (** [Obj.magic] or a catch-all [try ... with _ ->] *)
  | N1  (** exact float equality ([=], [compare], [Float.equal],
            [Float.compare]) used as a while-loop exit or recursive
            termination test on computed floats *)
  | N2  (** [/.], [sqrt] or [log] whose operand is not dominated by a
            zero/sign guard on the intraprocedural path; interprocedural
            through the [nonzero-args] summary field — a bare-parameter
            divisor obligates every call site *)
  | N3  (** non-compensated float accumulation ([fold_left (+.)],
            manual [r := !r +. e] loops) inside a
            [[@@placer_lint.numeric]] function; use [Vec.ksum]/[Vec.kdot] *)
  | N4  (** float reduction over [Pool.map]/[map_list] results folded
            in hash (non-task) order: parallel runs would diverge from
            serial *)
  | P1  (** a Pool task writes shared (module-level) mutable state,
            directly or via a callee whose summary is
            shared-mutation *)
  | P2  (** a Pool task writes a mutable value captured from the
            enclosing scope — still reachable by the caller after the
            join *)
  | R1  (** a Pool task consumes an [Rng.t] that is captured or
            global instead of a pre-split ([Rng.split_n]) per-task
            stream *)
  | C1  (** a cached computation (thunk of [Cache.get_or_compute],
            closed over the call graph) reads ambient state — env
            vars, wall clock, filesystem, hash-order iteration,
            domain-local storage, module-level mutable derefs — that
            its key cannot capture: a hit may return a value computed
            under different ambient state *)
  | C2  (** a thunk input (free variable expanded to its root
            parameters through the enclosing let-bindings) is not
            reachable from the [~key] expression: two calls differing
            only in that input collide on one cache entry *)
  | A1  (** heap allocation inside a function marked
            [[@@placer_lint.hot]] — pins the allocation-free per-move
            contract of the incremental SA engine; [ref] accumulators
            are deliberately exempt *)
  | Bad_suppress
      (** malformed [(* placer-lint: allow RULE reason *)] (unknown
          rule name or missing reason), or a stale one that covers no
          finding on its line or the next *)

val rule_name : rule -> string
val rule_of_string : string -> rule option

val all_rules : rule list
(** Every rule, in report order (D1..D4, F1, H1, N1..N4, P1, P2, R1,
    C1, C2, A1, SUPPRESS). *)

val rule_doc : rule -> string
(** One-line description, used by the SARIF rule table. *)

type finding = {
  file : string;  (** source path as recorded in the .cmt
                      (workspace-root relative under dune) *)
  line : int;
  col : int;
  rule : rule;
  message : string;
  trace : string list;
      (** flow trace printed by [lint_cli --explain]: for C1/C2 the
          call path from the cache entry point to the ambient read,
          for N2 the obligation-forwarding chain from the call site to
          the unguarded primitive, for N4 the pool fan-out origin and
          the hash-order fold site; [[]] where no flow is involved *)
}

val to_string : finding -> string
(** [file:line:col [RULE] message] — the diagnostic format promised to
    CI and editors. *)

module Summaries : module type of Effects.Summaries
(** Queryable per-function effect summaries, keyed by canonical dotted
    name (e.g. ["Annealing.Sa_placer.anneal"]); see
    {!Effects.Summaries}. *)

type allow = {
  al_file : string;
  al_line : int;
  al_rule : string;
  al_reason : string;
}
(** A validated [(* placer-lint: allow RULE reason *)] suppression;
    [lint_cli --list-allows] prints the full audit. *)

type report = {
  r_findings : finding list;  (** surviving findings, sorted by
                                  (file, line, col, rule) *)
  r_units : int;  (** compilation units analyzed *)
  r_summaries : Summaries.t;
      (** effect summaries from phase 1, with the [nonzero-args]
          preconditions patched in by the numeric pass *)
  r_allows : allow list;
      (** every validated suppression, sorted by (file, line) *)
}

val analyze :
  ?excludes:string list -> root:string -> string list -> report
(** [analyze ~root paths] scans every [*.cmt] (and [*.cmti] without a
    sibling [.cmt]) found under [paths], applies all rules — the
    per-expression rules plus the interprocedural passes — drops
    findings carried by a well-formed suppression comment on the same
    or preceding source line, reports malformed and stale suppressions
    as [Bad_suppress], and returns the report. [excludes]
    are substrings matched against both the .cmt path and the recorded
    source path; matching units are skipped entirely. [root] is the
    directory source paths recorded in the .cmt files are resolved
    against when reading suppression comments; a source file that
    cannot be found simply has no suppressions. *)

val counts_of : finding list -> (string * int) list
(** Findings per rule, in {!all_rules} order (zero counts included):
    the ["counts"] object of {!to_json} and the CLI's text footer. *)

val to_json : report -> string
(** One-object JSON document:
    [{"tool":"placer-lint","units":N,"counts":{"D1":n,...},
      "findings":[{"file":...,"line":...,"col":...,"rule":...,
      "message":...},...]}]. Findings with a flow trace carry an
    additional ["trace"] string array. *)

val to_sarif : report -> string
(** SARIF 2.1.0 (single run, one result per finding) for CI code
    scanning annotation. *)
