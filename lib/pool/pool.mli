(** Fixed-size domain pool for the embarrassingly-parallel fan-outs of
    the experiment harness: circuits within a table, SA restarts, GNN
    dataset generation.

    {2 Determinism contract}

    [map pool f xs] promises the same results — and the same merged
    telemetry aggregates — for every value of [jobs], including 1:

    - Tasks must be independent: [f] may not communicate between tasks
      or depend on shared mutable state. Randomised tasks get their
      determinism from the caller pre-splitting one master [Rng.t] into
      per-task streams ({i before} the fan-out, in task order), so the
      stream a task consumes does not depend on which domain runs it.
      This clause is machine-checked by placer-lint's interprocedural
      pass (DESIGN.md §7) at every fan-out site: rule {b P1} rejects a
      task that writes shared module-level state (directly or via a
      callee), {b P2} rejects writes to a mutable value captured from
      the enclosing scope and still reachable after the join, and
      {b R1} rejects consuming a captured or global [Rng.t] instead of
      a pre-split per-task stream. The same summaries feed the cache
      rules {b C1}/{b C2} (a task that memoises through [Cache] must
      key every input it reads) and the hot-path rule {b A1} (a task
      body marked [[@@placer_lint.hot]] must not allocate per move).
    - Results are returned in input order, whatever the claim order.
    - Each task runs under {!Telemetry.capture}; the snapshots are
      merged into the caller's collector in task order at the join, so
      counters, span totals and traces come out schedule-independent.

    Exceptions raised by tasks are caught per task; after all tasks
    have settled, the exception of the lowest-index failing task is
    re-raised in the caller (with its backtrace). The pool survives and
    can be reused.

    Nested use is safe but not parallel: a [map] issued from inside a
    pool worker (e.g. GNN dataset generation nested under a parallel
    table row) runs its tasks inline on that worker, with the same
    capture/merge semantics. *)

type t

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] total workers: [jobs - 1] spawned domains plus the
    calling domain, which participates in every [map]. Defaults to
    [Domain.recommended_domain_count ()]; values [< 1] are clamped to
    1. [jobs = 1] spawns nothing and runs everything inline. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Apply [f] to every element, in parallel, preserving order. Blocks
    until all tasks settle. Must not be called concurrently from two
    non-worker domains. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val run_all : t -> (unit -> unit) list -> unit
(** Run every thunk; same semantics as {!map}. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; a [map] on a shut-down pool
    runs inline. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on raise). *)

(** {2 The process-wide default pool}

    Call sites that fan out ([Run.run_method], SA restarts, GNN dataset
    generation) share one lazily-created default pool, sized by
    [--jobs] at the CLI / bench entry points. *)

val set_default_jobs : int -> unit
(** Reconfigure the default pool size; shuts down the existing default
    pool, if any. Call before (or between) runs, not during one. *)

val default : unit -> t
(** The default pool, created on first use with the configured size
    (initially [Domain.recommended_domain_count ()]). *)
