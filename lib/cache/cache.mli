(** Content-addressed result cache with bounded LRU eviction and
    in-flight computation dedup — the memoisation pattern that grew up
    inside [Gnn_setup.get], generalised so the placement service, the
    GNN model cache and any future template store share one audited
    implementation.

    Keys are strings; by convention a content hash (the service keys
    placement results on netlist-hash / constraints-hash / spec-hash,
    see DESIGN.md). Values are treated as immutable: every caller that
    hits a key receives the same (physically equal) value, so cached
    values must never be mutated.

    The key-soundness contract is enforced by placer-lint (DESIGN.md
    §7): every [get_or_compute] call site is a cache entry point whose
    thunk is closed over the call graph — rule {b C1} reports ambient
    state (env vars, clock, filesystem, hash-order iteration,
    domain-local storage, module-level mutable reads) the key cannot
    capture, and rule {b C2} reports a thunk input whose root never
    reaches the [~key] expression. Sites that intentionally relax the
    contract carry a reasoned [placer-lint: allow] stating why a
    cross-state hit is still correct.

    {2 Concurrency}

    All operations are thread- and domain-safe; one mutex serialises
    the table and recency list. [get_or_compute] releases the lock
    while the compute function runs, so concurrent lookups of {e other}
    keys proceed; concurrent callers of the {e same} missing key wait
    on a condition instead of duplicating the work ("single-flight").
    If the computer raises, the miss is withdrawn, one waiter is
    promoted to computer, and the exception propagates to the original
    caller only. *)

type 'v t

val create : ?capacity:int -> unit -> 'v t
(** [capacity] bounds the number of {e completed} entries (default 64);
    the least-recently-used entry is evicted on overflow. In-flight
    computations are not counted.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'v t -> int

val get_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v
(** [get_or_compute t ~key f] returns the cached value for [key],
    computing it with [f] on a miss. The entry becomes most recently
    used. [f] runs outside the cache lock. *)

val find : 'v t -> key:string -> 'v option
(** Lookup without computing; a hit refreshes recency. Does not wait
    for an in-flight computation of [key] ([None] meanwhile). A hit
    counts in {!stats}; a miss does not, because a caller that finds
    nothing goes on to {!get_or_compute}, which counts the request
    once — so a find-then-compute lookup is one hit or one miss. *)

val length : 'v t -> int
(** Completed entries currently cached. *)

type stats = {
  hits : int;
  misses : int;  (** [get_or_compute] calls that ran a compute *)
  evictions : int;  (** entries dropped by the LRU bound *)
  dedup_waits : int;
      (** lookups that waited on another caller's in-flight compute
          instead of duplicating it (each counts as a hit once the
          value lands) *)
  size : int;
  cap : int;
}

val stats : 'v t -> stats
(** A consistent snapshot of the counters. *)
