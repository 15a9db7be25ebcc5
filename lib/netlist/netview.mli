(** Typed device↔net incidence index over a {!Circuit.t}.

    Built once and shared: the annealer's incremental cost engine, the
    ILP detailed placer and the smoothed-wirelength views all key their
    caches off this index instead of rebuilding incidence ad hoc. The
    arrays returned by the accessors are owned by the view — callers
    must not mutate them. *)

type t

val of_circuit : Circuit.t -> t
(** O(terminals) construction. *)

val circuit : t -> Circuit.t
val n_devices : t -> int
val n_nets : t -> int

val nets_of_device : t -> int -> int array
(** Ids of nets incident to the device, ascending, deduplicated. *)

val degree : t -> int -> int
(** Terminal count of the net (counting duplicate devices). *)

val active : t -> int -> bool
(** A net contributes to wirelength iff its weight is positive and it
    spans at least two terminals; single-pin and weightless nets have
    zero HPWL by definition and every evaluation path skips them. *)

val active_nets : t -> int array
(** Ids of all active nets, ascending. *)
