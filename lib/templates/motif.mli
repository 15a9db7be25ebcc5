(** Motif canonicalization: the seed-independent identity of one
    placement {!Annealing.Island} and the Pareto family of packed
    sub-placements stored against it.

    A motif abstracts an island down to what placement legality and
    quality can depend on: the multiset of device dimensions, the
    constraint shape (symmetry pair/self structure, alignment kinds,
    order chains) and the net-incidence fingerprint — all expressed in
    {e slot} indices, a canonical renumbering of the island's devices
    by sorted (w, h). Two islands from different netlists that agree on
    this data hash identically and can share packed sub-placements:
    a packing satisfies a constraint expressed in slot terms wherever
    it satisfied it in the netlist that generated it. *)

type shape =
  | Sym of { vertical : bool; pairs : (int * int) list; selfs : int list }
      (** symmetry group; [pairs] normalised to (min, max) and sorted,
          [selfs] sorted — all in slot indices *)
  | Row  (** alignment cluster packed as a row *)
  | Free  (** single unconstrained device *)

type t = {
  dims : (float * float) array;  (** slot → (w, h), sorted ascending *)
  shape : shape;
  aligns : (int * int * int) list;
      (** island-internal alignment pairs as (kind, slot, slot) with
          kind ∈ 0..3 = Bottom/Top/Vcenter/Hcenter, slots normalised to
          (min, max), list sorted *)
  chains : (int * int list) list;
      (** order chains projected to the island (members in chain order)
          as (dir, slots) with dir 0 = left-to-right, 1 = bottom-to-top;
          only projections with ≥ 2 island members are kept *)
  nets : (float * int list) list;
      (** net-incidence fingerprint: (weight, sorted slot list) for
          every net touching ≥ 2 island devices, canonically sorted *)
}

(** One packed sub-placement of a motif, in slot space. Instantiating
    it against a concrete island is a pure relabelling. *)
type packing = {
  px : float array;  (** slot → centre x offset from the lower-left *)
  py : float array;
  por : Geometry.Orient.t array;
  pw : float;  (** bounding width *)
  ph : float;
  p_hpwl : float;  (** internal HPWL over the motif's nets *)
  p_axis : float option;  (** vertical symmetry axis offset, if any *)
}

val of_island :
  Netlist.Circuit.t -> Annealing.Island.t -> t * int array * packing
(** Canonicalize one decomposed island. Returns the motif, the slot
    map (slot → device id) and the island's own packing as the {e seed}
    (bit-exact copies of the island's coordinates, so instantiating the
    seed reproduces the island). *)

val hash : t -> string
(** Stable content hash: hex digest of the canonical
    ({!Jsonio.sorted}) encoding of {!to_json}. Independent of device
    numbering and of JSON field order. *)

val to_json : t -> Jsonio.t

val n_slots : t -> int

val permutable : t -> bool
(** Whether the family may contain arrangements other than the seed:
    false when an order chain pins the internal arrangement or a
    non-bottom alignment makes the row rigid. *)

val same_point : packing -> packing -> bool
(** Bit-equal (pw, ph, p_hpwl): the point a family is deduplicated on. *)

val candidates : ?cap:int -> t -> seed:packing -> packing array
(** The Pareto family for this motif: element 0 is [seed] verbatim;
    the rest are legal re-packings (row-order permutations, pair side
    swaps, self-column position variants), each built in slot space by
    {!Annealing.Island}'s constructors, with dominated entries —
    on (pw, ph, p_hpwl) — pruned, deterministically ordered. At most
    [cap] (default 512) variants are enumerated before pruning. For a
    non-{!permutable} motif the family is just the seed. *)

val instantiate : slots:int array -> packing -> Annealing.Island.t
(** Relabel a packing against concrete device ids: slot [s] becomes
    member [s], device [slots.(s)]. The island shares the packing's
    arrays and [slots]. *)

val internal_hpwl : t -> float array -> float array -> float
(** Weighted HPWL of the motif's nets over centre coordinates, the
    quantity the Pareto front trades against (pw, ph). *)

val packing_to_json : packing -> Jsonio.t

val packing_of_json : Jsonio.t -> (packing, string) result
(** Field-order tolerant decode; floats round-trip bit-exactly. *)
