(** Analog geometric constraints: symmetry groups, alignment pairs and
    device-ordering chains (the paper's Sec. IV-B constraint families). *)

type axis = Vertical | Horizontal

type sym_group = {
  sym_axis : axis;  (** axis the group is symmetric about *)
  pairs : (int * int) list;  (** device pairs mirrored about the axis *)
  selfs : int list;  (** self-symmetric devices centred on the axis *)
}

type align_kind =
  | Bottom  (** equal bottom edges (paper Eq. 4g) *)
  | Top
  | Vcenter  (** equal x centres (paper Eq. 4h) *)
  | Hcenter  (** equal y centres *)

type align_pair = { align_kind : align_kind; a : int; b : int }

type order_dir = Left_to_right | Bottom_to_top

type order_chain = { order_dir : order_dir; chain : int list }
(** Monotone signal-path ordering (paper Eq. 4i). *)

type t = {
  sym_groups : sym_group list;
  aligns : align_pair list;
  orders : order_chain list;
}

val empty : t
val sym_group : ?selfs:int list -> ?axis:axis -> (int * int) list -> sym_group

val make :
  ?sym_groups:sym_group list -> ?aligns:align_pair list ->
  ?orders:order_chain list -> unit -> t

val sym_devices : sym_group -> int list

val matched_pairs : t -> (int * int) list
(** Symmetric device pairs, normalised to [a < b], deduplicated; these
    are the matched pairs whose mismatch the performance models track. *)

val validate : t -> n_devices:int -> (unit, string) result
(** Check ids are in range, pairs are non-degenerate, chains have length
    >= 2, and no device belongs to two symmetry groups. *)
