(** Plain-text circuit and placement interchange: a small line-oriented
    format so circuits and placements can be saved, diffed and reloaded
    (see the format grammar in the implementation header). *)

exception Parse_error of int * string
(** Raised with (line number, message) on malformed input. *)

val circuit_to_string : Circuit.t -> string

val circuit_hashes : Circuit.t -> string * string
(** [(netlist_hash, constraints_hash)]: hex MD5 digests of
    {!circuit_to_string}'s text without and with only its constraint
    lines (sym/align/order). The [circuit] line, name included, is part
    of the netlist text. *)

val parse_circuit : string -> Circuit.t
(** @raise Parse_error on malformed text.
    @raise Invalid_argument if the assembled circuit fails validation. *)

val placement_to_string : Layout.t -> string

val parse_placement : Circuit.t -> string -> Layout.t
(** Devices not mentioned stay at the origin. @raise Parse_error. *)
