(** The ten benchmark circuits of the paper's evaluation, as synthetic
    structural equivalents of the proprietary GF12nm testcases (see
    DESIGN.md's substitution table): three OTAs, two comparators, two
    VCOs, an analog adder, a VGA and a switched-capacitor filter. Each
    generator is deterministic. *)

val adder : unit -> Netlist.Circuit.t
val cc_ota : unit -> Netlist.Circuit.t
val comp1 : unit -> Netlist.Circuit.t
val comp2 : unit -> Netlist.Circuit.t
val cm_ota1 : unit -> Netlist.Circuit.t
val cm_ota2 : unit -> Netlist.Circuit.t
val scf : unit -> Netlist.Circuit.t
val vga : unit -> Netlist.Circuit.t
val vco1 : unit -> Netlist.Circuit.t
val vco2 : unit -> Netlist.Circuit.t

val all_names : string list
(** The paper's naming: Adder, CC-OTA, Comp1, Comp2, CM-OTA1, CM-OTA2,
    SCF, VGA, VCO1, VCO2. *)

val get : string -> Netlist.Circuit.t option
(** [None] for unknown names; see {!all_names} for the registry.
    Additionally recognises ["Scaled-<n>"] for any positive [n] and
    builds {!scaled}[ ~devices:n]. *)

val scaled_size : string -> int option
(** [Some n] when the name is ["Scaled-<n>"] with [n > 0]: the size
    {!get} would build, read without building anything. *)

val max_scaled_devices : int
(** The largest ["Scaled-<n>"] the placement service builds on request
    (1,000; the repo's own studies stop at 240). Building is linear in
    [n] and runs before any other check, so a larger name is refused
    up front. {!get} itself takes any positive [n]. *)

val get_exn : string -> Netlist.Circuit.t
(** @raise Invalid_argument for unknown names. *)

val all : unit -> Netlist.Circuit.t list

val scaled : devices:int -> Netlist.Circuit.t
(** Parametric hierarchical testcase for the template study: a chain
    of identical ~12-device OTA cells whose five motifs (grouped input
    pair + tail, cascode quad, mirrored load, output buffer, reset
    switch) repeat across cells — and whose load reuses CC-OTA's "ml"
    block verbatim, so template families transfer across netlists.
    [devices] is rounded up to a whole number of cells. Reachable by
    name as ["Scaled-<n>"] through {!get}; not part of the paper's
    testcase set. *)
