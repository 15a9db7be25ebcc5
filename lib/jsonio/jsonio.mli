(** Minimal JSON values for the service wire protocol and the job-spec
    serialization: a parser, a printer, and object accessors. The repo
    carries no third-party JSON dependency; this module is the one
    implementation, the telemetry JSONL sink's included.

    Numbers are represented as [float] (like JavaScript); integers
    round-trip exactly up to 2^53. The printer emits object fields in
    the order given — use {!sorted} first for a canonical encoding. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed). Rejects
    trailing garbage, unterminated strings, and malformed escapes; the
    error message carries a character offset. *)

val to_string : t -> string
(** Compact one-line encoding (no added whitespace, ['\n'] escaped), so
    a printed value is always a valid line of a line-delimited
    protocol. *)

val sorted : t -> t
(** Recursively sort object fields by name: the canonical form used for
    content hashing. Arrays keep their order. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_float : t -> float option
val to_int : t -> int option
(** [Num] with an integral value only. *)

val to_str : t -> string option
val to_bool : t -> bool option
