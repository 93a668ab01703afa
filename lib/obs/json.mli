(** A dependency-free subset of JSON, shared by the telemetry sinks.

    The writer emits exactly the constructs the reader parses — objects,
    arrays, strings with simple backslash escapes, numbers, booleans,
    null — which is all the manifest, the trace and the service
    summaries need. Round-tripping through {!to_string} and {!parse} is the
    contract the observability tests pin. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string
(** Raised by {!parse} with a byte offset, and by the [want_*]
    accessors with the offending field name. *)

val parse : string -> t
(** Parse one complete JSON value; trailing garbage is an error.

    @raise Malformed on any syntax error. *)

val to_buffer : Buffer.t -> t -> unit
(** Compact rendering (no insignificant whitespace), suitable for JSON
    Lines: the output never contains a newline. *)

val to_string : t -> string

val int : int -> t
(** [Num] of an integer, rendered without a decimal point. *)

val field : t -> string -> t
(** Member access.

    @raise Malformed if the value is not an object or lacks the key. *)

val field_opt : t -> string -> t option
(** [None] when the key is absent; still raises on non-objects. *)

val want_num : t -> string -> float

val want_str : t -> string -> string

val want_bool : t -> string -> bool
(** Typed member access; @raise Malformed on a missing field or a type
    mismatch. *)
