(** Parser for flat one-line JSON objects.

    Handles exactly the shape this project's own file formats use — a
    single object of string, number, bool and flat int-array fields, no
    nesting — which is all the protocol-plan format ({!Dsm_tmk.Proto_plan})
    and the trace JSONL format ({!Dsm_trace.Event}) need. All accessors
    raise {!Parse_error} on missing fields or type mismatches, carrying a
    message precise enough to show the user. Integer fields and int-array
    elements must be integral numbers of magnitude at most 2{^53}: a
    fraction or a larger number is a {!Parse_error} naming the field,
    never a silent truncation. *)

exception Parse_error of string

type value = Num of float | Bool of bool | Str of string | Ints of int list

type t = (string * value) list
(** Parsed object: fields in source order. *)

val parse_exn : string -> t
(** Parse one line holding one object.
    @raise Parse_error on malformed input, trailing garbage or a
    non-integer element of an int array. *)

val get : t -> string -> value
(** @raise Parse_error when the field is missing. *)

val num : t -> string -> float
val int : t -> string -> int
(** @raise Parse_error when the number is not an integer in range. *)

val bool : t -> string -> bool
val str : t -> string -> string
val ints : t -> string -> int list

val mem : t -> string -> bool
(** Field presence, for optional fields. *)
