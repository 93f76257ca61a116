(** A minimal JSON value type with a strict parser and printer.

    The one JSON codec of the tree: the compile-service protocol, the
    engine and tune encoders, diagnostics, pass traces and the bench
    harness all build [t] values and print them with {!to_string}.
    The library has no dependencies so every layer can use it.
    Numbers are [float]s — every quantity the tree emits (lengths,
    counters, milliseconds) fits exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Accepts RFC 8259 JSON only: numbers follow the JSON grammar (no
    leading [+], leading zeros, bare [.5] or [1.]) and must be finite,
    strings hold no raw control characters, and [\u] takes exactly
    four hex digits.
    @raise Parse_error on malformed input or trailing garbage. *)

val to_string : t -> string
(** Compact (no whitespace), fully escaped; [parse] ∘ [to_string] is
    the identity up to float formatting. *)

(** {1 Builders} *)

val num : float -> t
val int : int -> t
val str : string -> t

(** {1 Accessors} — all total; missing members read as [Null]. *)

val member : string -> t -> t
val to_str : ?default:string -> t -> string
val to_int : ?default:int -> t -> int
val to_float : ?default:float -> t -> float
val to_bool : ?default:bool -> t -> bool
val to_list : t -> t list
(** [Null] and non-arrays read as []. *)
