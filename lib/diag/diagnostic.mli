(** The one diagnostic currency of the whole compiler.

    Every layer — lexer, parser, type checker, IR validation, clause
    checking, the dependence-based race detector, the VIR verifier and
    the lint passes — reports through this type, so the driver can
    sort, filter, render (human caret form or machine JSON) and decide
    the exit status in one place.

    Codes are stable (documented in docs/DIAGNOSTICS.md):

    - [SAF001] lexical error
    - [SAF002] syntax error
    - [SAF003] type error
    - [SAF004] structural validation error (IR well-formedness)
    - [SAF005] dim/small clause contract violation
    - [SAF010] data race: loop-carried array dependence in a parallel loop
    - [SAF011] data race: scalar recurrence in a parallel loop
    - [SAF020] VIR verifier fault (compiler miscompile guard)
    - [SAF021] simulator decode fault (branch to an unknown label)
    - [SAF030] uncoalesced global access (note)
    - [SAF031] register pressure above the architecture budget
    - [SAF032] dim/small clause declared but never exploited
    - [SAF033] dead scalar (written but never read)
    - [SAF034] kernel not provably block-parallel: the simulator runs
      its thread-blocks sequentially (note)
    - [SAF035] dead store: overwritten through the same address before
      any read of the array
    - [SAF036] static register-pressure report ([--pressure]; note,
      escalated to error when the spill-free allocation is below the
      liveness solver's peak demand) *)

type severity = Error | Warning | Note

type span = { file : string; line : int; col : int }
(** 1-based position; [file] may be [""] when the source has no name. *)

type t = {
  code : string;  (** stable "SAF0xx" identifier *)
  severity : severity;
  span : span option;
  where : string;  (** context: "program", "region dot", "kernel k1" … *)
  message : string;
  hint : string option;  (** a fix-it suggestion, when one exists *)
}

val make :
  ?span:span -> ?hint:string -> code:string -> where:string ->
  severity -> string -> t

val errorf :
  ?span:span -> ?hint:string -> code:string -> where:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val warningf :
  ?span:span -> ?hint:string -> code:string -> where:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val notef :
  ?span:span -> ?hint:string -> code:string -> where:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val severity_to_string : severity -> string

val compare : t -> t -> int
(** Deterministic order: by span (line, col, file), then [where], then
    [code], then [message]. Diagnostics without a span sort after
    positioned ones of the same [where]. *)

val sort : t list -> t list

val has_errors : t list -> bool

val count : severity -> t list -> int

val promote_warnings : t list -> t list
(** [--werror]: every [Warning] becomes an [Error]; [Note]s are kept. *)

val filter_codes : string list -> t list -> t list
(** Keep errors plus the warnings/notes whose code is listed. An empty
    list keeps everything (no restriction). *)

val pp : Format.formatter -> t -> unit
(** One-line GCC-style rendering:
    [file:line:col: error[SAF010]: message \[where\]]. *)

val render : ?src:string -> t -> string
(** [pp] plus, when [src] is given and the diagnostic has a span, the
    offending source line with a caret, and the hint on its own line. *)

val render_all : ?src:string -> t list -> string
(** All diagnostics, sorted, caret-rendered, followed by a summary
    line ("2 errors, 1 warning"). Empty string for []. *)

val list_to_json : t list -> Safara_json.Sjson.t
(** A JSON array of objects with fields [code], [severity], [file],
    [line], [col], [where], [message], [hint] — for CI consumption.
    [file]/[line]/[col] are present only with a span, [hint] only
    when set. *)
