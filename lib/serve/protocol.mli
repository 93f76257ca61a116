(** The compile-service wire protocol.

    Transport: a bidirectional byte stream (a Unix domain socket)
    carrying length-prefixed JSON messages in both directions. Each
    frame is [%08x\n] — eight lowercase hex digits of payload length
    and a newline — followed by exactly that many payload bytes (the
    JSON text). One request frame yields exactly one response frame;
    a connection carries any number of request/response pairs in
    sequence and is closed by the client (EOF) or by daemon shutdown.

    Requests are objects with a ["cmd"] discriminator. [compile],
    [check], [run] and [bench] carry the full inputs of the
    corresponding [saraccc] subcommand — including the program
    {e source text}, so the daemon never touches client paths and the
    artifact store keys stay content-addressed. [ping], [stats] and
    [shutdown] are control requests.

    Responses: [{"ok":true, "out":…, "err":…, "code":…,
    "served_ms":…}] for command requests ([out]/[err] are the exact
    bytes the subcommand would have written to stdout/stderr in
    process, [code] its exit code), [{"ok":true, "data":…}] for
    control requests, and [{"ok":false, "error":…}] for anything that
    failed. *)

val max_frame_bytes : int
(** 64 MiB; oversized frames fail the connection rather than the
    daemon. *)

val write_frame : out_channel -> string -> unit

val read_frame : in_channel -> string
(** Reads one frame; the header must be exactly 8 lowercase hex
    digits and a newline, as {!write_frame} writes it.
    @raise End_of_file on a cleanly closed peer or a truncated frame.
    @raise Failure on a malformed or oversized header. *)

(** {1 Command payloads} — mirrors of the [saraccc] CLI inputs. *)

type compile_req = {
  cr_name : string;  (** display name, e.g. the client's basename *)
  cr_src : string;  (** MiniACC source text *)
  cr_arch : string;
  cr_profile : string;
  cr_quiet : bool;
  cr_maxrreg : int option;
  cr_pressure : bool;
  cr_time_passes : bool;
  cr_json : bool;
  cr_dumps : string list;
  cr_annotate_live : bool;
  cr_disable : string list;
}

type check_req = {
  ck_name : string;
  ck_src : string option;  (** [None]: only [--workloads] *)
  ck_workloads : bool;
  ck_json : bool;
  ck_werror : bool;
  ck_codes : string list;
  ck_pressure : bool;
  ck_arch : string;
  ck_profile : string;
}

type run_req = {
  rn_src : string;
  rn_profile : string;
  rn_arch : string;  (** registry key; defaults to ["kepler"] on the wire *)
  rn_defines : (string * string) list;
  rn_engine : string option;
}

type bench_req = {
  bn_id : string;
  bn_arch : string;  (** registry key; defaults to ["kepler"] on the wire *)
  bn_engine : string option;
  bn_stats : bool;  (** include engine stats in [err] *)
}

type request =
  | Ping
  | Stats
  | Shutdown
  | Compile of compile_req
  | Check of check_req
  | Run of run_req
  | Bench of bench_req

(** What a subcommand produced: exact stdout/stderr bytes + exit
    code. The byte-identity contract of the service is that [out] for
    a daemon-served request equals the in-process subcommand's
    stdout. *)
type outcome = { out : string; err : string; code : int }

type response =
  | Result of outcome * float  (** outcome, daemon-side served ms *)
  | Data of Sjson.t  (** control-request payload *)
  | Error of string

val request_to_json : request -> Sjson.t
val request_of_json : Sjson.t -> (request, string) result
val response_to_json : response -> Sjson.t
val response_of_json : Sjson.t -> response
