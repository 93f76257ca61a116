let max_frame_bytes = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let write_frame oc payload =
  let len = String.length payload in
  output_string oc
    (String.init 9 (fun i ->
         if i = 8 then '\n'
         else "0123456789abcdef".[(len lsr (28 - (4 * i))) land 15]));
  output_string oc payload;
  flush oc

(* exactly what [write_frame] emits: 8 lowercase hex digits and '\n' *)
let read_frame ic =
  let header = really_input_string ic 9 in
  if header.[8] <> '\n' then failwith "protocol: bad frame header";
  let len = ref 0 in
  for i = 0 to 7 do
    let d =
      match header.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | _ -> failwith "protocol: bad frame length"
    in
    len := (!len lsl 4) + d
  done;
  if !len > max_frame_bytes then failwith "protocol: oversized frame";
  really_input_string ic !len

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type compile_req = {
  cr_name : string;
  cr_src : string;
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
  ck_src : string option;
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
  rn_arch : string;
  rn_defines : (string * string) list;
  rn_engine : string option;
}

type bench_req = {
  bn_id : string;
  bn_arch : string;
  bn_engine : string option;
  bn_stats : bool;
}

type request =
  | Ping
  | Stats
  | Shutdown
  | Compile of compile_req
  | Check of check_req
  | Run of run_req
  | Bench of bench_req

type outcome = { out : string; err : string; code : int }

type response =
  | Result of outcome * float
  | Data of Sjson.t
  | Error of string

open Sjson

let strs xs = Arr (List.map str xs)
let opt_str = function Some s -> Str s | None -> Null
let opt_int = function Some i -> int i | None -> Null

let request_to_json = function
  | Ping -> Obj [ ("cmd", Str "ping") ]
  | Stats -> Obj [ ("cmd", Str "stats") ]
  | Shutdown -> Obj [ ("cmd", Str "shutdown") ]
  | Compile c ->
      Obj
        [ ("cmd", Str "compile");
          ("name", Str c.cr_name);
          ("src", Str c.cr_src);
          ("arch", Str c.cr_arch);
          ("profile", Str c.cr_profile);
          ("quiet", Bool c.cr_quiet);
          ("maxrreg", opt_int c.cr_maxrreg);
          ("pressure", Bool c.cr_pressure);
          ("time_passes", Bool c.cr_time_passes);
          ("json", Bool c.cr_json);
          ("dumps", strs c.cr_dumps);
          ("annotate_live", Bool c.cr_annotate_live);
          ("disable", strs c.cr_disable) ]
  | Check c ->
      Obj
        [ ("cmd", Str "check");
          ("name", Str c.ck_name);
          ("src", opt_str c.ck_src);
          ("workloads", Bool c.ck_workloads);
          ("json", Bool c.ck_json);
          ("werror", Bool c.ck_werror);
          ("codes", strs c.ck_codes);
          ("pressure", Bool c.ck_pressure);
          ("arch", Str c.ck_arch);
          ("profile", Str c.ck_profile) ]
  | Run r ->
      Obj
        [ ("cmd", Str "run");
          ("src", Str r.rn_src);
          ("profile", Str r.rn_profile);
          ("arch", Str r.rn_arch);
          ("defines",
           Arr (List.map (fun (k, v) -> Arr [ Str k; Str v ]) r.rn_defines));
          ("engine", opt_str r.rn_engine) ]
  | Bench b ->
      Obj
        [ ("cmd", Str "bench");
          ("id", Str b.bn_id);
          ("arch", Str b.bn_arch);
          ("engine", opt_str b.bn_engine);
          ("stats", Bool b.bn_stats) ]

let get_strs j = List.map (fun v -> to_str v) (to_list j)

let get_opt_str j = match j with Str s -> Some s | _ -> None
let get_opt_int j = match j with Num f -> Some (int_of_float f) | _ -> None

let request_of_json j =
  match to_str (member "cmd" j) with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "compile" ->
      Ok
        (Compile
           {
             cr_name = to_str (member "name" j);
             cr_src = to_str (member "src" j);
             cr_arch = to_str ~default:"kepler" (member "arch" j);
             cr_profile = to_str ~default:"full" (member "profile" j);
             cr_quiet = to_bool (member "quiet" j);
             cr_maxrreg = get_opt_int (member "maxrreg" j);
             cr_pressure = to_bool (member "pressure" j);
             cr_time_passes = to_bool (member "time_passes" j);
             cr_json = to_bool (member "json" j);
             cr_dumps = get_strs (member "dumps" j);
             cr_annotate_live = to_bool (member "annotate_live" j);
             cr_disable = get_strs (member "disable" j);
           })
  | "check" ->
      Ok
        (Check
           {
             ck_name = to_str (member "name" j);
             ck_src = get_opt_str (member "src" j);
             ck_workloads = to_bool (member "workloads" j);
             ck_json = to_bool (member "json" j);
             ck_werror = to_bool (member "werror" j);
             ck_codes = get_strs (member "codes" j);
             ck_pressure = to_bool (member "pressure" j);
             ck_arch = to_str ~default:"kepler" (member "arch" j);
             ck_profile = to_str ~default:"full" (member "profile" j);
           })
  | "run" ->
      Ok
        (Run
           {
             rn_src = to_str (member "src" j);
             rn_profile = to_str ~default:"full" (member "profile" j);
             rn_arch = to_str ~default:"kepler" (member "arch" j);
             rn_defines =
               List.map
                 (fun p ->
                   match to_list p with
                   | [ k; v ] -> (to_str k, to_str v)
                   | _ -> ("", ""))
                 (to_list (member "defines" j));
             rn_engine = get_opt_str (member "engine" j);
           })
  | "bench" ->
      Ok
        (Bench
           {
             bn_id = to_str (member "id" j);
             bn_arch = to_str ~default:"kepler" (member "arch" j);
             bn_engine = get_opt_str (member "engine" j);
             bn_stats = to_bool (member "stats" j);
           })
  | "" -> Stdlib.Error "request has no cmd"
  | other -> Stdlib.Error ("unknown cmd " ^ other)

let response_to_json = function
  | Result (r, ms) ->
      Obj
        [ ("ok", Bool true);
          ("out", Str r.out);
          ("err", Str r.err);
          ("code", int r.code);
          ("served_ms", num ms) ]
  | Data d -> Obj [ ("ok", Bool true); ("data", d) ]
  | Error e -> Obj [ ("ok", Bool false); ("error", Str e) ]

let response_of_json j =
  if to_bool (member "ok" j) then
    match member "data" j with
    | Null ->
        Result
          ( {
              out = to_str (member "out" j);
              err = to_str (member "err" j);
              code = to_int (member "code" j);
            },
            to_float (member "served_ms" j) )
    | d -> Data d
  else Error (to_str ~default:"malformed response" (member "error" j))
