type severity = Error | Warning | Note

type span = { file : string; line : int; col : int }

type t = {
  code : string;
  severity : severity;
  span : span option;
  where : string;
  message : string;
  hint : string option;
}

let make ?span ?hint ~code ~where severity message =
  { code; severity; span; where; message; hint }

let kfmt k fmt = Format.kasprintf k fmt

let errorf ?span ?hint ~code ~where fmt =
  kfmt (make ?span ?hint ~code ~where Error) fmt

let warningf ?span ?hint ~code ~where fmt =
  kfmt (make ?span ?hint ~code ~where Warning) fmt

let notef ?span ?hint ~code ~where fmt =
  kfmt (make ?span ?hint ~code ~where Note) fmt

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let compare a b =
  let span_key = function
    | Some s -> (0, s.line, s.col, s.file)
    | None -> (1, 0, 0, "")
  in
  let c = Stdlib.compare (span_key a.span) (span_key b.span) in
  if c <> 0 then c
  else
    let c = String.compare a.where b.where in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c else String.compare a.message b.message

let sort ts = List.stable_sort compare ts

let has_errors ts = List.exists (fun d -> d.severity = Error) ts

let count sev ts = List.length (List.filter (fun d -> d.severity = sev) ts)

let promote_warnings ts =
  List.map
    (fun d -> if d.severity = Warning then { d with severity = Error } else d)
    ts

let filter_codes codes ts =
  if codes = [] then ts
  else
    List.filter
      (fun d -> d.severity = Error || List.mem d.code codes)
      ts

let pp ppf d =
  (match d.span with
  | Some s when s.file <> "" ->
      Format.fprintf ppf "%s:%d:%d: " s.file s.line s.col
  | Some s -> Format.fprintf ppf "%d:%d: " s.line s.col
  | None -> ());
  Format.fprintf ppf "%s[%s]: %s"
    (severity_to_string d.severity)
    d.code d.message;
  if d.where <> "" then Format.fprintf ppf " [%s]" d.where

let source_line src n =
  (* nth 1-based line of [src], without the newline *)
  let rec go start k =
    let stop =
      match String.index_from_opt src start '\n' with
      | Some i -> i
      | None -> String.length src
    in
    if k = n then Some (String.sub src start (stop - start))
    else if stop >= String.length src then None
    else go (stop + 1) (k + 1)
  in
  if n < 1 then None else go 0 1

let render ?src d =
  let b = Buffer.create 128 in
  Buffer.add_string b (Format.asprintf "%a" pp d);
  (match (src, d.span) with
  | Some src, Some s -> (
      match source_line src s.line with
      | Some line ->
          Buffer.add_char b '\n';
          Buffer.add_string b ("  | " ^ line ^ "\n");
          Buffer.add_string b "  | ";
          String.iteri
            (fun i c ->
              if i < s.col - 1 then
                Buffer.add_char b (if c = '\t' then '\t' else ' '))
            line;
          Buffer.add_char b '^'
      | None -> ())
  | _ -> ());
  (match d.hint with
  | Some h -> Buffer.add_string b ("\n  hint: " ^ h)
  | None -> ());
  Buffer.contents b

let render_all ?src ts =
  match ts with
  | [] -> ""
  | ts ->
      let ts = sort ts in
      let b = Buffer.create 512 in
      List.iter
        (fun d ->
          Buffer.add_string b (render ?src d);
          Buffer.add_char b '\n')
        ts;
      let plural n what =
        Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")
      in
      let parts =
        List.filter_map
          (fun (sev, what) ->
            let n = count sev ts in
            if n = 0 then None else Some (plural n what))
          [ (Error, "error"); (Warning, "warning"); (Note, "note") ]
      in
      Buffer.add_string b (String.concat ", " parts);
      Buffer.add_char b '\n';
      Buffer.contents b

(* --- JSON ----------------------------------------------------------- *)

let to_json d =
  let open Safara_json.Sjson in
  Obj
    ([ ("code", Str d.code); ("severity", Str (severity_to_string d.severity)) ]
    @ (match d.span with
      | Some s ->
          [ ("file", Str s.file); ("line", int s.line); ("col", int s.col) ]
      | None -> [])
    @ [ ("where", Str d.where); ("message", Str d.message) ]
    @ match d.hint with Some h -> [ ("hint", Str h) ] | None -> [])

let list_to_json ts = Safara_json.Sjson.Arr (List.map to_json (sort ts))
