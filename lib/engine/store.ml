let format_version = 1

let default_max_bytes = 256 * 1024 * 1024

let magic = "SAFSTORE"

type stats = {
  st_disk_hits : int;
  st_disk_misses : int;
  st_bytes_read : int;
  st_bytes_written : int;
  st_evictions : int;
  st_corrupt : int;
  st_entries : int;
  st_total_bytes : int;
}

type t = {
  root : string;
  smax : int;
  lock : Mutex.t;
  mutable total : int;  (* payload bytes on disk, approximate *)
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable read : int;
  mutable written : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable tmp_seq : int;
}

let objects_dir t = Filename.concat t.root "objects"

(* keys are arbitrary strings (typically already hex digests, but the
   store must not assume that); the file name is always the MD5 of the
   key, with the original key kept in the header as a collision check *)
let file_of_key key = Digest.to_hex (Digest.string key) ^ ".sav"

let entry_path t ~key =
  let f = file_of_key key in
  Filename.concat (Filename.concat (objects_dir t) (String.sub f 0 2)) f

let ensure_dir d =
  try Unix.mkdir d 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (e, _, _) ->
      failwith
        (Printf.sprintf "store: cannot create %s: %s" d (Unix.error_message e))

let is_dir d = try Sys.is_directory d with Sys_error _ -> false

(* ------------------------------------------------------------------ *)
(* Entry encoding                                                      *)
(* ------------------------------------------------------------------ *)
(* Header of three '\n'-terminated lines — "MAGIC version", the full
   original key, "payload-md5 payload-length" — then the raw payload.
   Everything after the header is covered by the checksum. *)

let encode ~key payload =
  let b = Buffer.create (String.length payload + 128) in
  Buffer.add_string b (Printf.sprintf "%s %d\n" magic format_version);
  Buffer.add_string b key;
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Printf.sprintf "%s %d\n"
       (Digest.to_hex (Digest.string payload))
       (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

exception Invalid of string

let decode ~key raw =
  let nl from =
    match String.index_from_opt raw from '\n' with
    | Some i -> i
    | None -> raise (Invalid "truncated header")
  in
  let l1 = nl 0 in
  let l2 = nl (l1 + 1) in
  let l3 = nl (l2 + 1) in
  let line lo hi = String.sub raw lo (hi - lo) in
  (match String.split_on_char ' ' (line 0 l1) with
  | [ m; v ] when m = magic ->
      if v <> string_of_int format_version then
        raise (Invalid ("format version " ^ v))
  | _ -> raise (Invalid "bad magic"));
  if line (l1 + 1) l2 <> key then raise (Invalid "key mismatch");
  let digest, len =
    match String.split_on_char ' ' (line (l2 + 1) l3) with
    | [ d; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> (d, n)
        | _ -> raise (Invalid "bad length"))
    | _ -> raise (Invalid "bad checksum line")
  in
  if String.length raw - (l3 + 1) <> len then
    raise (Invalid "truncated payload");
  let payload = String.sub raw (l3 + 1) len in
  if Digest.to_hex (Digest.string payload) <> digest then
    raise (Invalid "checksum mismatch");
  payload

(* ------------------------------------------------------------------ *)
(* Open / scan                                                         *)
(* ------------------------------------------------------------------ *)

let iter_entries t f =
  let od = objects_dir t in
  Array.iter
    (fun sub ->
      let d = Filename.concat od sub in
      if is_dir d then
        Array.iter
          (fun name ->
            if Filename.check_suffix name ".sav" then
              let path = Filename.concat d name in
              match Unix.stat path with
              | st -> f path st
              | exception Unix.Unix_error _ -> ())
          (try Sys.readdir d with Sys_error _ -> [||]))
    (try Sys.readdir od with Sys_error _ -> [||])

let open_store ?(max_bytes = default_max_bytes) root =
  if Sys.file_exists root && not (is_dir root) then
    failwith (Printf.sprintf "store: %s exists and is not a directory" root);
  ensure_dir root;
  let t =
    {
      root;
      smax = max 1 max_bytes;
      lock = Mutex.create ();
      total = 0;
      entries = 0;
      hits = 0;
      misses = 0;
      read = 0;
      written = 0;
      evictions = 0;
      corrupt = 0;
      tmp_seq = 0;
    }
  in
  ensure_dir (objects_dir t);
  ensure_dir (Filename.concat root "tmp");
  iter_entries t (fun _ st ->
      t.total <- t.total + st.Unix.st_size;
      t.entries <- t.entries + 1);
  t

let dir t = t.root
let max_bytes t = t.smax

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* GC                                                                  *)
(* ------------------------------------------------------------------ *)
(* LRU-ish: entries sorted by mtime (hits refresh it via utimes),
   oldest deleted first until the total is back under 3/4 of the
   bound. Racing deleters (another process GCing the same store) are
   fine: a vanished file just counts as already collected. *)

let gc_locked ?(keep = "") t =
  if t.total > t.smax then begin
    let entries = ref [] in
    t.total <- 0;
    t.entries <- 0;
    iter_entries t (fun path st ->
        t.total <- t.total + st.Unix.st_size;
        t.entries <- t.entries + 1;
        entries := (st.Unix.st_mtime, st.Unix.st_size, path) :: !entries);
    let target = t.smax * 3 / 4 in
    List.iter
      (fun (_, size, path) ->
        if t.total > target && Filename.basename path <> keep then begin
          (try Sys.remove path with Sys_error _ -> ());
          t.total <- t.total - size;
          t.entries <- t.entries - 1;
          t.evictions <- t.evictions + 1
        end)
      (List.sort compare !entries)
  end

let gc t = locked t (fun () -> gc_locked t)

(* ------------------------------------------------------------------ *)
(* Read / write                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* delete an entry file and take it out of the totals; a file already
   gone (another process dropped it first) changes nothing *)
let drop t path =
  match Unix.stat path with
  | exception Unix.Unix_error _ -> ()
  | st -> (
      match Sys.remove path with
      | () ->
          locked t (fun () ->
              t.total <- t.total - st.Unix.st_size;
              t.entries <- t.entries - 1)
      | exception Sys_error _ -> ())

let remove t ~key = drop t (entry_path t ~key)

let find t ~key =
  let path = entry_path t ~key in
  match read_file path with
  | exception Sys_error _ ->
      locked t (fun () -> t.misses <- t.misses + 1);
      None
  | raw -> (
      match decode ~key raw with
      | payload ->
          (* refresh the LRU clock; ignore failures (read-only store) *)
          (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
          locked t (fun () ->
              t.hits <- t.hits + 1;
              t.read <- t.read + String.length payload);
          Some payload
      | exception Invalid reason ->
          Printf.eprintf "saraccc store: dropping corrupt entry %s (%s)\n%!"
            (Filename.basename path) reason;
          drop t path;
          locked t (fun () ->
              t.misses <- t.misses + 1;
              t.corrupt <- t.corrupt + 1);
          None)

let add t ~key payload =
  let path = entry_path t ~key in
  if not (Sys.file_exists path) then begin
    let raw = encode ~key payload in
    let tmp =
      locked t (fun () ->
          t.tmp_seq <- t.tmp_seq + 1;
          Filename.concat
            (Filename.concat t.root "tmp")
            (Printf.sprintf "%d.%d.tmp" (Unix.getpid ()) t.tmp_seq))
    in
    match
      ensure_dir (Filename.dirname path);
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc raw);
      (* atomic publish: readers see the whole entry or nothing *)
      Unix.rename tmp path
    with
    | () ->
        locked t (fun () ->
            t.written <- t.written + String.length payload;
            t.total <- t.total + String.length raw;
            t.entries <- t.entries + 1;
            gc_locked ~keep:(Filename.basename path) t)
    | exception (Sys_error _ | Unix.Unix_error _ | Failure _) ->
        (try Sys.remove tmp with Sys_error _ -> ());
        Printf.eprintf "saraccc store: failed to persist %s\n%!"
          (Filename.basename path)
  end

let stats t =
  locked t (fun () ->
      {
        st_disk_hits = t.hits;
        st_disk_misses = t.misses;
        st_bytes_read = t.read;
        st_bytes_written = t.written;
        st_evictions = t.evictions;
        st_corrupt = t.corrupt;
        st_entries = t.entries;
        st_total_bytes = t.total;
      })
