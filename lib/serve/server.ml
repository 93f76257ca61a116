module Eval = Safara_suites.Eval
module Store = Safara_engine.Store
module Pool = Safara_engine.Pool

type config = {
  s_socket : string;
  s_store : string option;
  s_max_store_bytes : int;
  s_jobs : int option;
  s_verbose : bool;
}

let default_socket () =
  Filename.concat (Filename.get_temp_dir_name ()) "saraccc.sock"

let default_store () =
  match Sys.getenv_opt "SAFARA_STORE" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "saraccc-store"

(* Run [f] on one of the engine's worker domains and wait for its
   result here, on the connection's systhread.  Condition.wait releases
   the runtime lock, so worker domains make progress while we block.
   A serial pool runs the task in place, as a job of the calling
   domain, so there is nothing to wait for. *)
let on_pool eng f =
  let pool = Eval.pool eng in
  let result = ref None in
  let run () = try Ok (f ()) with e -> Error e in
  if Pool.size pool <= 1 then
    Pool.submit pool (fun () -> result := Some (run ()))
  else begin
    let m = Mutex.create () in
    let c = Condition.create () in
    Pool.submit pool (fun () ->
        let r = run () in
        Mutex.lock m;
        result := Some r;
        Condition.signal c;
        Mutex.unlock m);
    Mutex.lock m;
    while Option.is_none !result do
      Condition.wait c m
    done;
    Mutex.unlock m
  end;
  match Option.get !result with Ok v -> v | Error e -> raise e

type state = {
  eng : Eval.t;
  stop : bool Atomic.t;
  wake_w : Unix.file_descr;  (* self-pipe: poke to leave the accept wait *)
  verbose : bool;
  live : (Unix.file_descr, unit) Hashtbl.t;  (* connections still open *)
  live_mutex : Mutex.t;
}

let wake st =
  try ignore (Unix.write st.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let label_of = function
  | Protocol.Ping -> "ping"
  | Protocol.Stats -> "stats"
  | Protocol.Shutdown -> "shutdown"
  | Protocol.Compile c -> "compile " ^ c.Protocol.cr_name
  | Protocol.Check c -> "check " ^ c.Protocol.ck_name
  | Protocol.Run _ -> "run"
  | Protocol.Bench b -> "bench " ^ b.Protocol.bn_id

(* Returns [true] when the connection should keep reading requests. *)
let respond st oc req =
  let reply r =
    Protocol.write_frame oc (Sjson.to_string (Protocol.response_to_json r))
  in
  match req with
  | Protocol.Ping ->
      reply (Protocol.Data (Sjson.Obj [ ("pong", Sjson.Bool true) ]));
      true
  | Protocol.Stats ->
      reply (Protocol.Data (Eval.stats_json (Eval.stats st.eng)));
      true
  | Protocol.Shutdown ->
      reply (Protocol.Data (Sjson.Obj [ ("stopping", Sjson.Bool true) ]));
      Atomic.set st.stop true;
      wake st;
      false
  | (Protocol.Compile _ | Protocol.Check _ | Protocol.Run _ | Protocol.Bench _)
    as cmd ->
      let t0 = Safara_engine.Clock.now () in
      let elapsed_ms () = (Safara_engine.Clock.now () -. t0) *. 1e3 in
      let r =
        match on_pool st.eng (fun () -> Commands.exec st.eng cmd) with
        | outcome -> Protocol.Result (outcome, elapsed_ms ())
        | exception Failure msg -> Protocol.Error msg
        | exception e -> Protocol.Error (Printexc.to_string e)
      in
      if st.verbose then
        Printf.eprintf "saraccc serve: %s in %.1f ms\n%!" (label_of cmd)
          (elapsed_ms ());
      reply r;
      true

let handle_connection st fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let reply_error msg =
    Protocol.write_frame oc
      (Sjson.to_string (Protocol.response_to_json (Protocol.Error msg)))
  in
  let rec loop () =
    match Protocol.read_frame ic with
    | raw -> (
        match Sjson.parse raw with
        | exception Sjson.Parse_error e ->
            reply_error ("bad request: " ^ e);
            loop ()
        | j -> (
            match Protocol.request_of_json j with
            | Error e ->
                reply_error e;
                loop ()
            | Ok req -> if respond st oc req then loop ()))
    | exception (End_of_file | Failure _ | Sys_error _) -> ()
  in
  (try loop () with _ -> ());
  Mutex.lock st.live_mutex;
  Hashtbl.remove st.live fd;
  Mutex.unlock st.live_mutex;
  (try flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* A previous daemon may have died without unlinking its socket.  If
   something answers a ping it is alive and we must not steal the
   path; otherwise the socket is stale and safe to remove. *)
let claim_socket path =
  if Sys.file_exists path then begin
    (match Client.try_connect path with
    | Some conn ->
        let alive =
          match Client.request conn Protocol.Ping with
          | Protocol.Data _ -> true
          | _ -> false
          | exception _ -> false
        in
        Client.close conn;
        if alive then
          failwith
            (Printf.sprintf "a daemon is already listening on %s" path)
    | None -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end

let serve ?(on_ready = fun _ -> ()) config =
  claim_socket config.s_socket;
  let store =
    Option.map
      (fun dir -> Store.open_store ~max_bytes:config.s_max_store_bytes dir)
      config.s_store
  in
  let eng = Eval.create ?jobs:config.s_jobs ?store () in
  let lfd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind lfd (ADDR_UNIX config.s_socket);
  Unix.listen lfd 64;
  let wake_r, wake_w = Unix.pipe () in
  let st =
    {
      eng;
      stop = Atomic.make false;
      wake_w;
      verbose = config.s_verbose;
      live = Hashtbl.create 16;
      live_mutex = Mutex.create ();
    }
  in
  let old_term =
    Sys.signal Sys.sigterm
      (Sys.Signal_handle
         (fun _ ->
           Atomic.set st.stop true;
           wake st))
  in
  let old_int =
    Sys.signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           Atomic.set st.stop true;
           wake st))
  in
  (* clients that vanish mid-write must not kill the daemon *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let threads = ref [] in
  on_ready config.s_socket;
  let rec accept_loop () =
    if not (Atomic.get st.stop) then begin
      (match Unix.select [ lfd; wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | ready, _, _ ->
          if List.mem lfd ready && not (Atomic.get st.stop) then begin
            match Unix.accept lfd with
            | fd, _ ->
                Mutex.lock st.live_mutex;
                Hashtbl.replace st.live fd ();
                Mutex.unlock st.live_mutex;
                threads :=
                  Thread.create (handle_connection st) fd :: !threads
            | exception Unix.Unix_error _ -> ()
          end);
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (* force idle connections out of their blocking reads *)
  Mutex.lock st.live_mutex;
  let open_fds = Hashtbl.fold (fun fd () acc -> fd :: acc) st.live [] in
  Mutex.unlock st.live_mutex;
  List.iter
    (fun fd ->
      try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    open_fds;
  List.iter Thread.join !threads;
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  (try Unix.unlink config.s_socket with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigpipe old_pipe;
  if config.s_verbose then prerr_string (Eval.render_stats eng);
  Eval.shutdown eng
