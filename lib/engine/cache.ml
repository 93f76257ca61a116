type 'v slot = Pending | Done of 'v

type 'v t = {
  cname : string;
  mutex : Mutex.t;
  changed : Condition.t;
  tbl : (string, 'v slot) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(name = "cache") () =
  {
    cname = name;
    mutex = Mutex.create ();
    changed = Condition.create ();
    tbl = Hashtbl.create 64;
    hits = 0;
    misses = 0;
  }

let name t = t.cname

type 'v claim = Hit of 'v | Owned | Busy

let claim ?(wait = true) t ~key =
  Mutex.lock t.mutex;
  let rec get () =
    match Hashtbl.find_opt t.tbl key with
    | Some (Done v) ->
        t.hits <- t.hits + 1;
        Hit v
    | Some Pending when wait ->
        Condition.wait t.changed t.mutex;
        get ()
    | Some Pending -> Busy
    | None ->
        t.misses <- t.misses + 1;
        Hashtbl.replace t.tbl key Pending;
        Owned
  in
  let c = get () in
  Mutex.unlock t.mutex;
  c

let settle t ~key slot =
  Mutex.lock t.mutex;
  (match slot with
  | Some v -> Hashtbl.replace t.tbl key (Done v)
  | None -> Hashtbl.remove t.tbl key);
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex

let fill t ~key v = settle t ~key (Some v)
let release t ~key = settle t ~key None

let find_or_compute t ~key f =
  match claim t ~key with
  | Hit v -> v
  | Busy -> assert false (* [claim ~wait:true] never reports it *)
  | Owned -> (
      match f () with
      | v ->
          fill t ~key v;
          v
      | exception e ->
          release t ~key;
          raise e)

(* the mutex must be released even when [f] raises, or the first
   exception would wedge every later cache operation *)
let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)

let length t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ slot n -> match slot with Done _ -> n + 1 | Pending -> n)
        t.tbl 0)
