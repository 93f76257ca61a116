type kind = Kernels | Parallel

type dim_group = { stated_dims : Dim.t list option; group_arrays : string list }

type t = {
  rname : string;
  kind : kind;
  body : Stmt.t list;
  dim_groups : dim_group list;
  small : string list;
}

let make ?(kind = Kernels) ?(dim_groups = []) ?(small = []) rname body =
  { rname; kind; body; dim_groups; small }

let dim_group_of t name =
  let rec find i = function
    | [] -> None
    | g :: rest -> if List.mem name g.group_arrays then Some i else find (i + 1) rest
  in
  find 0 t.dim_groups

let is_small t name = List.mem name t.small

let dedup names =
  let seen = Hashtbl.create 16 in
  List.rev
    (List.fold_left
       (fun acc n ->
         if Hashtbl.mem seen n then acc
         else begin
           Hashtbl.add seen n ();
           n :: acc
         end)
       [] names)

let referenced_arrays t =
  let reads = Stmt.loads t.body |> List.map fst in
  let writes = Stmt.stores t.body |> List.map fst in
  dedup (reads @ writes)

let read_only_arrays t =
  let written = Stmt.stored_arrays t.body in
  List.filter (fun a -> not (List.mem a written)) (referenced_arrays t)

let weight t =
  let n = ref 0 in
  Stmt.iter (fun _ -> incr n) t.body;
  !n

let kind_to_string = function Kernels -> "kernels" | Parallel -> "parallel"

let pp_dim_group ppf g =
  (match g.stated_dims with
  | None -> ()
  | Some dims -> List.iter (Dim.pp ppf) dims);
  Format.fprintf ppf "(%s)" (String.concat ", " g.group_arrays)

let pp ppf t =
  Format.fprintf ppf "@[<v>// kernel %s@,#pragma acc %s" t.rname
    (kind_to_string t.kind);
  if t.dim_groups <> [] then (
    Format.fprintf ppf " dim(";
    List.iteri
      (fun i g ->
        if i > 0 then Format.fprintf ppf ", ";
        pp_dim_group ppf g)
      t.dim_groups;
    Format.fprintf ppf ")");
  if t.small <> [] then
    Format.fprintf ppf " small(%s)" (String.concat ", " t.small);
  Format.fprintf ppf "@,@[<v 2>{@,%a@]@,}@]" Stmt.pp_body t.body
