module M = Safara_gpu.Memspace

let region_spaces ~arch (p : Safara_ir.Program.t) (r : Safara_ir.Region.t) =
  let read_only = Safara_ir.Region.read_only_arrays r in
  List.map
    (fun name ->
      let a = Safara_ir.Program.find_array p name in
      let space =
        if
          arch.Safara_gpu.Arch.has_read_only_cache
          && List.mem name read_only
          && a.Safara_ir.Array_info.intent <> Safara_ir.Array_info.Copy_out
        then M.Read_only
        else M.Global
      in
      (name, space))
    (Safara_ir.Region.referenced_arrays r)
