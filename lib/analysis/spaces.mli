(** Memory-space assignment for arrays in an offload region
    (paper §III.B.1: shared, constant, read-only and global — our
    implementation, like the paper's, places data in the read-only
    path or global memory).

    An array goes to the read-only data cache when the target has one
    (Kepler), the region never stores to it, and its declared intent
    permits ([copyin]/[copy]). Everything else is global. *)

val region_spaces :
  arch:Safara_gpu.Arch.t ->
  Safara_ir.Program.t ->
  Safara_ir.Region.t ->
  (string * Safara_gpu.Memspace.space) list
(** Space of every array referenced by the region. *)
