(** Experiment E6 — the paper's stated future work (§6.2, §7): data
    reductions in the new loop API.

    sparse_matvec originally reduced the inner product but had to fall
    back to atomic updates because the prototype lacks reductions.  We
    implemented the warp-shuffle group reduction as an extension; this
    experiment quantifies what the paper lost, comparing the atomic-update
    kernel against the reduction kernel across SIMD group sizes. *)

type row = {
  group_size : int;
  atomic_cycles : float;
  reduction_cycles : float;
  improvement : float;  (** atomic / reduction *)
}

type t = { rows : row list }

val group_sizes_for : Gpusim.Config.t -> int list
(** The SIMD group sizes {!run} launches with on [cfg] by default:
    {!Fig9.group_sizes_for}. *)

val run :
  ?scale:float ->
  ?pool:Gpusim.Pool.t ->
  ?group_sizes:int list ->
  cfg:Gpusim.Config.t ->
  unit ->
  t
(** [group_sizes] defaults to {!Fig9.group_sizes_for}[ cfg]. *)

val to_table : t -> Ompsimd_util.Table.t
val print : t -> unit
