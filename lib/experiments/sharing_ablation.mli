(** Experiment E3 — §5.3.1: sizing the variable-sharing space.

    The paper grew the static reservation from 1024 to 2048 bytes because
    the space is now divided among all SIMD groups (plus the team main):
    with many groups, a slice can no longer hold a typical payload and the
    runtime must fall back to a global-memory allocation per region.

    This ablation sweeps reservation size x SIMD group size on a kernel
    with a 12-pointer payload and reports how often the fallback fires and
    what it costs. *)

type row = {
  sharing_bytes : int;
  group_size : int;
  num_groups : int;  (** per team *)
  slice_bytes : int;
  fallbacks : float;  (** global-memory fallbacks observed *)
  cycles : float;
}

type t = { rows : row list; payload_args : int }

val group_sizes_for : Gpusim.Config.t -> int list
(** The SIMD group sizes {!run} launches with on [cfg]; a front door
    checks them against the device warp before running. *)

val run :
  ?scale:float -> ?pool:Gpusim.Pool.t -> cfg:Gpusim.Config.t -> unit -> t
val to_table : t -> Ompsimd_util.Table.t
val print : t -> unit
