(** Experiment E8 — §7's planned extension, implemented: SPMDization of
    parallel regions via thread guarding + variable broadcasting ([16]).

    A kernel whose parallel body carries sequential side effects (a
    per-row store before its simd loop) runs three ways:

    - {b generic}: the compiler's only safe choice without the transform —
      the SIMD state machine;
    - {b guarded SPMD}: the {!Ompir.Spmdize.guardize} transform wraps the
      side effects in guard blocks and the region runs SPMD;
    - {b tight SPMD}: the same kernel hand-restructured so the store moves
      inside the simd loop — the no-overhead upper bound.

    The paper's §6.5 prediction is the ordering
    [tight >= guarded > generic]: "even with proper SPMDization the
    included thread guarding and variable broadcasting would still see
    some amount of performance degradation". *)

type row = {
  variant : string;
  cycles : float;
  relative : float;  (** generic cycles / this variant's cycles *)
  guards : int;
}

type t = { rows : row list }

val group_sizes_for : Gpusim.Config.t -> int list
(** The SIMD group sizes {!run} launches with on [cfg]; a front door
    checks them against the device warp before running. *)

val run :
  ?scale:float ->
  ?pool:Gpusim.Pool.t ->
  ?knobs:Openmp.Offload.knobs ->
  cfg:Gpusim.Config.t ->
  unit ->
  t
(** [knobs] (default {!Openmp.Offload.default_knobs}) compile every
    variant; each variant sets [guardize] itself. *)

val to_table : t -> Ompsimd_util.Table.t
val print : t -> unit
