(** Experiment E2 — Fig 10 of the paper: relative speedup of the simd
    execution modes over the "No SIMD" two-level configuration for
    laplace3d, muram_transpose and muram_interpol, at SIMD group size 32
    with identical team/thread counts.

    Paper reference points: "SPMD SIMD" performs like "No SIMD" (within a
    few percent, sometimes marginally faster); "generic SIMD" runs roughly
    15% slower — the price of the state machine and its synchronization. *)

type mode_kind = No_simd | Spmd_simd | Generic_simd

val mode_name : mode_kind -> string

type row = {
  kernel : string;
  mode : mode_kind;
  cycles : float;
  relative : float;  (** no-simd cycles / this mode's cycles *)
}

type t = { rows : row list }

val group_sizes_for : Gpusim.Config.t -> int list
(** The SIMD group sizes {!run} launches with on [cfg] by default (the
    paper's 32); a front door checks them against the device warp before
    running. *)

val run :
  ?scale:float ->
  ?group_size:int ->
  ?pool:Gpusim.Pool.t ->
  cfg:Gpusim.Config.t ->
  unit ->
  t
(** [group_size] defaults to 32, as in the paper. *)

val relative : t -> kernel:string -> mode_kind -> float
(** @raise Not_found if absent. *)

val to_table : t -> Ompsimd_util.Table.t
val to_csv : t -> string
val print : t -> unit
