(** OpenACC-flavoured facade over the three-level runtime.

    The paper's §1 lines up the hierarchies: OpenACC's {e gang} maps to
    OpenMP's [teams] (thread blocks), {e worker} to [parallel] threads
    (warps / SIMD groups), and {e vector} to [simd] lanes.  Several of the
    paper's benchmarks were "adapted from OpenACC which has a mature
    three-leveled parallel implementation" — this module lets those
    adaptations read like their sources while executing on the same
    simulated device runtime.

    [vector_length] plays OpenACC's role of the paper's [simdlen]: it
    becomes the SIMD group size and must divide the warp. *)

type ctx = Omprt.Team.ctx

val parallel :
  cfg:Gpusim.Config.t ->
  ?num_gangs:int ->
  ?num_workers:int ->
  ?vector_length:int ->
  ?mode:Omprt.Mode.t ->
  (ctx -> unit) ->
  Gpusim.Device.report
(** [acc parallel] — launch a compute region.  [num_workers] is the count
    of OpenACC workers per gang (each backed by one SIMD group of
    [vector_length] lanes, so the team runs
    [num_workers * vector_length] threads).  [mode] picks the paper's
    execution model for worker-level code (default SPMD). *)

val loop_gang : ctx -> trip:int -> (int -> unit) -> unit
(** [acc loop gang] — split across gangs (= teams). *)

val loop_worker : ctx -> trip:int -> (int -> unit) -> unit
(** [acc loop worker] — split across the gang's workers. *)

val loop_gang_worker : ctx -> trip:int -> (int -> unit) -> unit
(** [acc loop gang worker] — the combined distribution. *)

val loop_vector : ctx -> trip:int -> (int -> unit) -> unit
(** [acc loop vector] — lockstep across the worker's vector lanes (the
    paper's simd level). *)

val loop_vector_sum : ctx -> trip:int -> (int -> float) -> float
(** [acc loop vector reduction(+:x)]. *)

val worker_num : ctx -> int
