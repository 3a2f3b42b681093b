(** The paper's purpose-built benchmarking kernel (§6.3): "a small inner
    loop that fits into a single warp, but is not collapsible with the
    outer-loop nest".

    Each outer iteration computes a row-dependent base value in region
    code (this is the non-collapsible data dependency), then a 32-trip
    inner loop does arithmetic-heavy work per element.  The paper runs the
    teams region SPMD and the parallel region generic, reporting a 2.15x
    speedup at SIMD group size 32. *)

type shape = { rows : int; inner : int; flops_per_elem : int; seed : int }

val default_shape : shape
(** 32-trip inner loop, compute-heavy body. *)

type instance

val generate : shape -> instance
val shape_of : instance -> shape
val reference : instance -> float array

val run :
  cfg:Gpusim.Config.t ->
  ?pool:Gpusim.Pool.t ->
  ?trace:Gpusim.Trace.t ->
  ?reset_l2:bool ->
  ?num_teams:int ->
  ?threads:int ->
  mode3:Harness.mode3 ->
  instance ->
  Harness.run
(** [pool] simulates teams on several host domains without changing the
    report. *)

val run_two_level :
  cfg:Gpusim.Config.t ->
  ?pool:Gpusim.Pool.t ->
  ?num_teams:int ->
  ?threads:int ->
  instance ->
  Harness.run
(** Serial inner loop (group size 1) — the paper's two-level baseline. *)

val verify : instance -> float array -> (unit, string) result
