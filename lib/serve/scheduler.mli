(** The service's shared vocabulary: request outcomes, compile-cache
    statuses, the per-device service config and the virtual compile
    charge.

    The service loop is {!Fleet.run}.  A single-device service is a
    fleet of one shard (the default shape; the [OMPSIMD_SERVE_*] knobs
    that fill this config are parsed by [Knobs]): a bounded
    admission queue with explicit {!Rejected} / {!Shed} outcomes and
    retry-with-backoff, highest-priority-first dispatch over [servers]
    executors, deadlines enforced while queued and at completion, and a
    structural compile cost charged once per cache key (single-flight
    joins pay only the residual wait). *)

type outcome =
  | Completed
  | Rejected  (** admission failed and the config allows no retries *)
  | Shed  (** dropped after exhausting its retry budget *)
  | Shed_slo
      (** turned away by SLO-aware admission: the windowed p99 was over
          the latency target, so the lowest-priority class is shed
          explicitly — counted, terminal, never a silent drop *)
  | Timed_out  (** deadline expired (while queued, or finished late) *)
  | Failed
      (** never launched: the kernel did not compile, its launch
          geometry fails {!Openmp.Clause.check_geometry} on its shard's
          device, or its sharing space does not fit the device
          ({!Openmp.Offload.check_sharing}) *)
  | Degraded
      (** device failures exhausted the relaunch budget, or the
          kernel's circuit breaker was open — distinct from admission
          loss ({!Rejected}/{!Shed}): the service gave up on a request
          it had accepted *)

val outcome_to_string : outcome -> string

type cache_status =
  | C_hit  (** the artifact was cached and its compile had finished *)
  | C_miss  (** this dispatch compiled the kernel *)
  | C_join
      (** the artifact was cached but its compile was still running in
          virtual time: the request pays the residual wait.  The
          compile it joins may belong to a request that itself ended
          {!Failed}, because its sharing space did not fit its own
          shard's device *)
  | C_none  (** the request's terminal event was not a launch *)

val cache_status_to_string : cache_status -> string

type config = {
  cfg : Gpusim.Config.t;
  queue_bound : int;
  servers : int;
  cache_capacity : int;  (** 0 disables the cache *)
  max_retries : int;
      (** budget shared by admission retries and device-failure
          relaunches (counted separately: admissions vs launches) *)
  backoff : float;  (** base ticks; attempt k waits backoff * 2^(k-1) *)
  breaker : int;
      (** consecutive device failures of one cache key that open its
          circuit breaker; 0 disables the breaker.  Open sheds that
          kernel's dispatches as {!Degraded}; after a cooldown of
          [8 * backoff] ticks one half-open probe goes through —
          success closes the breaker, failure reopens it. *)
  slo : float option;
      (** latency SLO in virtual ticks; arms SLO-aware admission, the
          autoscaler and telemetry SLO tracking; [None] disables all of
          it *)
  window : float;
      (** telemetry/SLO evaluation window in virtual ticks: completion
          latencies are aggregated per window and the windowed p99
          drives the shedding decision for the next window *)
  knobs : Openmp.Offload.knobs;  (** guardize is overridden per request *)
}

val compile_cost : Ompir.Ir.kernel -> float
(** The virtual compile charge: 200 + 25 ticks per IR node. *)
