(** Service metrics snapshot — queue/admission outcomes, cache counters,
    latency percentiles and folded per-launch device counters.

    All quantities are in virtual (simulated) time or deterministic
    counters: a replay of the same trace with the same seed yields a
    bit-identical snapshot regardless of [OMPSIMD_DOMAINS]. *)

type t = {
  requests : int;
  completed : int;
  rejected : int;
  shed : int;
  shed_slo : int;
      (** shed by SLO-aware admission while the windowed p99 was over
          the target — an explicit terminal outcome, never silent *)
  timed_out : int;
  failed : int;
  retries : int;
  queue_max : int;
  inflight_max : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_joins : int;
  latency_mean : float;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  makespan : float;
  sim_cycles : float;
  launches : int;
  blocks : int;
  global_loads : int;
  global_stores : int;
  atomics : int;
  device_failures : int;
      (** launches that came back with failed blocks (or hung) *)
  relaunches : int;  (** recovery launches scheduled after device failures *)
  recovered : int;  (** requests completed after >= 1 device failure *)
  degraded : int;  (** retries exhausted on device failures, or breaker shed *)
  breaker_opens : int;  (** circuit-breaker closed/half-open -> open *)
  slo_violations : int;  (** completions whose latency exceeded the SLO *)
  autoscale_grows : int;  (** pool tokens granted to shards *)
  autoscale_shrinks : int;  (** pool tokens returned by shards *)
  breaker_reopens : int;
      (** open breakers fast-forwarded to their half-open probe after a
          failure-free telemetry window *)
  faults_corrected : int;
  faults_fatal : int;
  faults_stalls : int;
  faults_exhausts : int;
  faults_watchdogs : int;
      (** fault totals folded from every launch's {!Gpusim.Device.report} *)
}

val cache_hit_rate : t -> float
(** (hits + joins) / lookups; 0 when there were none. *)

val throughput : t -> float
(** Completed requests per million virtual ticks. *)

val percentiles : float array -> float * float * float * float
(** (mean, p50, p95, p99); zeros on an empty array. *)

val to_text : t -> string
val to_json : t -> string
(** Single-line JSON object with a fixed field order and fixed decimal
    rendering — byte-diffable across replays. *)

(** {2 Fleet breakdowns}

    Per-shard and per-tenant slices of a fleet replay, produced by
    {!Fleet.run} alongside the aggregate record above. *)

type shard_stats = {
  shard : int;
  s_device : string;
      (** the shard's device config name (heterogeneous fleets differ
          per shard; homogeneous fleets repeat the base device) *)
  s_placed : int;  (** requests the placement ring routed here *)
  s_completed : int;
  s_shed : int;
      (** rejected + shed + fair-admission evictions resolved on this
          shard's queue *)
  s_shed_slo : int;  (** SLO admission sheds attributed to this home shard *)
  s_timed_out : int;
  s_degraded : int;
  s_launches : int;  (** member launches executed on this shard *)
  s_batches : int;  (** merged-grid launches (batch size >= 2) *)
  s_batched_requests : int;  (** members that rode a merged grid *)
  s_steals : int;  (** requests this shard pulled from a neighbour *)
  s_queue_max : int;
  s_breaker_opens : int;
  s_breakers_open : int;
      (** breakers not closed (open or probing) when the replay drained *)
  s_retries : int;  (** backoff re-arrivals scheduled off this shard's queue *)
  s_relaunches : int;  (** recovery relaunches scheduled on this shard *)
  s_conc : int;  (** final concurrency target (servers + autoscaled extra) *)
}

type tenant_stats = {
  tenant : string;
  weight : int;  (** fair-admission weight (default 1) *)
  t_requests : int;
  t_completed : int;
  t_shed : int;  (** rejected + shed: admission losses *)
  t_shed_slo : int;  (** shed by SLO admission *)
  t_timed_out : int;
  t_degraded : int;
  t_evicted : int;
      (** queue slots reclaimed from this tenant by weighted-fair
          admission (each eviction re-enters the retry path) *)
  t_latency_mean : float;  (** over its completed requests *)
}

val shard_stats_to_json : shard_stats -> string
val tenant_stats_to_json : tenant_stats -> string
val shard_stats_line : shard_stats -> string
val tenant_stats_line : tenant_stats -> string
