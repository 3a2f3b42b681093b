(* Service metrics snapshot.  Everything here is derived from virtual
   (simulated) time and deterministic counters — never the host clock —
   so a replay of the same trace under the same seed produces a
   bit-identical snapshot, pooled or sequential, either engine. *)

module Stats = Ompsimd_util.Stats

type t = {
  requests : int;  (* trace length *)
  completed : int;
  rejected : int;  (* admission failure, no retry policy *)
  shed : int;  (* dropped after exhausting retries *)
  shed_slo : int;  (* shed by SLO admission while the windowed p99 was over *)
  timed_out : int;
  failed : int;  (* compile errors *)
  retries : int;  (* re-arrivals scheduled by the backoff policy *)
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
  makespan : float;  (* virtual ticks, first arrival to last event *)
  sim_cycles : float;  (* total simulated device cycles across launches *)
  launches : int;
  blocks : int;  (* total blocks launched *)
  global_loads : int;
  global_stores : int;
  atomics : int;
  device_failures : int;  (* launches that came back with failed blocks *)
  relaunches : int;  (* recovery launches scheduled after device failures *)
  recovered : int;  (* requests completed after >= 1 device failure *)
  degraded : int;  (* outcome Degraded: retries exhausted or breaker open *)
  breaker_opens : int;  (* closed/half-open -> open transitions *)
  slo_violations : int;  (* completions whose latency exceeded the SLO *)
  autoscale_grows : int;  (* pool tokens granted to shards *)
  autoscale_shrinks : int;  (* pool tokens returned by shards *)
  breaker_reopens : int;  (* open breakers fast-forwarded after a clean window *)
  faults_corrected : int;  (* ECC-corrected flips across launches *)
  faults_fatal : int;  (* injected aborts + uncorrectable flips *)
  faults_stalls : int;  (* barrier-stall failures *)
  faults_exhausts : int;  (* sharing acquires forced onto the fallback *)
  faults_watchdogs : int;  (* blocks over the watchdog budget *)
}

let cache_hit_rate m =
  let total = m.cache_hits + m.cache_joins + m.cache_misses in
  if total = 0 then 0.0
  else float_of_int (m.cache_hits + m.cache_joins) /. float_of_int total

let percentiles latencies =
  match Array.length latencies with
  | 0 -> (0.0, 0.0, 0.0, 0.0)
  | _ ->
      let sorted = Array.copy latencies in
      Stats.sort_floats sorted;
      ( Stats.mean latencies,
        Stats.percentile_sorted sorted 50.0,
        Stats.percentile_sorted sorted 95.0,
        Stats.percentile_sorted sorted 99.0 )

let throughput m =
  if m.makespan <= 0.0 then 0.0
  else float_of_int m.completed /. (m.makespan /. 1.0e6)

let to_text m =
  let b = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "service metrics (virtual time)\n";
  p "  requests    %6d  (completed %d, rejected %d, shed %d, shed-slo %d, timed-out %d, failed %d)\n"
    m.requests m.completed m.rejected m.shed m.shed_slo m.timed_out m.failed;
  p "  retries     %6d   queue max %d   in-flight max %d\n" m.retries
    m.queue_max m.inflight_max;
  p "  cache       hits %d  joins %d  misses %d  evictions %d  (hit rate %.1f%%)\n"
    m.cache_hits m.cache_joins m.cache_misses m.cache_evictions
    (100.0 *. cache_hit_rate m);
  p "  latency     mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f ticks\n"
    m.latency_mean m.latency_p50 m.latency_p95 m.latency_p99;
  p "  makespan    %.1f ticks   throughput %.2f req/Mtick\n" m.makespan
    (throughput m);
  p "  device      %d launches, %d blocks, %.0f cycles, %d loads, %d stores, %d atomics\n"
    m.launches m.blocks m.sim_cycles m.global_loads m.global_stores m.atomics;
  p "  recovery    device-failures %d  relaunches %d  recovered %d  degraded %d  breaker-opens %d\n"
    m.device_failures m.relaunches m.recovered m.degraded m.breaker_opens;
  p "  slo         violations %d  shed-slo %d   autoscale grows %d  shrinks %d  breaker-reopens %d\n"
    m.slo_violations m.shed_slo m.autoscale_grows m.autoscale_shrinks
    m.breaker_reopens;
  p "  faults      corrected %d  fatal %d  stalls %d  exhausts %d  watchdogs %d\n"
    m.faults_corrected m.faults_fatal m.faults_stalls m.faults_exhausts
    m.faults_watchdogs;
  Buffer.contents b

(* Fixed three-decimal rendering: enough for tick quantities, and a
   stable text form — the smoke test diffs these files byte-for-byte. *)
let jf x = Printf.sprintf "%.3f" x

let to_json m =
  let b = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "{";
  p "\"requests\": %d, " m.requests;
  p "\"completed\": %d, " m.completed;
  p "\"rejected\": %d, " m.rejected;
  p "\"shed\": %d, " m.shed;
  p "\"shed_slo\": %d, " m.shed_slo;
  p "\"timed_out\": %d, " m.timed_out;
  p "\"failed\": %d, " m.failed;
  p "\"retries\": %d, " m.retries;
  p "\"queue_max\": %d, " m.queue_max;
  p "\"inflight_max\": %d, " m.inflight_max;
  p "\"cache\": {\"hits\": %d, \"joins\": %d, \"misses\": %d, \"evictions\": %d, \"hit_rate\": %s}, "
    m.cache_hits m.cache_joins m.cache_misses m.cache_evictions
    (jf (cache_hit_rate m));
  p "\"latency\": {\"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s}, "
    (jf m.latency_mean) (jf m.latency_p50) (jf m.latency_p95)
    (jf m.latency_p99);
  p "\"makespan\": %s, " (jf m.makespan);
  p "\"device\": {\"launches\": %d, \"blocks\": %d, \"sim_cycles\": %s, \"global_loads\": %d, \"global_stores\": %d, \"atomics\": %d}, "
    m.launches m.blocks (jf m.sim_cycles) m.global_loads m.global_stores
    m.atomics;
  p "\"recovery\": {\"device_failures\": %d, \"relaunches\": %d, \"recovered\": %d, \"degraded\": %d, \"breaker_opens\": %d}, "
    m.device_failures m.relaunches m.recovered m.degraded m.breaker_opens;
  p "\"slo\": {\"violations\": %d, \"shed\": %d}, " m.slo_violations m.shed_slo;
  p "\"autoscale\": {\"grows\": %d, \"shrinks\": %d, \"breaker_reopens\": %d}, "
    m.autoscale_grows m.autoscale_shrinks m.breaker_reopens;
  p "\"faults\": {\"corrected\": %d, \"fatal\": %d, \"stalls\": %d, \"exhausts\": %d, \"watchdogs\": %d}"
    m.faults_corrected m.faults_fatal m.faults_stalls m.faults_exhausts
    m.faults_watchdogs;
  p "}";
  Buffer.contents b

(* --- fleet breakdowns --------------------------------------------------
   Per-shard and per-tenant slices of the same snapshot, produced by
   {!Fleet.run}.  The scalar record above stays the fleet-wide
   aggregate; these are the isolation picture: which virtual device
   absorbed what, and which client paid for it. *)

type shard_stats = {
  shard : int;
  s_device : string;  (* the shard's device config name *)
  s_placed : int;  (* requests the ring routed here (first arrival) *)
  s_completed : int;
  s_shed : int;  (* rejected + shed + fair-admission evictions resolved here *)
  s_shed_slo : int;  (* SLO admission sheds attributed to this home shard *)
  s_timed_out : int;
  s_degraded : int;
  s_launches : int;  (* member launches executed on this shard *)
  s_batches : int;  (* merged-grid launches (batch size >= 2) *)
  s_batched_requests : int;  (* members that rode a merged grid *)
  s_steals : int;  (* requests this shard pulled from a neighbour's queue *)
  s_queue_max : int;
  s_breaker_opens : int;
  s_breakers_open : int;  (* breakers not closed (open/probing) at end of run *)
  s_retries : int;  (* backoff re-arrivals scheduled off this shard's queue *)
  s_relaunches : int;  (* recovery relaunches scheduled on this shard *)
  s_conc : int;  (* final concurrency target (servers + autoscaled extra) *)
}

type tenant_stats = {
  tenant : string;
  weight : int;
  t_requests : int;
  t_completed : int;
  t_shed : int;  (* rejected + shed: admission losses *)
  t_shed_slo : int;  (* shed by SLO admission *)
  t_timed_out : int;
  t_degraded : int;
  t_evicted : int;  (* queue slots reclaimed from this tenant by fair admission *)
  t_latency_mean : float;  (* over its completed requests *)
}

let shard_stats_to_json s =
  Printf.sprintf
    "{\"shard\": %d, \"device\": \"%s\", \"placed\": %d, \"completed\": %d, \"shed\": %d, \"shed_slo\": %d, \"timed_out\": %d, \"degraded\": %d, \"launches\": %d, \"batches\": %d, \"batched_requests\": %d, \"steals\": %d, \"queue_max\": %d, \"breaker_opens\": %d, \"breakers_open\": %d, \"retries\": %d, \"relaunches\": %d, \"conc\": %d}"
    s.shard s.s_device s.s_placed s.s_completed s.s_shed s.s_shed_slo
    s.s_timed_out s.s_degraded
    s.s_launches s.s_batches s.s_batched_requests s.s_steals s.s_queue_max
    s.s_breaker_opens s.s_breakers_open s.s_retries s.s_relaunches s.s_conc

let tenant_stats_to_json t =
  Printf.sprintf
    "{\"tenant\": \"%s\", \"weight\": %d, \"requests\": %d, \"completed\": %d, \"shed\": %d, \"shed_slo\": %d, \"timed_out\": %d, \"degraded\": %d, \"evicted\": %d, \"latency_mean\": %s}"
    t.tenant t.weight t.t_requests t.t_completed t.t_shed t.t_shed_slo
    t.t_timed_out t.t_degraded t.t_evicted (jf t.t_latency_mean)

let shard_stats_line s =
  Printf.sprintf
    "shard %2d [%s] placed=%d completed=%d shed=%d shed-slo=%d timed-out=%d degraded=%d launches=%d batches=%d batched=%d steals=%d queue-max=%d breaker-opens=%d breakers-open=%d retries=%d relaunches=%d conc=%d"
    s.shard s.s_device s.s_placed s.s_completed s.s_shed s.s_shed_slo
    s.s_timed_out s.s_degraded
    s.s_launches s.s_batches s.s_batched_requests s.s_steals s.s_queue_max
    s.s_breaker_opens s.s_breakers_open s.s_retries s.s_relaunches s.s_conc

let tenant_stats_line t =
  Printf.sprintf
    "tenant %-8s weight=%d requests=%d completed=%d shed=%d shed-slo=%d timed-out=%d degraded=%d evicted=%d latency-mean=%.1f"
    t.tenant t.weight t.t_requests t.t_completed t.t_shed t.t_shed_slo
    t.t_timed_out t.t_degraded t.t_evicted t.t_latency_mean
