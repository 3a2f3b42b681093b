(* The service's shared vocabulary: request outcomes, cache statuses,
   the per-device service config and the virtual compile charge.  The
   service loop itself is {!Fleet.run}; a single-device service is a
   fleet of one shard. *)

module Offload = Openmp.Offload

type outcome =
  | Completed
  | Rejected
  | Shed
  | Shed_slo
  | Timed_out
  | Failed
  | Degraded

let outcome_to_string = function
  | Completed -> "completed"
  | Rejected -> "rejected"
  | Shed -> "shed"
  | Shed_slo -> "shed-slo"
  | Timed_out -> "timed-out"
  | Failed -> "failed"
  | Degraded -> "degraded"

type cache_status = C_hit | C_miss | C_join | C_none

let cache_status_to_string = function
  | C_hit -> "hit"
  | C_miss -> "miss"
  | C_join -> "join"
  | C_none -> "-"

type config = {
  cfg : Gpusim.Config.t;
  queue_bound : int;
  servers : int;
  cache_capacity : int;
  max_retries : int;
  backoff : float;  (* base ticks; attempt k waits backoff * 2^(k-1) *)
  breaker : int;  (* consecutive device failures that open it; 0 = off *)
  slo : float option;
      (* latency SLO in virtual ticks; arms SLO-aware admission and the
         autoscaler; None = no SLO *)
  window : float;  (* telemetry/SLO evaluation window, virtual ticks *)
  knobs : Offload.knobs;  (* guardize is overridden per request *)
}

(* Virtual compile cost: purely structural, so it is identical on every
   host.  25 ticks per IR node on a 200-tick floor lands small kernels
   in the same decade as their launch times on the small device. *)
let compile_cost kernel =
  200.0 +. (25.0 *. float_of_int (Ompir.Kdigest.weight kernel))
