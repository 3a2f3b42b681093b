(** The service loop: N virtual devices (shards) behind one admission
    plane, in virtual time.  A single-device service is the one-shard
    fleet, and that is the default shape (the [OMPSIMD_SERVE_*] and
    [OMPSIMD_FLEET_*] knobs that fill {!config} are parsed by [Knobs]).

    Each shard has a bounded admission queue with retry-with-backoff,
    [servers] executors dispatching highest-priority-first, deadlines
    enforced while queued and at completion, relaunch-with-backoff after
    device failures, and per-kernel circuit breakers ({!Breaker}); one
    global event queue ({!Eheap}: the trace's arrivals from a sorted
    cursor, dynamic events from a heap) drives them all.  Requests are
    placed by a consistent-hash ring over their
    content identity ({!Ompir.Kdigest} + guardize + resolved pass spec),
    idle shards steal from the deepest neighbour queue, and a dispatching
    shard drains same-content same-geometry queue mates into one merged
    grid ({i launch batching}): one compile charge, one server, a merged
    execution window, and exact per-request sub-reports (requests share
    no simulator state, so splitting the merged report is lossless by
    construction).

    Admission is per-tenant weighted-fair: on a full queue the most
    over-share tenant (queue occupancy over weight) loses its newest
    slot to an under-share newcomer; the evictee re-enters the normal
    retry-with-backoff path, so fairness never loses a request.

    Heterogeneous fleets give each shard its own device config (the
    [devices] list, usually {!Gpusim.Zoo} entries, cycled across shard
    ids).  Placement then becomes (content, device)-aware: the fleet
    tracks the minimum observed member cycles per (content key, device
    name) and routes each arrival to the cheapest device's sub-ring —
    hot kernels migrate to the architecture that runs them fastest,
    and a trace can pin a request with [device=<zoo name>].  The
    affinity estimator is deliberately a minimum, not a moving
    average: min is order-insensitive, so placement stays deterministic
    under simultaneous finishes.

    Determinism: nothing reads the host clock, placement hashes MD5,
    and every member launch pins its {!Gpusim.Fault} nonce to (request
    id, attempt) — injected faults are a pure function of the plan and
    the request, independent of shard count, batch shape and dispatch
    order.  A replay of the same trace under the same environment is
    bit-identical; {!results_json} is additionally invariant across
    shard counts and batch limits for configs that lose no requests to
    admission, and — because affinity keys on device {e names}, never
    shard ids — across shuffles of the device multiset over shard
    ids. *)

type config = {
  base : Scheduler.config;
      (** per-shard queue bound / servers / retries / backoff / breaker,
          plus the device, compile knobs and the fleet-wide compile-cache
          capacity *)
  shards : int;
  batch : int;  (** max members per merged grid; 1 disables batching *)
  steal : bool;  (** idle shards pull from the deepest neighbour queue *)
  memo : bool;
      (** memoize idempotent launch results by content (same template,
          size, geometry, data seed); automatically bypassed when the
          pool arms a fault plan, and never changes a report byte — only
          host time *)
  tenants : (string * int) list;
      (** fair-admission weights, e.g. [("alice", 3)]; absent tenants
          weigh 1 *)
  devices : Gpusim.Config.t list;
      (** per-shard device configs (usually {!Gpusim.Zoo} entries),
          cycled across shard ids; [[]] keeps the homogeneous fleet on
          the base device.  Each config is re-validated at [run]. *)
  affinity : bool;
      (** content->device affinity placement on heterogeneous fleets:
          requests route to the device whose minimum observed member
          cycles for their content key is lowest (unmeasured devices
          cost 0, so all get explored), then to a shard of that device
          by the device group's sub-ring.  No effect when every shard
          carries the same device. *)
  telemetry : bool;
      (** collect the windowed JSONL telemetry stream into
          [result.telemetry].  Observation (and the control loops it
          drives) is always on; this only controls emission. *)
  shed : bool;
      (** SLO-aware admission: while the fleet's windowed p99 is over
          [base.slo], shed lowest-priority arrivals (and over-share
          tenants) as {!Scheduler.Shed_slo}.  Inert without an SLO. *)
  autoscale : Autoscale.config;
      (** the window-boundary concurrency control loop; see
          {!Autoscale}.  [Autoscale.disabled] pins every shard at
          [base.servers]. *)
  decay : int;
      (** affinity cost-table horizon in telemetry windows: per-window
          observed minima older than this expire, aging unvisited
          devices back toward "unmeasured" (cost 0) so nonstationary
          traffic re-explores; 0 keeps the all-time minima *)
}

val parse_tenants : string -> (string * int) list
(** Parse ["alice=3,bob=1"] (a bare name means weight 1).
    @raise Invalid_argument on a malformed token. *)

val parse_devices : string -> Gpusim.Config.t list
(** Parse a comma-separated list of {!Gpusim.Zoo} names
    (["w32-hw,w64-sw"]) into per-shard device configs.
    @raise Invalid_argument naming the unknown device. *)

val weight_of : config -> string -> int
(** The tenant's fair-admission weight (>= 1; unknown tenants weigh 1). *)

val content_key : knobs:Openmp.Offload.knobs -> Request.spec -> string
(** The content identity placement and batching key on: kernel digest,
    guardize flag, resolved pass spec.  The fleet's knobs are one value
    per run, so the other knob fields need no place in it: [guardize]
    comes from the request, and [fold] and [racecheck] do not change
    what a launch computes. *)

val hash_pos : string -> int
(** A key's position on the ring: the first 8 bytes of its MD5. *)

val make_ring : int -> (int * int) array
val place_hash : (int * int) array -> int -> int
(** The consistent-hash ring: 64 MD5 points per shard, sorted;
    [place_hash ring (hash_pos key)] is the shard owning [key]'s
    clockwise successor point.  Exposed for the placement-stability
    tests. *)

type rq_report = {
  spec : Request.spec;
  shard : int;  (** where the terminal event happened *)
  outcome : Scheduler.outcome;
  attempts : int;
  launches : int;
  batched : int;  (** members of its terminal merged grid; 0 = never ran *)
  stolen : bool;  (** last executed on a foreign shard *)
  start : float;  (** -1 when the request never dispatched *)
  finish : float;
  latency : float;
  compile_ticks : float;
  exec_ticks : float;  (** its own member cycles, not the batch window *)
  cache : Scheduler.cache_status;
      (** the batch leader's status; mates of a miss report [C_join] *)
  checksum : float;
  counters : Gpusim.Counters.t;
      (** its own exact split of the merged report; zeros if it never ran *)
}

type fleet_stats = {
  batches : int;  (** merged-grid launches with >= 2 members *)
  batched_requests : int;  (** members that rode a merged grid *)
  steals : int;
  tenant_evictions : int;  (** queue slots reclaimed by fair admission *)
  memo_hits : int;  (** launches served from the content memo *)
  affinity_moves : int;
      (** first arrivals that device affinity (or a [device=] pin)
          routed off the plain content ring; always 0 on a homogeneous
          fleet *)
}

type result = {
  reports : rq_report list;  (** sorted by request id *)
  metrics : Metrics.t;  (** the fleet-wide aggregate *)
  shard_stats : Metrics.shard_stats list;
  tenant_stats : Metrics.tenant_stats list;
  fleet : fleet_stats;
  telemetry : string;
      (** the windowed JSONL stream (see {!Telemetry}); [""] unless
          [config.telemetry] was set.  Byte-identical across
          [OMPSIMD_DOMAINS] and shuffles of the device multiset over
          shard ids. *)
}

val merge_overhead : float
(** Virtual cycles added to a merged grid's window per extra member. *)

val nonce_for : Request.spec -> launches:int -> int
(** The pinned fault nonce of a member launch: a pure function of
    (request id, prior launches). *)

val run : config -> ?pool:Gpusim.Pool.t -> Request.spec list -> result
(** Replay a trace through the fleet.  Every launch runs on [pool] and
    under its settings: sanitizer, fault plan (which also bypasses the
    launch memo) and watchdog; no pool means all off.  A request whose
    launch geometry
    its shard's device cannot run ({!Openmp.Clause.check_geometry})
    reports [Failed] without launching.  @raise Invalid_argument on a
    non-positive shard or batch count (and the base config checks), or
    on an arrival time that is non-finite or lies more than a million
    telemetry windows out, naming the request and the window. *)

val report_line : rq_report -> string
val report_json : rq_report -> string

val results_json : rq_report list -> string
(** The placement/batch/steal-invariant core of a replay: per request
    its tenant, outcome, launch count, own execution cycles and
    checksum — no timing, no shard assignment.  For configs that lose
    no requests to admission (ample queues, no deadlines) this is
    byte-identical across shard counts and batch limits. *)

val fleet_stats_json : fleet_stats -> string

val snapshot_json : config -> result -> string
(** The full machine-readable snapshot: config, per-request reports,
    per-shard and per-tenant breakdowns, fleet counters, aggregate
    metrics.  Bit-identical across [OMPSIMD_DOMAINS]: the pool width is
    deliberately not recorded.  Every completed request reproduces bit
    for bit on the test-side reference walker, which the tests certify
    request by request. *)

val to_text : result -> string
(** Aggregate metrics plus fleet, per-shard and per-tenant lines. *)
