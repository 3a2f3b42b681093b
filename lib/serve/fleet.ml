(* The service loop: N virtual devices behind one admission plane, in
   virtual time.  A single-device service is the one-shard fleet.

   Each shard has its own bounded queue, its own executors and its own
   per-kernel circuit breakers ({!Breaker}); one global discrete-event
   queue ({!Eheap}) drives them all: the trace's arrivals come from a
   cursor over one array sorted by arrival time, and only dynamic
   events (finishes, retry arrivals, relaunches) pass through its
   heap, in the same (time, rank, seq) order one heap of every event
   would give.  Per shard, admission retries with exponential
   backoff, dispatch is highest-priority-first, deadlines are enforced
   while queued and at completion, and failed launches relaunch with
   backoff until they complete or exhaust the budget.  Three mechanisms
   turn N shards into a fleet:

   * {b Placement} is a consistent-hash ring over the request's
     content identity ({!Ompir.Kdigest} of the instantiated template,
     plus the guardize flag and the resolved pass spec).  Same content,
     same shard: compile artifacts and batch partners concentrate where
     their cache entry lives, and adding a shard moves only the keys
     that hash next to it.

   * {b Work stealing}: a shard whose queue is empty but whose server
     just freed pulls the best request from the deepest neighbour
     queue (ties to the lowest shard id) — placement optimizes for
     locality, stealing keeps the fleet work-conserving when the hash
     is momentarily unlucky.  Stolen requests run solo (batching is a
     home-queue affair) and their recovery stays on the thief, whose
     breaker observed the launch.

   * {b Launch batching}: when a shard dispatches a request and
     [batch > 1], it drains up to [batch - 1] more queued requests
     with the same content identity and launch geometry into one
     merged grid occupying one server.  Requests share no simulator
     state (each instantiates its own memory space), so the merged
     grid's per-request sub-reports are computed exactly — counters,
     checksums and injected-fault sections attribute to the member
     they belong to, and splitting the merged report is lossless by
     construction.  The batch pays one compile charge and a merged
     execution window of max(member cycles) + a per-member merge
     overhead: the throughput win is that members ride side by side
     instead of serializing.

   Fault injection stays deterministic under all of this because every
   member launch pins its {!Gpusim.Fault} nonce to (request id,
   attempt): the faults a request draws are a pure function of the
   plan and the request, not of where the fleet placed it or what
   launched before it.  That is what makes the batching-equivalence
   and shard-invariance properties hold byte-exactly under chaos
   plans.

   Every distinct content key is interned to an int the first time a
   request carries it.  Batching compatibility, the launch memo, the
   affinity cost table, the compile cache and the breakers all key on
   that id (plus the geometry, size, data seed or device name each
   needs), so the loop builds no key string per request: within one
   run the compile knobs are fixed, and the id
   stands for the compile-cache key exactly.

   A launch geometry the executing shard's device cannot run
   ({!Openmp.Clause.check_geometry}) ends as that request's [Failed],
   as a compile error does; it never aborts the replay.  The check is
   made at dispatch, before the breaker is asked, so an unlaunchable
   request never takes a breaker's half-open probe slot.

   Admission is per-tenant weighted-fair: when a shard's queue is
   full, the most over-share tenant — occupancy divided by weight —
   loses a slot, and a newcomer already over its own share is the one
   turned away.  A hot tenant therefore sheds first; light tenants
   keep their seats.  Evicted requests re-enter the normal
   retry-with-backoff path, so fairness never silently loses a
   request: the no-lost-request invariant holds fleet-wide.

   Repeated identical requests (same template, size, geometry, data
   seed) are idempotent — bindings are a pure function of the spec —
   so with faults disarmed the fleet memoizes launch results by
   content.  A million-request soak with a bounded spec space costs a
   few hundred real launches; the memo never changes a single report
   byte, only host time, and it disables itself while a fault plan is
   armed (relaunches must draw fresh faults). *)

module Offload = Openmp.Offload
module Clause = Openmp.Clause
module Counters = Gpusim.Counters

type config = {
  base : Scheduler.config;
      (* per-shard queue bound / servers / retries / backoff / breaker,
         plus the device, the fleet-wide compile-cache capacity and the
         compile knobs *)
  shards : int;
  batch : int;  (* max members per merged grid; 1 disables batching *)
  steal : bool;
  memo : bool;  (* content-memoize idempotent launches (disarmed runs only) *)
  tenants : (string * int) list;  (* fair-admission weights; absent = 1 *)
  devices : Gpusim.Config.t list;
      (* per-shard device configs, cycled across shard ids; [] means
         every shard runs the base device (the pre-zoo fleet) *)
  affinity : bool;  (* content->config affinity placement (hetero only) *)
  telemetry : bool;  (* collect the windowed JSONL telemetry stream *)
  shed : bool;  (* SLO-aware admission shedding (armed when base.slo is set) *)
  autoscale : Autoscale.config;  (* window-boundary concurrency control *)
  decay : int;
      (* affinity cost-table horizon in windows: observed minima older
         than this age back toward "unmeasured" so a nonstationary
         trace re-explores; 0 = remember forever (the pre-decay table) *)
}

let parse_tenants spec =
  String.split_on_char ',' spec
  |> List.filter_map (fun tok ->
         let tok = String.trim tok in
         if tok = "" then None
         else
           match String.index_opt tok '=' with
           | None -> Some (tok, 1)
           | Some i -> (
               let name = String.sub tok 0 i in
               let v = String.sub tok (i + 1) (String.length tok - i - 1) in
               match int_of_string_opt v with
               | Some w when w >= 1 && name <> "" -> Some (name, w)
               | _ ->
                   invalid_arg
                     (Printf.sprintf
                        "OMPSIMD_SERVE_TENANTS: token %S is not name=weight"
                        tok)))

(* OMPSIMD_FLEET_DEVICES is a comma-separated list of zoo names (no
   key=value overrides — a comma already separates shards), resolved
   and validated up front so a misspelt device fails the replay before
   any request moves. *)
let parse_devices spec =
  String.split_on_char ',' spec
  |> List.filter_map (fun tok ->
         let tok = String.trim tok in
         if tok = "" then None
         else
           match Gpusim.Zoo.resolve tok with
           | Ok cfg -> Some cfg
           | Error msg ->
               invalid_arg (Printf.sprintf "OMPSIMD_FLEET_DEVICES: %s" msg))

let weight_of conf tenant =
  match List.assoc_opt tenant conf.tenants with
  | Some w -> max 1 w
  | None -> 1

(* --- consistent-hash placement ----------------------------------------- *)

(* 64 virtual points per shard on an MD5 ring.  MD5 is stable across
   hosts and OCaml versions, so placement is part of the deterministic
   replay contract. *)
let ring_points = 64

let hash_pos s =
  let d = Digest.string s in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int

(* A ring over an arbitrary shard-id subset: the vnode labels depend
   only on the shard id, so the sub-ring of a device group is literally
   the full ring with the other shards' points removed — membership
   changes move only the keys whose successor point left. *)
let make_ring_of sids =
  let sids = Array.of_list sids in
  let a =
    Array.init (Array.length sids * ring_points) (fun i ->
        let s = sids.(i / ring_points) and v = i mod ring_points in
        (hash_pos (Printf.sprintf "ompserve-shard-%d-vnode-%d" s v), s))
  in
  Array.sort compare a;
  a

let make_ring shards = make_ring_of (List.init shards Fun.id)

(* The shard owning ring position [h] (a [hash_pos] value). *)
let place_hash ring h =
  let n = Array.length ring in
  (* successor point on the ring (clockwise), wrapping at the top *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let pos, _ = ring.(mid) in
    if pos < h then lo := mid + 1 else hi := mid
  done;
  let _, shard = ring.(if !lo = n then 0 else !lo) in
  shard

(* The content identity: placement, batching compatibility and the
   launch memo all key on it (the cache key proper adds the knobs a
   fleet holds fixed for the whole run). *)
let content_key ~knobs (spec : Request.spec) =
  let kernel = Request.kernel_of_spec spec in
  Printf.sprintf "%s|%c|%s"
    (Ompir.Kdigest.hex kernel)
    (if spec.guardize then 'g' else '-')
    knobs.Offload.passes

(* --- bookkeeping types -------------------------------------------------- *)

type pending = {
  spec : Request.spec;
  attempts : int;  (* admissions; 1 = admitted first try *)
  launches : int;  (* device launches performed *)
  home : int;  (* the shard the ring placed it on *)
  cid : int;  (* interned content identity: one int per distinct key *)
  chash : int;  (* [hash_pos] of the content key: its ring position *)
  stolen : bool;  (* executing (or last executed) on a foreign shard *)
  relaunched : bool;  (* recovery re-entry: exempt from bound and eviction *)
  clauses : Clause.t;
      (* the launch geometry as clauses, made once per geometry before
         the replay starts: placement, every dispatch attempt and every
         member launch read it *)
}

(* One member's exact sub-report, split out of the merged grid. *)
type member = {
  m_pending : pending;  (* launches already includes the one in flight *)
  m_exec : float;  (* its own simulated device cycles; 0 when hung *)
  m_failed : bool;
  m_checksum : float;
  m_grid : int;
  m_counters : Counters.t;
  m_faults : Gpusim.Fault.stats;
}

type batch_run = {
  b_shard : int;
  b_members : member list;  (* dispatch order: leader first *)
  b_started : float;
  b_compile : float;
  b_cache : Scheduler.cache_status;  (* the leader's; C_miss mates report C_join *)
  b_cid : int;  (* content id = cache key = breaker key *)
}

type event = Arrive of pending | Relaunch of int * pending | Finish of batch_run

type shard_state = {
  sid : int;
  mutable queue : pending list;
  mutable conc : int;  (* concurrency target: servers + autoscaled extra *)
  mutable busy : int;  (* executors occupied; dispatch while busy < conc *)
  breakers : int Breaker.t;  (* keyed by content id *)
  mutable s_placed : int;
  mutable s_queue_max : int;
  mutable s_launches : int;
  mutable s_batches : int;
  mutable s_batched_requests : int;
  mutable s_steals : int;
  mutable s_breaker_opens : int;
  mutable s_retries : int;
  mutable s_relaunches : int;
}

type rq_report = {
  spec : Request.spec;
  shard : int;  (* where the terminal event happened *)
  outcome : Scheduler.outcome;
  attempts : int;
  launches : int;
  batched : int;  (* members of its terminal merged grid; 0 = never ran *)
  stolen : bool;
  start : float;
  finish : float;
  latency : float;
  compile_ticks : float;
  exec_ticks : float;
  cache : Scheduler.cache_status;
  checksum : float;
  counters : Counters.t;  (* its own split of the merged report; zeros if never ran *)
}

type fleet_stats = {
  batches : int;
  batched_requests : int;
  steals : int;
  tenant_evictions : int;
  memo_hits : int;
  affinity_moves : int;
      (* first arrivals the device-affinity (or a device= pin) routed
         off the plain content ring; 0 on homogeneous fleets *)
}

type result = {
  reports : rq_report list;
  metrics : Metrics.t;
  shard_stats : Metrics.shard_stats list;
  tenant_stats : Metrics.tenant_stats list;
  fleet : fleet_stats;
  telemetry : string;  (* the windowed JSONL stream; "" unless collected *)
}

(* End-of-run tally of one tenant: terminal outcomes by [outcome_ix],
   and its completed latencies summed in report order. *)
type tally = { outcomes : int array; mutable lat_sum : float }

let n_outcomes = 7

let outcome_ix = function
  | Scheduler.Completed -> 0
  | Scheduler.Rejected -> 1
  | Scheduler.Shed -> 2
  | Scheduler.Shed_slo -> 3
  | Scheduler.Timed_out -> 4
  | Scheduler.Failed -> 5
  | Scheduler.Degraded -> 6

let cache_ix = function
  | Scheduler.C_hit -> 0
  | Scheduler.C_miss -> 1
  | Scheduler.C_join -> 2
  | Scheduler.C_none -> 3

(* Virtual cost of folding one more member into a merged grid: the
   merged launch runs members side by side (their block sets are
   disjoint, the device schedules them together), so the batch window
   is the slowest member plus this per-member merge overhead —
   structural, host-independent, like {!Scheduler.compile_cost}. *)
let merge_overhead = 64.0

(* Fault identity of a member launch: a pure function of (request,
   attempt), pinned per launch ([Offload.run ~nonce]) so placement,
   batch shape and dispatch order can never change what a request
   draws. *)
let nonce_for (spec : Request.spec) ~launches = 1 + (spec.Request.id * 1021) + launches

let clauses_of (spec : Request.spec) =
  Clause.(
    none
    |> num_teams spec.Request.teams
    |> num_threads spec.Request.threads
    |> simdlen spec.Request.simdlen)

(* Batching compatibility: same content, same launch geometry. *)
let same_shape (a : pending) (b : pending) =
  a.cid = b.cid
  && a.spec.Request.teams = b.spec.Request.teams
  && a.spec.Request.threads = b.spec.Request.threads
  && a.spec.Request.simdlen = b.spec.Request.simdlen

(* --- the fleet loop ----------------------------------------------------- *)

(* Telemetry closes every window up to the clock, empty ones included,
   so an arrival a billion windows out would spin the replay through a
   billion empty windows: a trace must arrive within this many. *)
let max_windows = 1e6

let run conf ?pool specs =
  if conf.shards < 1 then invalid_arg "Fleet.run: shards must be >= 1";
  if conf.batch < 1 then invalid_arg "Fleet.run: batch must be >= 1";
  let base = conf.base in
  if base.Scheduler.servers < 1 then
    invalid_arg "Fleet.run: servers must be >= 1";
  if base.Scheduler.queue_bound < 0 then
    invalid_arg "Fleet.run: negative queue bound";
  if base.Scheduler.breaker < 0 then
    invalid_arg "Fleet.run: negative breaker threshold";
  if base.Scheduler.window <= 0.0 then
    invalid_arg "Fleet.run: window must be > 0";
  if conf.decay < 0 then invalid_arg "Fleet.run: negative affinity decay";
  (* heterogeneity: each shard carries a device config, the [devices]
     list cycled across shard ids; [] keeps the pre-zoo homogeneous
     fleet on the base device.  Every config re-validates here so a
     hand-built impossible device fails before any request moves. *)
  List.iter
    (fun d -> ignore (Gpusim.Config.checked d : Gpusim.Config.t))
    conf.devices;
  let devs =
    let n = List.length conf.devices in
    Array.init conf.shards (fun sid ->
        if n = 0 then base.Scheduler.cfg else List.nth conf.devices (sid mod n))
  in
  let devnames =
    (* distinct device names, sorted: the affinity cost table and the
       exploration hash are keyed on names, never shard ids, so every
       placement decision is invariant under permuting the device
       multiset across shards *)
    List.sort_uniq String.compare
      (Array.to_list (Array.map (fun (d : Gpusim.Config.t) -> d.Gpusim.Config.name) devs))
  in
  let hetero = List.length devnames > 1 in
  let ring = make_ring conf.shards in
  (* Device-group sub-rings label their vnodes by (device name, member
     index within the group), not by raw shard id: the content ->
     group-member mapping is then invariant under shuffling the device
     multiset across shard ids, which is what makes heterogeneous
     results shuffle-invariant (the member's id changes, its workload
     does not). *)
  let group_points dn =
    let sids =
      Array.of_list
        (List.filter
           (fun sid -> devs.(sid).Gpusim.Config.name = dn)
           (List.init conf.shards Fun.id))
    in
    Array.init
      (Array.length sids * ring_points)
      (fun i ->
        let j = i / ring_points and v = i mod ring_points in
        ( hash_pos
            (Printf.sprintf "ompserve-dev-%s-member-%d-vnode-%d" dn j v),
          sids.(j) ))
  in
  let subrings : (string, (int * int) array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun dn ->
      let a = group_points dn in
      Array.sort compare a;
      Hashtbl.add subrings dn a)
    devnames;
  let subring dn = Hashtbl.find subrings dn in
  let dev_by_name : (string, Gpusim.Config.t) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (d : Gpusim.Config.t) ->
      if not (Hashtbl.mem dev_by_name d.Gpusim.Config.name) then
        Hashtbl.add dev_by_name d.Gpusim.Config.name d)
    devs;
  (* A device can host a request only if the launch geometry fits: the
     thread count must be a positive multiple of ITS warp width (warp
     widths differ across the zoo) within its block limit, and the
     simdlen must divide that warp.  Placement and stealing both
     respect this, so a 32-thread request never lands on a 64-lane
     wavefront device that would reject the launch. *)
  let fits_name dn clauses =
    Result.is_ok
      (Clause.check_geometry ~cfg:(Hashtbl.find dev_by_name dn) clauses)
  in
  (* rings over unions of device groups (for hetero fleets with
     affinity off, or when geometry rules out some groups): the union
     of the groups' member-labelled points, so these too are invariant
     under device shuffles; built lazily, memoized by the name list *)
  let union_rings : (string, (int * int) array) Hashtbl.t = Hashtbl.create 4 in
  let ring_for names =
    let key = String.concat "," names in
    match Hashtbl.find_opt union_rings key with
    | Some r -> r
    | None ->
        let r = Array.concat (List.map group_points names) in
        Array.sort compare r;
        Hashtbl.add union_rings key r;
        r
  in
  (* Member labels: a shard is named by its device and its index within
     that device's group (in shard-id order) — "smX/j", the same j that
     labels the group sub-ring's vnodes.  Telemetry emits and the
     autoscaler contends for pool tokens in label order, never shard-id
     order, so both replay byte-identically under device shuffles. *)
  let labels =
    let seen : (string, int) Hashtbl.t = Hashtbl.create 8 in
    Array.map
      (fun (d : Gpusim.Config.t) ->
        let dn = d.Gpusim.Config.name in
        let j = Option.value ~default:0 (Hashtbl.find_opt seen dn) in
        Hashtbl.replace seen dn (j + 1);
        Printf.sprintf "%s/%d" dn j)
      devs
  in
  let label_order =
    let o = Array.init conf.shards Fun.id in
    Array.sort (fun a b -> String.compare labels.(a) labels.(b)) o;
    o
  in
  let slo = base.Scheduler.slo in
  (* 512 retained latency samples per shard per window: enough for a
     stable windowed p99 at serve rates, bounded so a flash crowd can't
     grow the collector *)
  let tele =
    Telemetry.create
      {
        Telemetry.window = base.Scheduler.window;
        ring = 512;
        emit = conf.telemetry;
      }
      ~labels ~base_conc:base.Scheduler.servers
  in
  let asc = Autoscale.create conf.autoscale ~shards:conf.shards in
  (* Effective p99 per shard / fleet-wide, carried across sample-less
     windows: a saturated shard that completed nothing keeps its last
     measured percentile (it did not get healthier by stalling); only a
     genuinely idle one (empty queue, no busy executor) resets to 0. *)
  let carry = Array.make conf.shards 0.0 in
  let carry_fleet = ref 0.0 in
  let shedding = ref false in
  (* per-(content, device-name) observed member cycles; the affinity
     estimator is the *minimum* observed exec, not a moving average:
     min is commutative and idempotent, so the table's state at any
     virtual instant is a pure function of the set of finishes before
     it — simultaneous finishes can process in any order without
     perturbing a single placement decision.  With [decay] > 0 the
     minima are kept per telemetry window and entries older than the
     horizon expire lazily: a device unmeasured for [decay] windows
     costs 0.0 again and gets re-explored, so a nonstationary trace
     can walk away from a stale optimum.  The window index is a pure
     function of virtual time, so expiry preserves every determinism
     and shuffle-invariance property of the all-time table. *)
  let aff : (int * string, (int * float) list ref) Hashtbl.t = Hashtbl.create 64 in
  let wix now =
    if conf.decay = 0 then 0
    else int_of_float (now /. base.Scheduler.window)
  in
  let prune_entries now l =
    if conf.decay = 0 then l
    else
      let cur = wix now in
      List.filter (fun (w, _) -> w > cur - conf.decay) l
  in
  let observe_exec now cid dn exec =
    let k = (cid, dn) in
    let w = wix now in
    let r =
      match Hashtbl.find_opt aff k with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.add aff k r;
          r
    in
    let live = prune_entries now !r in
    r :=
      (match List.assoc_opt w live with
      | Some c when c <= exec -> live
      | Some _ -> (w, exec) :: List.remove_assoc w live
      | None -> (w, exec) :: live)
  in
  let aff_cost now cid dn =
    match Hashtbl.find_opt aff (cid, dn) with
    | None -> 0.0
    | Some r -> (
        match prune_entries now !r with
        | [] -> 0.0
        | live ->
            r := live;
            List.fold_left (fun acc (_, c) -> Float.min acc c) infinity live)
  in
  let cache = Cache.create ~capacity:base.Scheduler.cache_capacity in
  let shards =
    Array.init conf.shards (fun sid ->
        {
          sid;
          queue = [];
          conc = base.Scheduler.servers;
          busy = 0;
          breakers =
            Breaker.create ~threshold:base.Scheduler.breaker
              ~backoff:base.Scheduler.backoff;
          s_placed = 0;
          s_queue_max = 0;
          s_launches = 0;
          s_batches = 0;
          s_batched_requests = 0;
          s_steals = 0;
          s_breaker_opens = 0;
          s_retries = 0;
          s_relaunches = 0;
        })
  in
  let reports = ref [] in
  let retries = ref 0 in
  let inflight_max = ref 0 in
  let launches = ref 0 in
  let blocks = ref 0 in
  let sim_cycles = ref 0.0 in
  let global_loads = ref 0 in
  let global_stores = ref 0 in
  let atomics = ref 0 in
  let device_failures = ref 0 in
  let relaunches = ref 0 in
  let recovered = ref 0 in
  let breaker_opens = ref 0 in
  let autoscale_grows = ref 0 in
  let autoscale_shrinks = ref 0 in
  let breaker_reopens = ref 0 in
  let fault_stats = ref Gpusim.Fault.zero_stats in
  let last_time = ref 0.0 in
  let memo_hits = ref 0 in
  let affinity_moves = ref 0 in
  let tenant_evictions = ref 0 in
  let evictions_by_tenant : (string, int) Hashtbl.t = Hashtbl.create 8 in
  (* virtual single-flight: the compile service is fleet-shared, like
     the host artifact cache — a shard can join a neighbour's window *)
  let compiling : (int, float) Hashtbl.t = Hashtbl.create 16 in
  (* Launch memo, keyed by content id, geometry, size, data seed and
     device name; only consulted with faults disarmed. *)
  let memo : (int * int * int * int * int * int * string, member) Hashtbl.t =
    Hashtbl.create 64
  in
  let faults_armed =
    match pool with
    | Some p -> Option.is_some (Gpusim.Pool.faults p)
    | None -> false
  in
  (* Content ids.  The content key is a pure function of (template,
     size, guardize) under this run's fixed knobs, but computing one
     rebuilds and re-digests the instantiated IR — which unrolls with
     the size on chain-style kernels — so it is computed once per
     triple, and each distinct key string is interned to an int the
     first time it is seen.  Everything keyed on content (batching
     compatibility, the launch memo, the affinity table, the compile
     cache and the breakers) keys on that int: within one run every
     compile knob is fixed, so the id stands
     for the cache key exactly.  The key's ring position is cached
     beside it, so placement pays no MD5 per request either. *)
  let cids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let ckey_memo : (string * int * bool, int * int) Hashtbl.t = Hashtbl.create 16 in
  let ckey_of (spec : Request.spec) =
    let k = (spec.Request.kernel, spec.Request.size, spec.Request.guardize) in
    match Hashtbl.find_opt ckey_memo k with
    | Some c -> c
    | None ->
        let key = content_key ~knobs:base.Scheduler.knobs spec in
        let cid =
          match Hashtbl.find_opt cids key with
          | Some cid -> cid
          | None ->
              let cid = Hashtbl.length cids in
              Hashtbl.add cids key cid;
              cid
        in
        let c = (cid, hash_pos key) in
        Hashtbl.add ckey_memo k c;
        c
  in
  (* one launch-clause chain per launch geometry, shared by every
     request with that geometry *)
  let geometries = Hashtbl.create 8 in
  let clauses_for (spec : Request.spec) =
    let key = (spec.Request.teams, spec.Request.threads, spec.Request.simdlen) in
    match Hashtbl.find_opt geometries key with
    | Some c -> c
    | None ->
        let c = clauses_of spec in
        Hashtbl.add geometries key c;
        c
  in
  (* Every trace arrival is known now: the heap holds them in its
     sorted seed (rank 1, seq 1..n in list order), and only dynamic
     events — finishes, retry arrivals, relaunches — are pushed. *)
  let heap =
    Eheap.seeded ~rank:1
      (List.map
         (fun (spec : Request.spec) ->
           if not (Float.is_finite spec.Request.at) then
             invalid_arg
               (Printf.sprintf "Fleet.run: request %d arrives at non-finite time %g"
                  spec.Request.id spec.Request.at);
           if spec.Request.at /. base.Scheduler.window > max_windows then
             invalid_arg
               (Printf.sprintf
                  "Fleet.run: request %d arrives at %g ticks, in window %.17g \
                   of %g ticks (at most %.0f windows)"
                  spec.Request.id spec.Request.at
                  (Float.floor (spec.Request.at /. base.Scheduler.window))
                  base.Scheduler.window max_windows);
           let cid, chash = ckey_of spec in
           ( spec.Request.at,
             Arrive
               {
                 spec;
                 attempts = 1;
                 launches = 0;
                 home = place_hash ring chash;
                 cid;
                 chash;
                 stolen = false;
                 relaunched = false;
                 clauses = clauses_for spec;
               } ))
         specs)
  in
  (* every record call is a terminal outcome: the report list and the
     telemetry stream see exactly the same events *)
  let record r =
    reports := r :: !reports;
    Telemetry.observe_terminal tele ~shard:r.shard r.outcome ~latency:r.latency
      ~slo
  in
  let zero_counters = Counters.create () in
  let never_ran ~shard (p : pending) outcome now =
    {
      spec = p.spec;
      shard;
      outcome;
      attempts = p.attempts;
      launches = p.launches;
      batched = 0;
      stolen = p.stolen;
      start = -1.0;
      finish = now;
      latency = now -. p.spec.Request.at;
      compile_ticks = 0.0;
      exec_ticks = 0.0;
      cache = Scheduler.C_none;
      checksum = 0.0;
      counters = zero_counters;
    }
  in
  (* per-shard breakers: a flaky kernel opens its breaker where it
     runs, neighbours keep serving it *)
  let breaker_fail (s : shard_state) key now =
    if Breaker.failure s.breakers key ~now then begin
      incr breaker_opens;
      s.s_breaker_opens <- s.s_breaker_opens + 1
    end
  in
  (* --- queue plumbing --------------------------------------------------- *)
  let better (a : pending) (b : pending) =
    let x = a.spec and y = b.spec in
    x.Request.priority > y.Request.priority
    || (x.Request.priority = y.Request.priority
       && (x.Request.at < y.Request.at
          || (x.Request.at = y.Request.at && x.Request.id < y.Request.id)))
  in
  (* Take [p] (physically) out of the queue; the rest keep their order. *)
  let remove (s : shard_state) (p : pending) =
    let rec drop = function
      | [] -> []
      | q :: rest -> if q == p then rest else q :: drop rest
    in
    s.queue <- drop s.queue
  in
  let pop_queue (s : shard_state) =
    match s.queue with
    | [] -> None
    | first :: rest ->
        let best =
          List.fold_left (fun best p -> if better p best then p else best) first rest
        in
        remove s best;
        Some best
  in
  let enqueue (s : shard_state) p =
    s.queue <- p :: s.queue;
    let depth = List.length s.queue in
    s.s_queue_max <- max s.s_queue_max depth;
    Telemetry.observe_queue_depth tele ~shard:s.sid depth
  in
  let expired (p : pending) now =
    match p.spec.Request.deadline with Some d when now >= d -> true | _ -> false
  in
  (* admission failure (full queue / fairness loss): retry with
     exponential backoff, shared by newcomers and evictees *)
  let retry_or_drop ~shard now (p : pending) =
    if p.attempts <= base.Scheduler.max_retries then begin
      incr retries;
      shards.(shard).s_retries <- shards.(shard).s_retries + 1;
      let wait =
        base.Scheduler.backoff *. (2.0 ** float_of_int (p.attempts - 1))
      in
      Eheap.push heap (now +. wait) 1 (Arrive { p with attempts = p.attempts + 1 })
    end
    else
      record
        (never_ran ~shard p
           (if base.Scheduler.max_retries = 0 then Scheduler.Rejected
            else Scheduler.Shed)
           now)
  in
  (* --- weighted-fair eviction ------------------------------------------ *)
  (* Occupancy of tenant t on this queue, over its weight: the tenant
     maximizing occ/weight is the hog.  Integer cross-multiplication
     keeps the comparison exact; ties break toward the lexicographically
     greater name so the decision is total. *)
  let fair_victim_tenant (s : shard_state) =
    let occ : (string, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (p : pending) ->
        let t = p.spec.Request.tenant in
        Hashtbl.replace occ t (1 + Option.value ~default:0 (Hashtbl.find_opt occ t)))
      s.queue;
    Hashtbl.fold
      (fun t o best ->
        let w = weight_of conf t in
        match best with
        | None -> Some (t, o, w)
        | Some (bt, bo, bw) ->
            if
              o * bw > bo * w
              || (o * bw = bo * w && String.compare t bt > 0)
            then Some (t, o, w)
            else best)
      occ None
  in
  (* the newest non-relaunched entry of the victim tenant (the queue
     list is push-front, so the first match from the head is newest) *)
  let evict_newest_of (s : shard_state) tenant =
    let victim =
      List.find_opt
        (fun (p : pending) -> p.spec.Request.tenant = tenant && not p.relaunched)
        s.queue
    in
    Option.iter (remove s) victim;
    victim
  in
  (* --- placement --------------------------------------------------------- *)
  (* Where a (re-)arrival lands.  A [device=] pin wins when some shard
     carries it; then the affinity table picks the device name whose
     observed cost for this content is lowest (unmeasured devices cost
     0.0, so every device gets explored before any is ruled out), and
     the device group's sub-ring picks the shard.  Exploration ties
     break by hashing the content key over the tied *names* — never a
     shard id — so the request->device assignment, and with it every
     launch result, is invariant under shuffling the device multiset
     across shard ids. *)
  let place_for now (p : pending) =
    if not hetero then place_hash ring p.chash
    else begin
      let cands = List.filter (fun dn -> fits_name dn p.clauses) devnames in
      (* no device fits: fall through to the plain ring and let the
         launch fail exactly as a homogeneous fleet would *)
      let cands = if cands = [] then devnames else cands in
      let pinned =
        match p.spec.Request.device with
        | Some dn when List.mem dn cands -> Some dn
        | _ -> None
      in
      match pinned with
      | Some dn -> place_hash (subring dn) p.chash
      | None ->
          if not conf.affinity then place_hash (ring_for cands) p.chash
          else begin
            let costs =
              List.map (fun dn -> (dn, aff_cost now p.cid dn)) cands
            in
            let best =
              List.fold_left (fun acc (_, c) -> Float.min acc c) infinity costs
            in
            let tied = List.filter (fun (_, c) -> c = best) costs in
            let dn, _ = List.nth tied (p.chash mod List.length tied) in
            place_hash (subring dn) p.chash
          end
    end
  in
  (* --- launching -------------------------------------------------------- *)
  let real_launch ~cfg compiled (p : pending) =
    let _kernel, bindings, out = Request.instantiate p.spec in
    let spec = p.spec in
    let nonce = nonce_for spec ~launches:p.launches in
    match Offload.run ~cfg ?pool ~nonce ~clauses:p.clauses ~bindings compiled with
    | report ->
        {
          m_pending = { p with launches = p.launches + 1 };
          m_exec = report.Gpusim.Device.time_cycles;
          m_failed = report.Gpusim.Device.failures <> [];
          m_checksum = Request.checksum out;
          m_grid = report.Gpusim.Device.grid;
          m_counters = report.Gpusim.Device.counters;
          m_faults = report.Gpusim.Device.faults;
        }
    | exception Gpusim.Engine.Deadlock _ ->
        {
          m_pending = { p with launches = p.launches + 1 };
          m_exec = 0.0;
          m_failed = true;
          m_checksum = 0.0;
          m_grid = 0;
          m_counters = zero_counters;
          m_faults = Gpusim.Fault.zero_stats;
        }
  in
  let launch_member (s : shard_state) compiled (p : pending) =
    let cfg = devs.(s.sid) in
    (* the memo keys on content *and* device: exec cycles (and under a
       zoo config, occupancy and counters) are functions of the device,
       so a result observed on one config must never serve another *)
    let spec = p.spec in
    let mkey =
      ( p.cid,
        spec.Request.teams,
        spec.Request.threads,
        spec.Request.simdlen,
        spec.Request.size,
        spec.Request.seed,
        cfg.Gpusim.Config.name )
    in
    if conf.memo && not faults_armed then
      match Hashtbl.find_opt memo mkey with
      | Some m ->
          incr memo_hits;
          (* the memo stores content results; pending bookkeeping
             (attempts, shard, steal provenance) is this request's own *)
          { m with m_pending = { p with launches = p.launches + 1 } }
      | None ->
          let m = real_launch ~cfg compiled p in
          (* a failed result is still memoizable: with no fault plan
             armed, failure (watchdog, genuine deadlock) is as
             deterministic as success *)
          Hashtbl.add memo mkey m;
          m
    else real_launch ~cfg compiled p
  in
  let account (s : shard_state) (m : member) =
    incr launches;
    s.s_launches <- s.s_launches + 1;
    Telemetry.observe_launch tele ~shard:s.sid ~failed:m.m_failed;
    blocks := !blocks + m.m_grid;
    sim_cycles := !sim_cycles +. m.m_exec;
    global_loads := !global_loads + m.m_counters.Counters.global_loads;
    global_stores := !global_stores + m.m_counters.Counters.global_stores;
    atomics := !atomics + m.m_counters.Counters.atomics;
    fault_stats := Gpusim.Fault.add_stats !fault_stats m.m_faults;
    if m.m_failed then incr device_failures
  in
  (* Dispatch [members] (leader first) as one merged grid on [s]; the
     caller has checked the leader's geometry ([clauses]), which its
     mates share.  Consumes one server unless the compile fails, or the
     kernel's sharing space (known only once it compiled) does not fit
     the device, which ends every member as Failed.  Such a content id never
     launches there, so its breaker stays closed, admits it without a
     state change and never makes it a probe. *)
  let start_batch now (s : shard_state) ~clauses (members_p : pending list) =
    let leader = List.hd members_p in
    let knobs =
      { base.Scheduler.knobs with Offload.guardize = leader.spec.Request.guardize }
    in
    (* the IR is only needed to compile (a miss) or to price the compile
       charge (also a miss); warm dispatches go through the content id *)
    let kernel = lazy (Request.kernel_of_spec leader.spec) in
    let key = leader.cid in
    let fail_all () =
      List.iter
        (fun p -> record (never_ran ~shard:s.sid p Scheduler.Failed now))
        members_p
    in
    match
      Cache.find_or_compile cache ~key ~compile:(fun () ->
          Offload.compile_with ~knobs (Lazy.force kernel))
    with
    | _, Error _ -> fail_all ()
    | _, Ok compiled
      when Result.is_error
             (Offload.check_sharing ~cfg:devs.(s.sid) ~clauses compiled) ->
        (* the kernel's sharing space does not fit the device: like a
           compile error, no launch *)
        fail_all ()
    | status, Ok compiled ->
        let b_cache, b_compile =
          match status with
          | `Miss ->
              let c = Scheduler.compile_cost (Lazy.force kernel) in
              Hashtbl.replace compiling key (now +. c);
              (Scheduler.C_miss, c)
          | `Hit | `Joined -> (
              match Hashtbl.find_opt compiling key with
              | Some done_at when done_at > now ->
                  (Scheduler.C_join, done_at -. now)
              | _ -> (Scheduler.C_hit, 0.0))
        in
        Telemetry.observe_cache tele ~shard:s.sid
          ~hit:(b_cache <> Scheduler.C_miss);
        let members = List.map (launch_member s compiled) members_p in
        List.iter (account s) members;
        let k = List.length members in
        if k >= 2 then begin
          s.s_batches <- s.s_batches + 1;
          s.s_batched_requests <- s.s_batched_requests + k
        end;
        let b_exec =
          List.fold_left (fun acc m -> max acc m.m_exec) 0.0 members
          +. (merge_overhead *. float_of_int (k - 1))
        in
        s.busy <- s.busy + 1;
        let busy = Array.fold_left (fun acc sh -> acc + sh.busy) 0 shards in
        inflight_max := max !inflight_max busy;
        Eheap.push heap
          (now +. b_compile +. b_exec)
          0
          (Finish
             {
               b_shard = s.sid;
               b_members = members;
               b_started = now;
               b_compile;
               b_cache;
               b_cid = key;
             })
  in
  (* Pull up to [batch - 1] same-content same-geometry mates out of the
     shard's own queue, best-first; deadline-expired entries are left
     behind for their own dispatch to time out.  The entries left keep
     their push-front order, which [evict_newest_of] reads as age. *)
  let take_batch (s : shard_state) (leader : pending) now =
    if conf.batch <= 1 then []
    else begin
      let compatible =
        List.filter
          (fun (p : pending) -> same_shape p leader && not (expired p now))
          s.queue
      in
      let ordered = List.sort (fun a b -> if better a b then -1 else 1) compatible in
      let mates = List.filteri (fun i _ -> i < conf.batch - 1) ordered in
      List.iter (remove s) mates;
      mates
    end
  in
  (* The deepest neighbour queue, ties to the lowest shard id.  On a
     heterogeneous fleet stealing is a device-group affair: a thief
     only raids shards carrying its own device — a foreign-width warp
     could not launch the work anyway, and a cross-device steal would
     make the executing device (and so the request's cycles) depend on
     shard numbering, breaking shuffle invariance. *)
  let steal_from (s : shard_state) =
    if not conf.steal then None
    else begin
      let raidable (v : shard_state) =
        (not hetero)
        || devs.(v.sid).Gpusim.Config.name = devs.(s.sid).Gpusim.Config.name
      in
      let victim = ref None in
      Array.iter
        (fun (v : shard_state) ->
          if v.sid <> s.sid && raidable v then
            let depth = List.length v.queue in
            if depth > 0 then
              match !victim with
              | Some (_, best) when best >= depth -> ()
              | _ -> victim := Some (v, depth))
        shards;
      match !victim with
      | None -> None
      | Some (v, _) -> (
          match pop_queue v with
          | None -> None
          | Some p ->
              s.s_steals <- s.s_steals + 1;
              Telemetry.observe_steal tele ~shard:s.sid;
              Some { p with stolen = true })
    end
  in
  let rec dispatch now (s : shard_state) =
    if s.busy < s.conc then begin
      let candidate =
        match pop_queue s with Some p -> Some p | None -> steal_from s
      in
      match candidate with
      | None -> ()
      | Some p ->
          (if expired p now then
             record (never_ran ~shard:s.sid p Scheduler.Timed_out now)
           else
             let clauses = p.clauses in
             if
               (* a geometry this shard's device cannot run fails before
                  the breaker is asked, so it never takes the probe slot *)
               Result.is_error (Clause.check_geometry ~cfg:devs.(s.sid) clauses)
             then record (never_ran ~shard:s.sid p Scheduler.Failed now)
             else
               match Breaker.admit s.breakers p.cid ~now with
               | `Shed -> record (never_ran ~shard:s.sid p Scheduler.Degraded now)
               | `Probe ->
                   (* the half-open probe flies alone: one launch decides
                      whether the breaker closes, a full batch should not
                      ride on it *)
                   start_batch now s ~clauses [ p ]
               | `Admit ->
                   let mates = if p.stolen then [] else take_batch s p now in
                   start_batch now s ~clauses (p :: mates));
          dispatch now s
    end
  in
  (* Is the newcomer's tenant already over its weighted share of its
     home queue?  occ / depth > weight / total-weight, cross-multiplied
     exact, over the tenants actually queued. *)
  let over_share (s : shard_state) (p : pending) =
    let depth = List.length s.queue in
    depth > 0
    &&
    let t = p.spec.Request.tenant in
    let occ =
      List.length
        (List.filter (fun (q : pending) -> q.spec.Request.tenant = t) s.queue)
    in
    occ > 0
    &&
    let names =
      List.sort_uniq String.compare
        (List.map (fun (q : pending) -> q.spec.Request.tenant) s.queue)
    in
    let total_w = List.fold_left (fun a n -> a + weight_of conf n) 0 names in
    occ * total_w > weight_of conf t * depth
  in
  let arrive now (p : pending) =
    (* placement happens at arrival-processing time, not trace-seed
       time: a retry re-places, so a content key whose cheap device was
       discovered between attempts migrates on its next arrival *)
    let home = place_for now p in
    if p.attempts = 1 && not p.relaunched then begin
      shards.(home).s_placed <- shards.(home).s_placed + 1;
      if home <> place_hash ring p.chash then incr affinity_moves
    end;
    let p = { p with home } in
    let s = shards.(p.home) in
    (* SLO-aware admission: while the fleet's windowed p99 is over the
       target, the lowest-priority class — and any tenant already over
       its fair share of its home queue — is turned away with the
       explicit Shed_slo outcome.  Relaunches are exempt: recovery
       never loses an accepted request. *)
    if
      !shedding
      && (not p.relaunched)
      && (p.spec.Request.priority <= 0 || over_share s p)
    then record (never_ran ~shard:s.sid p Scheduler.Shed_slo now)
      (* executor headroom + empty queue: admit past the bound — the
         sweep below dispatches it immediately, so it never really
         queues *)
    else if s.busy < s.conc && s.queue = [] then enqueue s p
    else if List.length s.queue < base.Scheduler.queue_bound then enqueue s p
    else begin
      (* full queue: the weighted-fair decision *)
      match fair_victim_tenant s with
      | None -> retry_or_drop ~shard:s.sid now p
      | Some (vt, vo, vw) ->
          let nt = p.spec.Request.tenant in
          let nw = weight_of conf nt in
          let n_occ =
            1
            + List.length
                (List.filter
                   (fun (q : pending) -> q.spec.Request.tenant = nt)
                   s.queue)
          in
          (* the newcomer (with its prospective slot) at least as
             over-share as the hog: it is the hog — turn it away *)
          if n_occ * vw >= vo * nw then retry_or_drop ~shard:s.sid now p
          else begin
            match evict_newest_of s vt with
            | None -> retry_or_drop ~shard:s.sid now p
            | Some victim ->
                incr tenant_evictions;
                Hashtbl.replace evictions_by_tenant vt
                  (1
                  + Option.value ~default:0
                      (Hashtbl.find_opt evictions_by_tenant vt));
                retry_or_drop ~shard:s.sid now victim;
                enqueue s p
          end
    end
  in
  let relaunch now sid (p : pending) =
    let s = shards.(sid) in
    if expired p now then record (never_ran ~shard:sid p Scheduler.Timed_out now)
    else
      (* recovery re-enters past the admission bound: the request was
         already accepted *)
      enqueue s { p with relaunched = true }
  in
  let finish now (b : batch_run) =
    let s = shards.(b.b_shard) in
    s.busy <- s.busy - 1;
    (* feed the affinity table: each healthy member's own cycles on
       this shard's device (memo replays feed the same value back —
       min is idempotent) *)
    let dn = devs.(b.b_shard).Gpusim.Config.name in
    List.iter
      (fun (m : member) ->
        if not m.m_failed then observe_exec now m.m_pending.cid dn m.m_exec)
      b.b_members;
    let k = List.length b.b_members in
    List.iteri
      (fun i (m : member) ->
        let p = m.m_pending in
        let spec = p.spec in
        let cache_status =
          if i > 0 && b.b_cache = Scheduler.C_miss then Scheduler.C_join
          else b.b_cache
        in
        let finished outcome =
          record
            {
              spec;
              shard = s.sid;
              outcome;
              attempts = p.attempts;
              launches = p.launches;
              batched = k;
              stolen = p.stolen;
              start = b.b_started;
              finish = now;
              latency = now -. spec.Request.at;
              compile_ticks = b.b_compile;
              exec_ticks = m.m_exec;
              cache = cache_status;
              checksum = m.m_checksum;
              counters = m.m_counters;
            }
        in
        let past_deadline =
          match spec.Request.deadline with
          | Some d when now > d -> true
          | _ -> false
        in
        if not m.m_failed then begin
          Breaker.success s.breakers b.b_cid;
          if p.launches > 1 && not past_deadline then incr recovered;
          finished (if past_deadline then Scheduler.Timed_out else Scheduler.Completed)
        end
        else begin
          breaker_fail s b.b_cid now;
          if past_deadline then finished Scheduler.Timed_out
          else if p.launches <= base.Scheduler.max_retries then begin
            incr relaunches;
            s.s_relaunches <- s.s_relaunches + 1;
            Telemetry.observe_relaunch tele ~shard:s.sid;
            let wait =
              base.Scheduler.backoff *. (2.0 ** float_of_int (p.launches - 1))
            in
            Eheap.push heap (now +. wait) 1 (Relaunch (s.sid, p))
          end
          else finished Scheduler.Degraded
        end)
      b.b_members
  in
  (* Live shard state at a window boundary.  [advance] runs before the
     boundary-crossing event is processed, and every event strictly
     before the boundary already ran — so this is exactly the fleet's
     state at the boundary instant. *)
  let sample sid =
    let s = shards.(sid) in
    {
      Telemetry.sq_depth = List.length s.queue;
      sq_conc = s.conc;
      sq_busy = s.busy;
      sq_breakers_open = Breaker.open_count s.breakers;
    }
  in
  (* The control plane, evaluated once per closed telemetry window:
     effective-p99 carry, the SLO shedding flag, the autoscaler step,
     and the post-burst breaker fast-forward — then the window's
     fleet/control line, after the decisions it records. *)
  let on_close (w : Telemetry.window) =
    Array.iteri
      (fun sid (sw : Telemetry.shard_window) ->
        if sw.Telemetry.w_samples > 0 then carry.(sid) <- sw.Telemetry.w_p99
        else if
          sw.Telemetry.w_sample.Telemetry.sq_depth = 0
          && sw.Telemetry.w_sample.Telemetry.sq_busy = 0
        then carry.(sid) <- 0.0)
      w.Telemetry.per_shard;
    (match slo with
    | None -> ()
    | Some slo_v ->
        (if w.Telemetry.f_samples > 0 then carry_fleet := w.Telemetry.f_p99
         else if
           Array.for_all
             (fun (sw : Telemetry.shard_window) ->
               sw.Telemetry.w_sample.Telemetry.sq_depth = 0
               && sw.Telemetry.w_sample.Telemetry.sq_busy = 0)
             w.Telemetry.per_shard
         then carry_fleet := 0.0);
        shedding := conf.shed && !carry_fleet > slo_v);
    let grows = ref 0 and shrinks = ref 0 in
    let stats =
      Array.init conf.shards (fun sid ->
          {
            Autoscale.p99 = carry.(sid);
            queued = w.Telemetry.per_shard.(sid).Telemetry.w_sample.Telemetry.sq_depth;
            conc = shards.(sid).conc;
          })
    in
    List.iter
      (fun (a : Autoscale.action) ->
        let s = shards.(a.Autoscale.a_shard) in
        match a.Autoscale.a_verdict with
        | Autoscale.Grow ->
            s.conc <- s.conc + 1;
            incr grows;
            incr autoscale_grows
        | Autoscale.Shrink ->
            s.conc <- s.conc - 1;
            incr shrinks;
            incr autoscale_shrinks
        | Autoscale.Hold -> ())
      (Autoscale.step asc ~window:w.Telemetry.index ~order:label_order ~stats);
    (* A breaker-isolated fault burst that has passed leaves open
       breakers waiting out their full cooldown on a now-healthy shard.
       A window with zero device failures is the all-clear: fast-forward
       the shard's open breakers so their next dispatch is the half-open
       probe — success reopens the path immediately, failure re-opens
       the breaker as usual.  (Per-entry mutation + a count: iteration
       order over the table cannot matter.) *)
    let reopens = ref 0 in
    Array.iteri
      (fun sid (sw : Telemetry.shard_window) ->
        if sw.Telemetry.w_dev_failures = 0 then
          reopens :=
            !reopens
            + Breaker.fast_forward shards.(sid).breakers ~at:w.Telemetry.t1)
      w.Telemetry.per_shard;
    breaker_reopens := !breaker_reopens + !reopens;
    let conc_total = Array.fold_left (fun a s -> a + s.conc) 0 shards in
    let queued_total =
      Array.fold_left (fun a s -> a + List.length s.queue) 0 shards
    in
    let tenants_occ =
      let occ : (string, int) Hashtbl.t = Hashtbl.create 8 in
      Array.iter
        (fun s ->
          List.iter
            (fun (p : pending) ->
              let t = p.spec.Request.tenant in
              Hashtbl.replace occ t
                (1 + Option.value ~default:0 (Hashtbl.find_opt occ t)))
            s.queue)
        shards;
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) occ [])
    in
    Telemetry.emit_control tele w ~shedding:!shedding ~grows:!grows
      ~shrinks:!shrinks ~reopens:!reopens ~conc:conc_total
      ~pool_left:(Autoscale.pool_left asc) ~queued:queued_total
      ~tenants:tenants_occ
  in
  let rec loop () =
    match Eheap.pop heap with
    | None -> ()
    | Some (now, ev) ->
        last_time := max !last_time now;
        (* close every window the clock has crossed before the event
           runs: control decisions land exactly on the boundary *)
        Telemetry.advance tele now ~sample ~on_close;
        (match ev with
        | Arrive p -> arrive now p
        | Relaunch (sid, p) -> relaunch now sid p
        | Finish b -> finish now b);
        (* the work-conserving sweep: every event is a dispatch
           opportunity for the whole fleet, in shard order — an idle
           shard only ever sees foreign queues through this, so without
           it stealing could never fire (no shard gets events of its
           own while its queue is empty) *)
        Array.iter (dispatch now) shards;
        loop ()
  in
  loop ();
  Telemetry.finish tele ~sample ~on_close;
  let reports =
    List.sort
      (fun (a : rq_report) (b : rq_report) ->
        compare a.spec.Request.id b.spec.Request.id)
      !reports
  in
  (* --- aggregates -------------------------------------------------------- *)
  (* One pass over the id-ordered reports fills every outcome, cache,
     per-shard and per-tenant tally.  Completed latencies are collected,
     and each tenant's summed, in report order. *)
  let by_outcome = Array.make n_outcomes 0 in
  let shard_outcomes = Array.init conf.shards (fun _ -> Array.make n_outcomes 0) in
  let by_cache = Array.make 4 0 in
  let slo_violations = ref 0 in
  let completed_lat = ref [] in
  let tallies : (string, tally) Hashtbl.t = Hashtbl.create 8 in
  let tally_of t =
    match Hashtbl.find_opt tallies t with
    | Some x -> x
    | None ->
        let x = { outcomes = Array.make n_outcomes 0; lat_sum = 0.0 } in
        Hashtbl.add tallies t x;
        x
  in
  List.iter
    (fun (r : rq_report) ->
      let o = outcome_ix r.outcome in
      let tally = tally_of r.spec.Request.tenant in
      by_outcome.(o) <- by_outcome.(o) + 1;
      shard_outcomes.(r.shard).(o) <- shard_outcomes.(r.shard).(o) + 1;
      tally.outcomes.(o) <- tally.outcomes.(o) + 1;
      let c = cache_ix r.cache in
      by_cache.(c) <- by_cache.(c) + 1;
      if r.outcome = Scheduler.Completed then begin
        completed_lat := r.latency :: !completed_lat;
        tally.lat_sum <- tally.lat_sum +. r.latency;
        match slo with Some s when r.latency > s -> incr slo_violations | _ -> ()
      end)
    reports;
  let count o = by_outcome.(outcome_ix o) in
  let latencies = Array.of_list (List.rev !completed_lat) in
  let mean, p50, p95, p99 = Metrics.percentiles latencies in
  let cstat st = by_cache.(cache_ix st) in
  let queue_max =
    Array.fold_left (fun acc s -> max acc s.s_queue_max) 0 shards
  in
  let metrics =
    {
      Metrics.requests = List.length specs;
      completed = count Scheduler.Completed;
      rejected = count Scheduler.Rejected;
      shed = count Scheduler.Shed;
      shed_slo = count Scheduler.Shed_slo;
      timed_out = count Scheduler.Timed_out;
      failed = count Scheduler.Failed;
      retries = !retries;
      queue_max;
      inflight_max = !inflight_max;
      cache_hits = cstat Scheduler.C_hit;
      cache_misses = cstat Scheduler.C_miss;
      cache_evictions = (Cache.stats cache).Cache.evictions;
      cache_joins = cstat Scheduler.C_join;
      latency_mean = mean;
      latency_p50 = p50;
      latency_p95 = p95;
      latency_p99 = p99;
      makespan = !last_time;
      sim_cycles = !sim_cycles;
      launches = !launches;
      blocks = !blocks;
      global_loads = !global_loads;
      global_stores = !global_stores;
      atomics = !atomics;
      device_failures = !device_failures;
      relaunches = !relaunches;
      recovered = !recovered;
      degraded = count Scheduler.Degraded;
      breaker_opens = !breaker_opens;
      slo_violations = !slo_violations;
      autoscale_grows = !autoscale_grows;
      autoscale_shrinks = !autoscale_shrinks;
      breaker_reopens = !breaker_reopens;
      faults_corrected = !fault_stats.Gpusim.Fault.corrected;
      faults_fatal = !fault_stats.Gpusim.Fault.fatal;
      faults_stalls = !fault_stats.Gpusim.Fault.stalls;
      faults_exhausts = !fault_stats.Gpusim.Fault.exhausts;
      faults_watchdogs = !fault_stats.Gpusim.Fault.watchdogs;
    }
  in
  let shard_stats =
    Array.to_list
      (Array.map
         (fun (s : shard_state) ->
           let on_shard o = shard_outcomes.(s.sid).(outcome_ix o) in
           {
             Metrics.shard = s.sid;
             s_device = devs.(s.sid).Gpusim.Config.name;
             s_placed = s.s_placed;
             s_completed = on_shard Scheduler.Completed;
             s_shed = on_shard Scheduler.Rejected + on_shard Scheduler.Shed;
             s_shed_slo = on_shard Scheduler.Shed_slo;
             s_timed_out = on_shard Scheduler.Timed_out;
             s_degraded = on_shard Scheduler.Degraded;
             s_launches = s.s_launches;
             s_batches = s.s_batches;
             s_batched_requests = s.s_batched_requests;
             s_steals = s.s_steals;
             s_queue_max = s.s_queue_max;
             s_breaker_opens = s.s_breaker_opens;
             s_breakers_open = Breaker.open_count s.breakers;
             s_retries = s.s_retries;
             s_relaunches = s.s_relaunches;
             s_conc = s.conc;
           })
         shards)
  in
  let tenant_names =
    List.sort_uniq String.compare
      (Hashtbl.fold (fun t _ acc -> t :: acc) tallies [] @ List.map fst conf.tenants)
  in
  let tenant_stats =
    List.map
      (fun t ->
        let tally = tally_of t in
        let n o = tally.outcomes.(outcome_ix o) in
        let completed = n Scheduler.Completed in
        let lat_mean =
          if completed = 0 then 0.0 else tally.lat_sum /. float_of_int completed
        in
        {
          Metrics.tenant = t;
          weight = weight_of conf t;
          t_requests = Array.fold_left ( + ) 0 tally.outcomes;
          t_completed = completed;
          t_shed = n Scheduler.Rejected + n Scheduler.Shed;
          t_shed_slo = n Scheduler.Shed_slo;
          t_timed_out = n Scheduler.Timed_out;
          t_degraded = n Scheduler.Degraded;
          t_evicted =
            Option.value ~default:0 (Hashtbl.find_opt evictions_by_tenant t);
          t_latency_mean = lat_mean;
        })
      tenant_names
  in
  let fleet =
    {
      batches = Array.fold_left (fun a s -> a + s.s_batches) 0 shards;
      batched_requests =
        Array.fold_left (fun a s -> a + s.s_batched_requests) 0 shards;
      steals = Array.fold_left (fun a s -> a + s.s_steals) 0 shards;
      tenant_evictions = !tenant_evictions;
      memo_hits = !memo_hits;
      affinity_moves = !affinity_moves;
    }
  in
  {
    reports;
    metrics;
    shard_stats;
    tenant_stats;
    fleet;
    telemetry = Telemetry.jsonl tele;
  }

(* --- rendering ---------------------------------------------------------- *)

let report_line (r : rq_report) =
  let spec = r.spec in
  Printf.sprintf
    "req %3d %-8s size=%-3d prio=%d tenant=%-6s shard=%d%s batch=%d %-9s attempts=%d launches=%d cache=%-4s arrive=%.1f start=%.1f finish=%.1f latency=%.1f compile=%.1f exec=%.1f checksum=%Lx"
    spec.Request.id spec.Request.kernel spec.Request.size spec.Request.priority
    spec.Request.tenant r.shard
    (if r.stolen then "*" else "")
    r.batched
    (Scheduler.outcome_to_string r.outcome)
    r.attempts r.launches
    (Scheduler.cache_status_to_string r.cache)
    spec.Request.at r.start r.finish r.latency r.compile_ticks r.exec_ticks
    (Int64.bits_of_float r.checksum)

let report_json (r : rq_report) =
  let spec = r.spec in
  Printf.sprintf
    "{\"id\": %d, \"kernel\": \"%s\", \"size\": %d, \"prio\": %d, \"tenant\": \"%s\", \"shard\": %d, \"stolen\": %b, \"batch\": %d, \"outcome\": \"%s\", \"attempts\": %d, \"launches\": %d, \"cache\": \"%s\", \"arrive\": %.3f, \"start\": %.3f, \"finish\": %.3f, \"latency\": %.3f, \"compile\": %.3f, \"exec\": %.3f, \"checksum\": \"%Lx\"}"
    spec.Request.id spec.Request.kernel spec.Request.size spec.Request.priority
    spec.Request.tenant r.shard r.stolen r.batched
    (Scheduler.outcome_to_string r.outcome)
    r.attempts r.launches
    (Scheduler.cache_status_to_string r.cache)
    spec.Request.at r.start r.finish r.latency r.compile_ticks r.exec_ticks
    (Int64.bits_of_float r.checksum)

(* The placement/batch/steal-invariant core of a replay: what each
   request computed and how it ended, with no timing and no shard
   assignment.  For configs that lose no requests to admission (ample
   queues, no deadlines) this is byte-identical across shard counts
   and batch limits — the shape analogue of the snapshot's pool
   invariance. *)
let result_json (r : rq_report) =
  Printf.sprintf
    "{\"id\": %d, \"tenant\": \"%s\", \"outcome\": \"%s\", \"launches\": %d, \"exec\": %.3f, \"checksum\": \"%Lx\"}"
    r.spec.Request.id r.spec.Request.tenant
    (Scheduler.outcome_to_string r.outcome)
    r.launches r.exec_ticks
    (Int64.bits_of_float r.checksum)

let results_json reports =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"results\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (result_json r))
    reports;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let fleet_stats_json f =
  Printf.sprintf
    "{\"batches\": %d, \"batched_requests\": %d, \"steals\": %d, \"tenant_evictions\": %d, \"memo_hits\": %d, \"affinity_moves\": %d}"
    f.batches f.batched_requests f.steals f.tenant_evictions f.memo_hits
    f.affinity_moves

let snapshot_json conf (res : result) =
  let b = Buffer.create 8192 in
  let base = conf.base in
  Printf.ksprintf (Buffer.add_string b)
    "{\n\
     \"config\": {\"device\": \"%s\", \"devices\": \"%s\", \"affinity\": %b, \"decay\": %d, \"shards\": %d, \"batch\": %d, \"steal\": %b, \"memo\": %b, \"tenants\": \"%s\", \"queue_bound\": %d, \"servers\": %d, \"cache_capacity\": %d, \"max_retries\": %d, \"backoff\": %.3f, \"breaker\": %d, \"slo\": %s, \"window\": %.3f, \"shed\": %b, \"autoscale\": %b, \"budget\": %d, \"cooldown\": %d},\n"
    base.Scheduler.cfg.Gpusim.Config.name
    (String.concat ","
       (List.map (fun (d : Gpusim.Config.t) -> d.Gpusim.Config.name) conf.devices))
    conf.affinity conf.decay conf.shards conf.batch conf.steal conf.memo
    (String.concat ","
       (List.map (fun (t, w) -> Printf.sprintf "%s=%d" t w) conf.tenants))
    base.Scheduler.queue_bound base.Scheduler.servers
    base.Scheduler.cache_capacity base.Scheduler.max_retries
    base.Scheduler.backoff base.Scheduler.breaker
    (match base.Scheduler.slo with
    | None -> "null"
    | Some s -> Printf.sprintf "%.3f" s)
    base.Scheduler.window conf.shed conf.autoscale.Autoscale.enabled
    conf.autoscale.Autoscale.budget conf.autoscale.Autoscale.cooldown;
  Buffer.add_string b "\"requests\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (report_json r))
    res.reports;
  Buffer.add_string b "\n],\n\"shards\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Metrics.shard_stats_to_json s))
    res.shard_stats;
  Buffer.add_string b "\n],\n\"tenants\": [\n";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Metrics.tenant_stats_to_json t))
    res.tenant_stats;
  Buffer.add_string b "\n],\n\"fleet\": ";
  Buffer.add_string b (fleet_stats_json res.fleet);
  Buffer.add_string b ",\n\"metrics\": ";
  Buffer.add_string b (Metrics.to_json res.metrics);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let to_text (res : result) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Metrics.to_text res.metrics);
  let f = res.fleet in
  Printf.ksprintf (Buffer.add_string b)
    "  fleet       batches %d (members %d)  steals %d  tenant-evictions %d  memo-hits %d  affinity-moves %d\n"
    f.batches f.batched_requests f.steals f.tenant_evictions f.memo_hits
    f.affinity_moves;
  List.iter
    (fun s ->
      Buffer.add_string b "  ";
      Buffer.add_string b (Metrics.shard_stats_line s);
      Buffer.add_char b '\n')
    res.shard_stats;
  List.iter
    (fun t ->
      Buffer.add_string b "  ";
      Buffer.add_string b (Metrics.tenant_stats_line t);
      Buffer.add_char b '\n')
    res.tenant_stats;
  Buffer.contents b
