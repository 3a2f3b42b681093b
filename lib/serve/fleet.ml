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
   armed (relaunches must draw fresh faults).

   Each event is counted once, in its shard's (or tenant's) {!Tally},
   at the one site below where it happens.  The fleet-wide metrics are
   sums over the shard tallies, and a telemetry window's counts are a
   tally's change since the previous close.  [run] is one fleet-state
   record [t] and the functions below it, section by section:
   placement, admission, dispatch and batching, completion, the window
   control plane and aggregation. *)

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
  cid : int;  (* interned content identity: one int per distinct key *)
  chash : int;  (* [hash_pos] of the content key: its ring position *)
  tid : int;  (* tenant id: the tenant's rank in name order *)
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

(* --- fleet state -------------------------------------------------------- *)

(* the counters of a request that never ran *)
let zero_counters = Counters.create ()

type shard = {
  sid : int;
  mutable queue : pending list;
  mutable depth : int;  (* the queue's length, kept by [enqueue] and [remove] *)
  occ : int array;  (* queued entries per tenant id, kept likewise *)
  mutable queue_max : int;
  mutable conc : int;  (* concurrency target: servers + autoscaled extra *)
  mutable busy : int;  (* executors occupied; dispatch while busy < conc *)
  breakers : int Breaker.t;  (* keyed by content id *)
  tally : Tally.t;  (* this shard's events, each counted once *)
}

type tenant = {
  name : string;
  weight : int;  (* fair-admission weight *)
  t_tally : Tally.t;  (* its terminal outcomes and evictions *)
}

type t = {
  conf : config;
  base : Scheduler.config;
  pool : Gpusim.Pool.t option;
  ring : (int * int) array;  (* the plain content ring over every shard *)
  devs : Gpusim.Config.t array;  (* each shard's device, by shard id *)
  devnames : string list;
      (* distinct device names, sorted: the affinity cost table and the
         exploration hash are keyed on names, never shard ids, so every
         placement decision is invariant under permuting the device
         multiset across shards *)
  hetero : bool;
  rings : (string, (int * int) array) Hashtbl.t;
      (* rings over device groups: one group's sub-ring, or a union (for
         hetero fleets with affinity off, or when geometry rules out
         some groups), built lazily, memoized by the name list *)
  aff : (int * string, (int * float) list ref) Hashtbl.t;  (* see [observe_exec] *)
  shards : shard array;
  tenants : tenant array;  (* by tenant id: names in sorted order *)
  tenant_id : (string, int) Hashtbl.t;
  heap : event Eheap.t;
  tele : Telemetry.t;
  asc : Autoscale.t;
  cache : int Cache.t;  (* keyed by content id *)
  compiling : (int, float) Hashtbl.t;
      (* virtual single-flight: the compile service is fleet-shared,
         like the host artifact cache — a shard can join a neighbour's
         window *)
  memo : (int * int * int * int * int * int * string, member) Hashtbl.t;
      (* launch memo, keyed by content id, geometry, size, data seed
         and device name *)
  memo_on : bool;  (* [conf.memo], and no fault plan armed *)
  carry : float array;
  mutable carry_fleet : float;
      (* effective p99 per shard / fleet-wide, carried across
         sample-less windows: a saturated shard that completed nothing
         keeps its last measured percentile (it did not get healthier by
         stalling); only a genuinely idle one (empty queue, no busy
         executor) resets to 0 *)
  mutable shedding : bool;
  mutable reports : rq_report list;
  mutable busy_total : int;  (* executors occupied fleet-wide *)
  mutable inflight_max : int;
  mutable last_time : float;
  (* device totals folded from the member launches, in launch order *)
  mutable sim_cycles : float;
  mutable blocks : int;
  mutable global_loads : int;
  mutable global_stores : int;
  mutable atomics : int;
  mutable faults : Gpusim.Fault.stats;
  mutable parks : int;  (* real launches only: a memo hit parks no fiber *)
}

(* --- placement: rings and affinity ------------------------------------- *)

(* Device-group sub-rings label their vnodes by (device name, member
   index within the group), not by raw shard id: the content ->
   group-member mapping is then invariant under shuffling the device
   multiset across shard ids, which is what makes heterogeneous
   results shuffle-invariant (the member's id changes, its workload
   does not).  The union of several groups' points is invariant too. *)
let group_points devs dn =
  let sids =
    Array.of_list
      (List.filter
         (fun sid -> devs.(sid).Gpusim.Config.name = dn)
         (List.init (Array.length devs) Fun.id))
  in
  Array.init
    (Array.length sids * ring_points)
    (fun i ->
      let j = i / ring_points and v = i mod ring_points in
      ( hash_pos (Printf.sprintf "ompserve-dev-%s-member-%d-vnode-%d" dn j v),
        sids.(j) ))

let ring_for f names =
  let key = String.concat "," names in
  match Hashtbl.find_opt f.rings key with
  | Some r -> r
  | None ->
      let r = Array.concat (List.map (group_points f.devs) names) in
      Array.sort compare r;
      Hashtbl.add f.rings key r;
      r

(* A device can host a request only if the launch geometry fits: the
   thread count must be a positive multiple of ITS warp width (warp
   widths differ across the zoo) within its block limit, and the
   simdlen must divide that warp.  Placement and stealing both
   respect this, so a 32-thread request never lands on a 64-lane
   wavefront device that would reject the launch. *)
let fits_name f dn clauses =
  let cfg = Option.get (Array.find_opt (fun (d : Gpusim.Config.t) -> d.Gpusim.Config.name = dn) f.devs) in
  Result.is_ok (Clause.check_geometry ~cfg clauses)

(* The affinity estimator is the *minimum* observed exec, not a moving
   average: min is commutative and idempotent, so the table's state at
   any virtual instant is a pure function of the set of finishes before
   it — simultaneous finishes can process in any order without
   perturbing a single placement decision.  With [decay] > 0 the minima
   are kept per telemetry window and entries older than the horizon
   expire lazily: a device unmeasured for [decay] windows costs 0.0
   again and gets re-explored, so a nonstationary trace can walk away
   from a stale optimum.  The window index is a pure function of
   virtual time, so expiry preserves every determinism and
   shuffle-invariance property of the all-time table. *)
let wix f now =
  if f.conf.decay = 0 then 0
  else int_of_float (now /. f.base.Scheduler.window)

let prune_entries f now l =
  if f.conf.decay = 0 then l
  else
    let cur = wix f now in
    List.filter (fun (w, _) -> w > cur - f.conf.decay) l

let observe_exec f now cid dn exec =
  let k = (cid, dn) in
  let w = wix f now in
  let r =
    match Hashtbl.find_opt f.aff k with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add f.aff k r;
        r
  in
  let live = prune_entries f now !r in
  r :=
    match List.assoc_opt w live with
    | Some c when c <= exec -> live
    | Some _ -> (w, exec) :: List.remove_assoc w live
    | None -> (w, exec) :: live

let aff_cost f now cid dn =
  match Hashtbl.find_opt f.aff (cid, dn) with
  | None -> 0.0
  | Some r -> (
      match prune_entries f now !r with
      | [] -> 0.0
      | live ->
          r := live;
          List.fold_left (fun acc (_, c) -> Float.min acc c) infinity live)

(* Where a (re-)arrival lands.  A [device=] pin wins when some shard
   carries it; then the affinity table picks the device name whose
   observed cost for this content is lowest (unmeasured devices cost
   0.0, so every device gets explored before any is ruled out), and
   the device group's sub-ring picks the shard.  Exploration ties
   break by hashing the content key over the tied *names* — never a
   shard id — so the request->device assignment, and with it every
   launch result, is invariant under shuffling the device multiset
   across shard ids. *)
let place_for f now (p : pending) =
  if not f.hetero then place_hash f.ring p.chash
  else begin
    let cands = List.filter (fun dn -> fits_name f dn p.clauses) f.devnames in
    (* no device fits: fall through to the plain ring and let the
       launch fail exactly as a homogeneous fleet would *)
    let cands = if cands = [] then f.devnames else cands in
    let pinned =
      match p.spec.Request.device with
      | Some dn when List.mem dn cands -> Some dn
      | _ -> None
    in
    match pinned with
    | Some dn -> place_hash (ring_for f [ dn ]) p.chash
    | None ->
        if not f.conf.affinity then place_hash (ring_for f cands) p.chash
        else begin
          let costs = List.map (fun dn -> (dn, aff_cost f now p.cid dn)) cands in
          let best =
            List.fold_left (fun acc (_, c) -> Float.min acc c) infinity costs
          in
          let tied = List.filter (fun (_, c) -> c = best) costs in
          let dn, _ = List.nth tied (p.chash mod List.length tied) in
          place_hash (ring_for f [ dn ]) p.chash
        end
  end

(* Telemetry closes every window up to the clock, empty ones included,
   so an arrival a billion windows out would spin the replay through a
   billion empty windows: a trace must arrive within this many. *)
let max_windows = 1e6

(* Every trace arrival is known now: the heap holds them in its sorted
   seed (rank 1, seq 1..n in list order), and only dynamic events —
   finishes, retry arrivals, relaunches — are pushed.

   Content ids.  The content key is a pure function of (template, size,
   guardize) under this run's fixed knobs, but computing one rebuilds
   and re-digests the instantiated IR — which unrolls with the size on
   chain-style kernels — so it is computed once per triple, and each
   distinct key string is interned to an int the first time it is seen.
   Everything keyed on content (batching compatibility, the launch
   memo, the affinity table, the compile cache and the breakers) keys
   on that int: within one run every compile knob is fixed, so the id
   stands for the cache key exactly.  The key's ring position is cached
   beside it, so placement pays no MD5 per request either. *)
let seed_heap (conf : config) tenant_id specs =
  let base = conf.base in
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
               cid;
               chash;
               tid = Hashtbl.find tenant_id spec.Request.tenant;
               stolen = false;
               relaunched = false;
               clauses = clauses_for spec;
             } ))
       specs)

let create (conf : config) ?pool specs =
  let base = conf.base in
  if conf.shards < 1 then invalid_arg "Fleet.run: shards must be >= 1";
  if conf.batch < 1 then invalid_arg "Fleet.run: batch must be >= 1";
  if base.Scheduler.servers < 1 then
    invalid_arg "Fleet.run: servers must be >= 1";
  if base.Scheduler.queue_bound < 0 then
    invalid_arg "Fleet.run: negative queue bound";
  if base.Scheduler.breaker < 0 then
    invalid_arg "Fleet.run: negative breaker threshold";
  if base.Scheduler.window <= 0.0 then
    invalid_arg "Fleet.run: window must be > 0";
  if conf.decay < 0 then invalid_arg "Fleet.run: negative affinity decay";
  (* every device config re-validates here so a hand-built impossible
     device fails before any request moves *)
  List.iter
    (fun d -> ignore (Gpusim.Config.checked d : Gpusim.Config.t))
    conf.devices;
  (* heterogeneity: each shard carries a device config, the [devices]
     list cycled across shard ids; [] keeps the pre-zoo homogeneous
     fleet on the base device *)
  let devs =
    let n = List.length conf.devices in
    Array.init conf.shards (fun sid ->
        if n = 0 then base.Scheduler.cfg else List.nth conf.devices (sid mod n))
  in
  let devnames =
    List.sort_uniq String.compare
      (Array.to_list (Array.map (fun (d : Gpusim.Config.t) -> d.Gpusim.Config.name) devs))
  in
  let ring = make_ring conf.shards in
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
  let tenants =
    Array.of_list
      (List.map
         (fun name -> { name; weight = weight_of conf name; t_tally = Tally.create () })
         (List.sort_uniq String.compare
            (List.map (fun (s : Request.spec) -> s.Request.tenant) specs
            @ List.map fst conf.tenants)))
  in
  let tenant_id = Hashtbl.create 8 in
  Array.iteri (fun tid t -> Hashtbl.add tenant_id t.name tid) tenants;
  let shards =
    Array.init conf.shards (fun sid ->
        {
          sid;
          queue = [];
          depth = 0;
          occ = Array.make (Array.length tenants) 0;
          queue_max = 0;
          conc = base.Scheduler.servers;
          busy = 0;
          breakers =
            Breaker.create ~threshold:base.Scheduler.breaker
              ~backoff:base.Scheduler.backoff;
          tally = Tally.create ();
        })
  in
  let tele =
    Telemetry.create ~window:base.Scheduler.window ~emit:conf.telemetry ~labels
      ~tallies:(Array.map (fun s -> s.tally) shards)
      ~base_conc:base.Scheduler.servers
  in
  let asc = Autoscale.create conf.autoscale ~shards:conf.shards in
  let cache = Cache.create ~capacity:base.Scheduler.cache_capacity in
  let heap = seed_heap conf tenant_id specs in
  {
    conf;
    base;
    pool;
    ring;
    devs;
    devnames;
    hetero = List.length devnames > 1;
    rings = Hashtbl.create 8;
    aff = Hashtbl.create 64;
    shards;
    tenants;
    tenant_id;
    heap;
    tele;
    asc;
    cache;
    compiling = Hashtbl.create 16;
    memo = Hashtbl.create 64;
    memo_on = conf.memo && Option.is_none (Option.bind pool Gpusim.Pool.faults);
    carry = Array.make conf.shards 0.0;
    carry_fleet = 0.0;
    shedding = false;
    reports = [];
    busy_total = 0;
    inflight_max = 0;
    last_time = 0.0;
    sim_cycles = 0.0;
    blocks = 0;
    global_loads = 0;
    global_stores = 0;
    atomics = 0;
    faults = Gpusim.Fault.zero_stats;
    parks = 0;
  }

(* Every terminal outcome passes here, once: the report list, the
   shard's and the tenant's tallies and the window's latency samples
   all see exactly the same events. *)
let record f (p : pending) (r : rq_report) =
  f.reports <- r :: f.reports;
  let t = f.shards.(r.shard).tally in
  Tally.incr t (Tally.Outcome r.outcome);
  Tally.incr t (Tally.Cache r.cache);
  Tally.incr f.tenants.(p.tid).t_tally (Tally.Outcome r.outcome);
  if r.outcome = Scheduler.Completed then begin
    Telemetry.observe_latency f.tele ~shard:r.shard r.latency;
    match f.base.Scheduler.slo with
    | Some s when r.latency > s -> Tally.incr t Tally.Violation
    | _ -> ()
  end

(* A terminal outcome reached without (another) launch. *)
let never_ran f ~shard (p : pending) outcome now =
  record f p
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

(* per-shard breakers: a flaky kernel opens its breaker where it runs,
   neighbours keep serving it *)
let breaker_fail (s : shard) key now =
  if Breaker.failure s.breakers key ~now then Tally.incr s.tally Tally.Breaker_open

(* --- queue plumbing ----------------------------------------------------- *)

let better (a : pending) (b : pending) =
  let x = a.spec and y = b.spec in
  x.Request.priority > y.Request.priority
  || (x.Request.priority = y.Request.priority
     && (x.Request.at < y.Request.at
        || (x.Request.at = y.Request.at && x.Request.id < y.Request.id)))

(* Take [p] (physically) out of the queue; the rest keep their order. *)
let remove (s : shard) (p : pending) =
  let rec drop = function
    | [] -> []
    | q :: rest -> if q == p then rest else q :: drop rest
  in
  s.queue <- drop s.queue;
  s.depth <- s.depth - 1;
  s.occ.(p.tid) <- s.occ.(p.tid) - 1

let pop_queue (s : shard) =
  match s.queue with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left (fun best p -> if better p best then p else best) first rest
      in
      remove s best;
      Some best

let enqueue f (s : shard) (p : pending) =
  s.queue <- p :: s.queue;
  s.depth <- s.depth + 1;
  s.occ.(p.tid) <- s.occ.(p.tid) + 1;
  s.queue_max <- max s.queue_max s.depth;
  Telemetry.observe_queue_depth f.tele ~shard:s.sid s.depth

let expired (p : pending) now =
  match p.spec.Request.deadline with Some d when now >= d -> true | _ -> false

(* --- admission: arrival, fairness, SLO shedding ------------------------- *)

(* admission failure (full queue / fairness loss): retry with
   exponential backoff, shared by newcomers and evictees *)
let retry_or_drop f (s : shard) now (p : pending) =
  if p.attempts <= f.base.Scheduler.max_retries then begin
    Tally.incr s.tally Tally.Retry;
    let wait =
      f.base.Scheduler.backoff *. (2.0 ** float_of_int (p.attempts - 1))
    in
    Eheap.push f.heap (now +. wait) 1 (Arrive { p with attempts = p.attempts + 1 })
  end
  else
    never_ran f ~shard:s.sid p
      (if f.base.Scheduler.max_retries = 0 then Scheduler.Rejected
       else Scheduler.Shed)
      now

(* The hog: the tenant whose occupancy of this queue, over its weight,
   is greatest.  Integer cross-multiplication keeps the comparison
   exact; tenant ids run in name order, so a tie goes to the greater
   name and the decision is total. *)
let fair_victim f (s : shard) =
  let best = ref None in
  Array.iteri
    (fun tid o ->
      if o > 0 then
        match !best with
        | Some b when o * f.tenants.(b).weight < s.occ.(b) * f.tenants.(tid).weight -> ()
        | _ -> best := Some tid)
    s.occ;
  !best

(* the newest non-relaunched entry of the victim tenant (the queue
   list is push-front, so the first match from the head is newest) *)
let evict_newest_of (s : shard) tid =
  let victim =
    List.find_opt (fun (p : pending) -> p.tid = tid && not p.relaunched) s.queue
  in
  Option.iter (remove s) victim;
  victim

(* Is the newcomer's tenant already over its weighted share of its
   home queue?  occ / depth > weight / total-weight, cross-multiplied
   exact, over the tenants actually queued. *)
let over_share f (s : shard) (p : pending) =
  let occ = s.occ.(p.tid) in
  occ > 0
  &&
  let total_w = ref 0 in
  Array.iteri
    (fun tid o -> if o > 0 then total_w := !total_w + f.tenants.(tid).weight)
    s.occ;
  occ * !total_w > f.tenants.(p.tid).weight * s.depth

let arrive f now (p : pending) =
  (* placement happens at arrival-processing time, not trace-seed
     time: a retry re-places, so a content key whose cheap device was
     discovered between attempts migrates on its next arrival *)
  let home = place_for f now p in
  let s = f.shards.(home) in
  if p.attempts = 1 && not p.relaunched then begin
    Tally.incr s.tally Tally.Placed;
    if home <> place_hash f.ring p.chash then
      Tally.incr s.tally Tally.Affinity_move
  end;
  (* SLO-aware admission: while the fleet's windowed p99 is over the
     target, the lowest-priority class — and any tenant already over
     its fair share of its home queue — is turned away with the
     explicit Shed_slo outcome.  Relaunches are exempt: recovery
     never loses an accepted request. *)
  if
    f.shedding
    && (not p.relaunched)
    && (p.spec.Request.priority <= 0 || over_share f s p)
  then never_ran f ~shard:s.sid p Scheduler.Shed_slo now
    (* executor headroom + empty queue: admit past the bound — the
       sweep below dispatches it immediately, so it never really
       queues *)
  else if s.busy < s.conc && s.depth = 0 then enqueue f s p
  else if s.depth < f.base.Scheduler.queue_bound then enqueue f s p
  else begin
    (* full queue: the weighted-fair decision *)
    match fair_victim f s with
    | None -> retry_or_drop f s now p
    | Some vt ->
        let vo = s.occ.(vt) and vw = f.tenants.(vt).weight in
        let nw = f.tenants.(p.tid).weight in
        (* the newcomer (with its prospective slot) at least as
           over-share as the hog: it is the hog — turn it away *)
        if (1 + s.occ.(p.tid)) * vw >= vo * nw then retry_or_drop f s now p
        else begin
          match evict_newest_of s vt with
          | None -> retry_or_drop f s now p
          | Some victim ->
              Tally.incr f.tenants.(vt).t_tally Tally.Evicted;
              retry_or_drop f s now victim;
              enqueue f s p
        end
  end

(* --- dispatch and batching ---------------------------------------------- *)

let real_launch f ~cfg compiled (p : pending) =
  let _kernel, bindings, out = Request.instantiate p.spec in
  let nonce = nonce_for p.spec ~launches:p.launches in
  let m_pending = { p with launches = p.launches + 1 } in
  match
    Offload.run ~cfg ?pool:f.pool ~nonce ~clauses:p.clauses ~bindings compiled
  with
  | report ->
      f.parks <- f.parks + report.Gpusim.Device.parks;
      {
        m_pending;
        m_exec = report.Gpusim.Device.time_cycles;
        m_failed = report.Gpusim.Device.failures <> [];
        m_checksum = Request.checksum out;
        m_grid = report.Gpusim.Device.grid;
        m_counters = report.Gpusim.Device.counters;
        m_faults = report.Gpusim.Device.faults;
      }
  | exception Gpusim.Engine.Deadlock _ ->
      {
        m_pending;
        m_exec = 0.0;
        m_failed = true;
        m_checksum = 0.0;
        m_grid = 0;
        m_counters = zero_counters;
        m_faults = Gpusim.Fault.zero_stats;
      }

let launch_member f (s : shard) compiled (p : pending) =
  let cfg = f.devs.(s.sid) in
  if not f.memo_on then real_launch f ~cfg compiled p
  else begin
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
    match Hashtbl.find_opt f.memo mkey with
    | Some m ->
        Tally.incr s.tally Tally.Memo_hit;
        (* the memo stores content results; pending bookkeeping
           (attempts, shard, steal provenance) is this request's own *)
        { m with m_pending = { p with launches = p.launches + 1 } }
    | None ->
        let m = real_launch f ~cfg compiled p in
        (* a failed result is still memoizable: with no fault plan
           armed, failure (watchdog, genuine deadlock) is as
           deterministic as success *)
        Hashtbl.add f.memo mkey m;
        m
  end

let account f (s : shard) (m : member) =
  Tally.incr s.tally Tally.Launch;
  if m.m_failed then Tally.incr s.tally Tally.Dev_failure;
  f.blocks <- f.blocks + m.m_grid;
  f.sim_cycles <- f.sim_cycles +. m.m_exec;
  f.global_loads <- f.global_loads + m.m_counters.Counters.global_loads;
  f.global_stores <- f.global_stores + m.m_counters.Counters.global_stores;
  f.atomics <- f.atomics + m.m_counters.Counters.atomics;
  f.faults <- Gpusim.Fault.add_stats f.faults m.m_faults

(* Dispatch [members] (leader first) as one merged grid on [s]; the
   caller has checked the leader's geometry ([clauses]), which its
   mates share.  Consumes one server unless the compile fails, or the
   kernel's sharing space (known only once it compiled) does not fit
   the device, which ends every member as Failed.  Such a content id never
   launches there, so its breaker stays closed, admits it without a
   state change and never makes it a probe. *)
let start_batch f now (s : shard) ~clauses (members_p : pending list) =
  let leader = List.hd members_p in
  let knobs =
    { f.base.Scheduler.knobs with Offload.guardize = leader.spec.Request.guardize }
  in
  (* the IR is only needed to compile (a miss) or to price the compile
     charge (also a miss); warm dispatches go through the content id *)
  let kernel = lazy (Request.kernel_of_spec leader.spec) in
  let key = leader.cid in
  let fail_all () =
    List.iter (fun p -> never_ran f ~shard:s.sid p Scheduler.Failed now) members_p
  in
  match
    Cache.find_or_compile f.cache ~key ~compile:(fun () ->
        Offload.compile_with ~knobs (Lazy.force kernel))
  with
  | _, Error _ -> fail_all ()
  | _, Ok compiled
    when Result.is_error
           (Offload.check_sharing ~cfg:f.devs.(s.sid) ~clauses compiled) ->
      (* the kernel's sharing space does not fit the device: like a
         compile error, no launch *)
      fail_all ()
  | status, Ok compiled ->
      let b_cache, b_compile =
        match status with
        | `Miss ->
            let c = Scheduler.compile_cost (Lazy.force kernel) in
            Hashtbl.replace f.compiling key (now +. c);
            (Scheduler.C_miss, c)
        | `Hit | `Joined -> (
            match Hashtbl.find_opt f.compiling key with
            | Some done_at when done_at > now -> (Scheduler.C_join, done_at -. now)
            | _ -> (Scheduler.C_hit, 0.0))
      in
      Tally.incr s.tally Tally.Lookup;
      if b_cache <> Scheduler.C_miss then Tally.incr s.tally Tally.Lookup_hit;
      let members = List.map (launch_member f s compiled) members_p in
      List.iter (account f s) members;
      let k = List.length members in
      if k >= 2 then begin
        Tally.incr s.tally Tally.Batch;
        Tally.add s.tally Tally.Batched k
      end;
      let b_exec =
        List.fold_left (fun acc m -> max acc m.m_exec) 0.0 members
        +. (merge_overhead *. float_of_int (k - 1))
      in
      s.busy <- s.busy + 1;
      f.busy_total <- f.busy_total + 1;
      f.inflight_max <- max f.inflight_max f.busy_total;
      Eheap.push f.heap
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

(* Pull up to [batch - 1] same-content same-geometry mates out of the
   shard's own queue, best-first; deadline-expired entries are left
   behind for their own dispatch to time out.  The entries left keep
   their push-front order, which [evict_newest_of] reads as age. *)
let take_batch f (s : shard) (leader : pending) now =
  if f.conf.batch <= 1 then []
  else begin
    let compatible =
      List.filter
        (fun (p : pending) -> same_shape p leader && not (expired p now))
        s.queue
    in
    let ordered = List.sort (fun a b -> if better a b then -1 else 1) compatible in
    let mates = List.filteri (fun i _ -> i < f.conf.batch - 1) ordered in
    List.iter (remove s) mates;
    mates
  end

(* The deepest neighbour queue, ties to the lowest shard id.  On a
   heterogeneous fleet stealing is a device-group affair: a thief
   only raids shards carrying its own device — a foreign-width warp
   could not launch the work anyway, and a cross-device steal would
   make the executing device (and so the request's cycles) depend on
   shard numbering, breaking shuffle invariance. *)
let steal_from f (s : shard) =
  if not f.conf.steal then None
  else begin
    let name sid = f.devs.(sid).Gpusim.Config.name in
    let victim = ref None in
    Array.iter
      (fun (v : shard) ->
        if v.sid <> s.sid && v.depth > 0
           && ((not f.hetero) || name v.sid = name s.sid)
        then
          match !victim with
          | Some (best : shard) when best.depth >= v.depth -> ()
          | _ -> victim := Some v)
      f.shards;
    match Option.bind !victim pop_queue with
    | None -> None
    | Some p ->
        Tally.incr s.tally Tally.Steal;
        Some { p with stolen = true }
  end

let rec dispatch f now (s : shard) =
  if s.busy < s.conc then begin
    let candidate =
      match pop_queue s with Some p -> Some p | None -> steal_from f s
    in
    match candidate with
    | None -> ()
    | Some p ->
        (if expired p now then never_ran f ~shard:s.sid p Scheduler.Timed_out now
         else
           let clauses = p.clauses in
           if
             (* a geometry this shard's device cannot run fails before
                the breaker is asked, so it never takes the probe slot *)
             Result.is_error
               (Clause.check_geometry ~cfg:f.devs.(s.sid) clauses)
           then never_ran f ~shard:s.sid p Scheduler.Failed now
           else
             match Breaker.admit s.breakers p.cid ~now with
             | `Shed -> never_ran f ~shard:s.sid p Scheduler.Degraded now
             | `Probe ->
                 (* the half-open probe flies alone: one launch decides
                    whether the breaker closes, a full batch should not
                    ride on it *)
                 start_batch f now s ~clauses [ p ]
             | `Admit ->
                 let mates = if p.stolen then [] else take_batch f s p now in
                 start_batch f now s ~clauses (p :: mates));
        dispatch f now s
  end

(* --- completion --------------------------------------------------------- *)

let relaunch f now sid (p : pending) =
  if expired p now then never_ran f ~shard:sid p Scheduler.Timed_out now
  else
    (* recovery re-enters past the admission bound: the request was
       already accepted *)
    enqueue f f.shards.(sid) { p with relaunched = true }

let finish f now (b : batch_run) =
  let s = f.shards.(b.b_shard) in
  s.busy <- s.busy - 1;
  f.busy_total <- f.busy_total - 1;
  (* feed the affinity table: each healthy member's own cycles on
     this shard's device (memo replays feed the same value back —
     min is idempotent) *)
  let dn = f.devs.(b.b_shard).Gpusim.Config.name in
  List.iter
    (fun (m : member) ->
      if not m.m_failed then observe_exec f now m.m_pending.cid dn m.m_exec)
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
        record f p
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
        if p.launches > 1 && not past_deadline then
          Tally.incr s.tally Tally.Recovered;
        finished (if past_deadline then Scheduler.Timed_out else Scheduler.Completed)
      end
      else begin
        breaker_fail s b.b_cid now;
        if past_deadline then finished Scheduler.Timed_out
        else if p.launches <= f.base.Scheduler.max_retries then begin
          Tally.incr s.tally Tally.Relaunch;
          let wait =
            f.base.Scheduler.backoff *. (2.0 ** float_of_int (p.launches - 1))
          in
          Eheap.push f.heap (now +. wait) 1 (Relaunch (s.sid, p))
        end
        else finished Scheduler.Degraded
      end)
    b.b_members

(* --- the window control plane ------------------------------------------ *)

(* Live shard state at a window boundary.  [Telemetry.advance] runs
   before the boundary-crossing event is processed, and every event
   strictly before the boundary already ran — so this is exactly the
   fleet's state at the boundary instant. *)
let sample f sid =
  let s = f.shards.(sid) in
  {
    Telemetry.sq_depth = s.depth;
    sq_conc = s.conc;
    sq_busy = s.busy;
    sq_breakers_open = Breaker.open_count s.breakers;
  }

(* Queued entries per tenant over the whole fleet, by name. *)
let tenants_queued f =
  Array.to_list f.tenants
  |> List.mapi (fun tid t ->
         (t.name, Array.fold_left (fun acc (s : shard) -> acc + s.occ.(tid)) 0 f.shards))
  |> List.filter (fun (_, occ) -> occ > 0)

(* The control plane, evaluated once per closed telemetry window:
   effective-p99 carry, the SLO shedding flag, the autoscaler step,
   and the post-burst breaker fast-forward — then the state the
   window's fleet/control line records. *)
let on_close f (w : Telemetry.window) =
  let idle (sw : Telemetry.shard_window) =
    sw.Telemetry.w_sample.Telemetry.sq_depth = 0
    && sw.Telemetry.w_sample.Telemetry.sq_busy = 0
  in
  Array.iteri
    (fun sid (sw : Telemetry.shard_window) ->
      if sw.Telemetry.w_samples > 0 then f.carry.(sid) <- sw.Telemetry.w_p99
      else if idle sw then f.carry.(sid) <- 0.0)
    w.Telemetry.per_shard;
  (match f.base.Scheduler.slo with
  | None -> ()
  | Some slo_v ->
      (if w.Telemetry.f_samples > 0 then f.carry_fleet <- w.Telemetry.f_p99
       else if Array.for_all idle w.Telemetry.per_shard then f.carry_fleet <- 0.0);
      f.shedding <- f.conf.shed && f.carry_fleet > slo_v);
  let stats =
    Array.init f.conf.shards (fun sid ->
        {
          Autoscale.p99 = f.carry.(sid);
          queued = w.Telemetry.per_shard.(sid).Telemetry.w_sample.Telemetry.sq_depth;
          conc = f.shards.(sid).conc;
        })
  in
  List.iter
    (fun (a : Autoscale.action) ->
      let s = f.shards.(a.Autoscale.a_shard) in
      match a.Autoscale.a_verdict with
      | Autoscale.Grow ->
          s.conc <- s.conc + 1;
          Tally.incr s.tally Tally.Grow
      | Autoscale.Shrink ->
          s.conc <- s.conc - 1;
          Tally.incr s.tally Tally.Shrink
      | Autoscale.Hold -> ())
    (Autoscale.step f.asc ~window:w.Telemetry.index ~order:(Telemetry.order f.tele) ~stats);
  (* A breaker-isolated fault burst that has passed leaves open
     breakers waiting out their full cooldown on a now-healthy shard.
     A window with zero device failures is the all-clear: fast-forward
     the shard's open breakers so their next dispatch is the half-open
     probe — success reopens the path immediately, failure re-opens
     the breaker as usual.  (Per-entry mutation + a count: iteration
     order over the table cannot matter.) *)
  Array.iteri
    (fun sid (sw : Telemetry.shard_window) ->
      if Tally.get sw.Telemetry.w_counts Tally.Dev_failure = 0 then
        let s = f.shards.(sid) in
        Tally.add s.tally Tally.Reopen
          (Breaker.fast_forward s.breakers ~at:w.Telemetry.t1))
    w.Telemetry.per_shard;
  {
    Telemetry.shedding = f.shedding;
    conc = Array.fold_left (fun acc (s : shard) -> acc + s.conc) 0 f.shards;
    pool_left = Autoscale.pool_left f.asc;
    queued = Array.fold_left (fun acc (s : shard) -> acc + s.depth) 0 f.shards;
    tenants = tenants_queued f;
  }

(* --- aggregation -------------------------------------------------------- *)

(* The end-of-run result, read off the tallies: fleet-wide counts are
   sums over the shards.  Only the latencies are gathered here, from
   the id-ordered reports, so every float sum keeps request-id order. *)
let aggregate f ~requests =
  let reports =
    List.sort
      (fun (a : rq_report) (b : rq_report) -> compare a.spec.Request.id b.spec.Request.id)
      f.reports
  in
  let lat_sum = Array.make (Array.length f.tenants) 0.0 in
  let completed_lat =
    List.filter_map
      (fun (r : rq_report) ->
        if r.outcome <> Scheduler.Completed then None
        else begin
          let tid = Hashtbl.find f.tenant_id r.spec.Request.tenant in
          lat_sum.(tid) <- lat_sum.(tid) +. r.latency;
          Some r.latency
        end)
      reports
  in
  let mean, p50, p95, p99 = Metrics.percentiles (Array.of_list completed_lat) in
  let total = Tally.sum (Array.map (fun (s : shard) -> s.tally) f.shards) in
  let count o = total (Tally.Outcome o) and cstat c = total (Tally.Cache c) in
  let metrics =
    {
      Metrics.requests;
      completed = count Scheduler.Completed;
      rejected = count Scheduler.Rejected;
      shed = count Scheduler.Shed;
      shed_slo = count Scheduler.Shed_slo;
      timed_out = count Scheduler.Timed_out;
      failed = count Scheduler.Failed;
      retries = total Tally.Retry;
      queue_max = Array.fold_left (fun acc (s : shard) -> max acc s.queue_max) 0 f.shards;
      inflight_max = f.inflight_max;
      cache_hits = cstat Scheduler.C_hit;
      cache_misses = cstat Scheduler.C_miss;
      cache_evictions = (Cache.stats f.cache).Cache.evictions;
      cache_joins = cstat Scheduler.C_join;
      latency_mean = mean;
      latency_p50 = p50;
      latency_p95 = p95;
      latency_p99 = p99;
      makespan = f.last_time;
      sim_cycles = f.sim_cycles;
      launches = total Tally.Launch;
      blocks = f.blocks;
      global_loads = f.global_loads;
      global_stores = f.global_stores;
      atomics = f.atomics;
      device_failures = total Tally.Dev_failure;
      relaunches = total Tally.Relaunch;
      recovered = total Tally.Recovered;
      degraded = count Scheduler.Degraded;
      breaker_opens = total Tally.Breaker_open;
      slo_violations = total Tally.Violation;
      autoscale_grows = total Tally.Grow;
      autoscale_shrinks = total Tally.Shrink;
      breaker_reopens = total Tally.Reopen;
      faults_corrected = f.faults.Gpusim.Fault.corrected;
      faults_fatal = f.faults.Gpusim.Fault.fatal;
      faults_stalls = f.faults.Gpusim.Fault.stalls;
      faults_exhausts = f.faults.Gpusim.Fault.exhausts;
      faults_watchdogs = f.faults.Gpusim.Fault.watchdogs;
      parks = f.parks;
    }
  in
  let shard_stats =
    Array.to_list
      (Array.map
         (fun (s : shard) ->
           let n = Tally.get s.tally in
           let on_shard o = n (Tally.Outcome o) in
           {
             Metrics.shard = s.sid;
             s_device = f.devs.(s.sid).Gpusim.Config.name;
             s_placed = n Tally.Placed;
             s_completed = on_shard Scheduler.Completed;
             s_shed = on_shard Scheduler.Rejected + on_shard Scheduler.Shed;
             s_shed_slo = on_shard Scheduler.Shed_slo;
             s_timed_out = on_shard Scheduler.Timed_out;
             s_degraded = on_shard Scheduler.Degraded;
             s_launches = n Tally.Launch;
             s_batches = n Tally.Batch;
             s_batched_requests = n Tally.Batched;
             s_steals = n Tally.Steal;
             s_queue_max = s.queue_max;
             s_breaker_opens = n Tally.Breaker_open;
             s_breakers_open = Breaker.open_count s.breakers;
             s_retries = n Tally.Retry;
             s_relaunches = n Tally.Relaunch;
             s_conc = s.conc;
           })
         f.shards)
  in
  let tenant_stats =
    Array.to_list
      (Array.mapi
         (fun tid (t : tenant) ->
           let n o = Tally.get t.t_tally (Tally.Outcome o) in
           let completed = n Scheduler.Completed in
           {
             Metrics.tenant = t.name;
             weight = t.weight;
             t_requests = List.fold_left (fun acc o -> acc + n o) 0 Tally.outcomes;
             t_completed = completed;
             t_shed = n Scheduler.Rejected + n Scheduler.Shed;
             t_shed_slo = n Scheduler.Shed_slo;
             t_timed_out = n Scheduler.Timed_out;
             t_degraded = n Scheduler.Degraded;
             t_evicted = Tally.get t.t_tally Tally.Evicted;
             t_latency_mean =
               (if completed = 0 then 0.0
                else lat_sum.(tid) /. float_of_int completed);
           })
         f.tenants)
  in
  let fleet =
    {
      batches = total Tally.Batch;
      batched_requests = total Tally.Batched;
      steals = total Tally.Steal;
      tenant_evictions =
        Tally.sum (Array.map (fun t -> t.t_tally) f.tenants) Tally.Evicted;
      memo_hits = total Tally.Memo_hit;
      affinity_moves = total Tally.Affinity_move;
    }
  in
  { reports; metrics; shard_stats; tenant_stats; fleet; telemetry = Telemetry.jsonl f.tele }

(* --- the event loop ----------------------------------------------------- *)

let run conf ?pool specs =
  let f = create conf ?pool specs in
  let sample = sample f and on_close = on_close f in
  let rec loop () =
    match Eheap.pop f.heap with
    | None -> ()
    | Some (now, ev) ->
        f.last_time <- max f.last_time now;
        (* close every window the clock has crossed before the event
           runs: control decisions land exactly on the boundary *)
        Telemetry.advance f.tele now ~sample ~on_close;
        (match ev with
        | Arrive p -> arrive f now p
        | Relaunch (sid, p) -> relaunch f now sid p
        | Finish b -> finish f now b);
        (* the work-conserving sweep: every event is a dispatch
           opportunity for the whole fleet, in shard order — an idle
           shard only ever sees foreign queues through this, so without
           it stealing could never fire (no shard gets events of its
           own while its queue is empty) *)
        for sid = 0 to Array.length f.shards - 1 do dispatch f now f.shards.(sid) done;
        loop ()
  in
  loop ();
  Telemetry.finish f.tele ~sample ~on_close;
  aggregate f ~requests:(List.length specs)

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

let snapshot_json (conf : config) (res : result) =
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
