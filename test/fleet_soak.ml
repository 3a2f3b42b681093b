(* Runtest tier for the serve fleet: a seeded 100k-request soak in
   virtual time, plus three targeted scenarios the unit suite is too
   small to exercise.

   1. the soak proper: 100 000 mixed-profile requests (heavy-tailed
      arrivals, bursts, diurnal wave, flash crowds, four Zipf-hot
      tenants) through six shards with batching, stealing and the
      content memo on.  Asserts the no-lost-request invariant (every
      id exactly one terminal report, outcomes tally back to n),
      bounded queue depths on every shard, and byte-identical metrics
      / shard / tenant / fleet JSON on a same-seed replay — then the
      same invariants on a heterogeneous 4-shard fleet (two device
      configs, affinity placement on), plus device-shuffle identity:
      permuting the device multiset over shard ids moves no result
      byte;
   2. tenant fairness under pressure: a contended trace where the hot
      tenant must absorb the fair-admission evictions, and raising its
      configured weight must measurably shield it;
   3. per-shard breaker isolation: a watchdog budget calibrated so only
      the fat [chain] template exceeds it — its home shard's breaker
      opens, every other shard's stays closed, and bystander kernels
      are untouched;
   4. throughput: the batched fleet must beat the single-device
      service (a one-shard fleet) on the compile-heavy chain trace the
      bench records.

   Everything runs in virtual time from fixed seeds: a failure here is
   a real regression, never flake. *)

module Fleet = Serve.Fleet
module Scheduler = Serve.Scheduler
module Request = Serve.Request
module Metrics = Serve.Metrics
module Traffic = Serve.Traffic

let cfg = Gpusim.Config.small
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "fleet-soak FAIL: %s\n%!" msg)
    fmt

(* The service defaults on the small device, as a four-shard batching
   fleet; each scenario overrides what it exercises. *)
let base = { Knobs.default.Knobs.fleet.Fleet.base with Scheduler.cfg }
let fleet = { Knobs.default.Knobs.fleet with Fleet.base; shards = 4; batch = 8 }

(* the single-device service: one shard, no batching, stealing or memo *)
let one_shard =
  { fleet with Fleet.shards = 1; batch = 1; steal = false; memo = false }

let tenant_stat (res : Fleet.result) name =
  List.find
    (fun (t : Metrics.tenant_stats) -> t.Metrics.tenant = name)
    res.Fleet.tenant_stats

(* the replay-comparable rendering of a run: aggregate metrics plus
   every breakdown, but not the 100k per-request reports *)
let summary_json (res : Fleet.result) =
  String.concat "\n"
    (Metrics.to_json res.Fleet.metrics
     :: Fleet.fleet_stats_json res.Fleet.fleet
     :: List.map Metrics.shard_stats_to_json res.Fleet.shard_stats
    @ List.map Metrics.tenant_stats_to_json res.Fleet.tenant_stats)

(* One tally per event: the shard breakdown sums to the fleet-wide
   metrics and fleet stats, and the tenants' requests to the trace. *)
let check_shard_sums stage (res : Fleet.result) =
  let m = res.Fleet.metrics and f = res.Fleet.fleet in
  let sum get =
    List.fold_left (fun a s -> a + get s) 0 res.Fleet.shard_stats
  in
  List.iter
    (fun (what, want, got) ->
      if want <> got then
        fail "%s: %s sum over shards is %d, the fleet-wide count %d" stage what
          got want)
    [
      ("launches", m.Metrics.launches, sum (fun s -> s.Metrics.s_launches));
      ("retries", m.Metrics.retries, sum (fun s -> s.Metrics.s_retries));
      ("relaunches", m.Metrics.relaunches, sum (fun s -> s.Metrics.s_relaunches));
      ( "breaker_opens",
        m.Metrics.breaker_opens,
        sum (fun s -> s.Metrics.s_breaker_opens) );
      ("completed", m.Metrics.completed, sum (fun s -> s.Metrics.s_completed));
      ( "shed",
        m.Metrics.rejected + m.Metrics.shed,
        sum (fun s -> s.Metrics.s_shed) );
      ("shed_slo", m.Metrics.shed_slo, sum (fun s -> s.Metrics.s_shed_slo));
      ("timed_out", m.Metrics.timed_out, sum (fun s -> s.Metrics.s_timed_out));
      ("degraded", m.Metrics.degraded, sum (fun s -> s.Metrics.s_degraded));
      ("batches", f.Fleet.batches, sum (fun s -> s.Metrics.s_batches));
      ( "batched_requests",
        f.Fleet.batched_requests,
        sum (fun s -> s.Metrics.s_batched_requests) );
      ("steals", f.Fleet.steals, sum (fun s -> s.Metrics.s_steals));
      ( "tenant requests",
        m.Metrics.requests,
        List.fold_left
          (fun a (t : Metrics.tenant_stats) -> a + t.Metrics.t_requests)
          0 res.Fleet.tenant_stats );
    ]

(* --- 1. the 100k soak -------------------------------------------------- *)

let soak_stage () =
  (* 100k by default; OMPSIMD_SOAK_FULL=1 runs the full million-request
     soak (minutes of host time — for scheduled long runs, not CI) *)
  let n =
    if Ompsimd_util.Env.flag "OMPSIMD_SOAK_FULL" ~default:false then 1_000_000
    else 100_000
  in
  let specs = Traffic.(generate (preset "mixed" ~n ~seed:42)) in
  let conf = { fleet with Fleet.shards = 6 } in
  let t0 = Unix.gettimeofday () in
  let res = Fleet.run conf specs in
  let elapsed = Unix.gettimeofday () -. t0 in
  let m = res.Fleet.metrics in
  Printf.printf
    "fleet-soak: %d requests, %d launches (%d memoized), %d batches, %d steals, %.1fs host\n%!"
    n m.Metrics.launches res.Fleet.fleet.Fleet.memo_hits
    res.Fleet.fleet.Fleet.batches res.Fleet.fleet.Fleet.steals elapsed;
  (* no lost request: every id exactly one terminal report *)
  if List.length res.Fleet.reports <> n then
    fail "soak: %d reports for %d requests" (List.length res.Fleet.reports) n;
  List.iteri
    (fun i (r : Fleet.rq_report) ->
      if r.Fleet.spec.Request.id <> i then
        fail "soak: report %d carries id %d (duplicate or lost request)" i
          r.Fleet.spec.Request.id)
    res.Fleet.reports;
  let tally =
    m.Metrics.completed + m.Metrics.rejected + m.Metrics.shed
    + m.Metrics.shed_slo + m.Metrics.timed_out + m.Metrics.failed
    + m.Metrics.degraded
  in
  if tally <> n then fail "soak: outcomes tally to %d, not %d" tally n;
  check_shard_sums "soak" res;
  if m.Metrics.completed = 0 then fail "soak: nothing completed";
  (* bounded queues: disarmed, so no relaunch ever re-enters past the
     admission bound — every shard's high-water mark obeys it *)
  List.iter
    (fun (s : Metrics.shard_stats) ->
      if s.Metrics.s_queue_max > conf.Fleet.base.Scheduler.queue_bound then
        fail "soak: shard %d queue peaked at %d (bound %d)" s.Metrics.shard
          s.Metrics.s_queue_max conf.Fleet.base.Scheduler.queue_bound;
      if s.Metrics.s_placed = 0 then
        fail "soak: shard %d was never placed to (dead ring segment)"
          s.Metrics.shard)
    res.Fleet.shard_stats;
  (* the memo is why this finishes in seconds: the spec space is small,
     so almost every launch is a content repeat *)
  if res.Fleet.fleet.Fleet.memo_hits < n / 2 then
    fail "soak: only %d memo hits — the content memo is not engaging"
      res.Fleet.fleet.Fleet.memo_hits;
  if res.Fleet.fleet.Fleet.batches = 0 then fail "soak: batching never engaged";
  if res.Fleet.fleet.Fleet.steals = 0 then fail "soak: stealing never engaged";
  (* deterministic replay: same seed, byte-identical summary *)
  let res2 = Fleet.run conf specs in
  if not (String.equal (summary_json res) (summary_json res2)) then
    fail "soak: same-seed replay produced a different summary";
  (* and the per-request results line up bit-exactly too *)
  if
    not
      (String.equal
         (Fleet.results_json res.Fleet.reports)
         (Fleet.results_json res2.Fleet.reports))
  then fail "soak: same-seed replay produced different per-request results"

(* --- 1b. the heterogeneous soak ---------------------------------------- *)

let hetero_stage () =
  (* a 4-shard fleet carrying two architectures twice each — duplicate
     names keep in-group stealing live — with affinity placement on.
     The invariants are the soak's (nothing lost, same-seed replay
     byte-identical) plus the heterogeneity contract: shuffling the
     device multiset over shard ids must not change any per-request
     result. *)
  let n = 20_000 in
  let specs = Traffic.(generate (preset "mixed" ~n ~seed:1337)) in
  let devices = Fleet.parse_devices "w32-hw,w32-sw,w32-hw,w32-sw" in
  let conf = { fleet with Fleet.devices } in
  let t0 = Unix.gettimeofday () in
  let res = Fleet.run conf specs in
  let elapsed = Unix.gettimeofday () -. t0 in
  let m = res.Fleet.metrics in
  Printf.printf
    "fleet-soak (hetero): %d requests, %d launches (%d memoized), %d steals, %d affinity moves, %.1fs host\n%!"
    n m.Metrics.launches res.Fleet.fleet.Fleet.memo_hits
    res.Fleet.fleet.Fleet.steals res.Fleet.fleet.Fleet.affinity_moves elapsed;
  if List.length res.Fleet.reports <> n then
    fail "hetero: %d reports for %d requests" (List.length res.Fleet.reports) n;
  List.iteri
    (fun i (r : Fleet.rq_report) ->
      if r.Fleet.spec.Request.id <> i then
        fail "hetero: report %d carries id %d (duplicate or lost request)" i
          r.Fleet.spec.Request.id)
    res.Fleet.reports;
  let tally =
    m.Metrics.completed + m.Metrics.rejected + m.Metrics.shed
    + m.Metrics.shed_slo + m.Metrics.timed_out + m.Metrics.failed
    + m.Metrics.degraded
  in
  if tally <> n then fail "hetero: outcomes tally to %d, not %d" tally n;
  check_shard_sums "hetero" res;
  if m.Metrics.completed = 0 then fail "hetero: nothing completed";
  List.iter
    (fun (s : Metrics.shard_stats) ->
      if s.Metrics.s_queue_max > conf.Fleet.base.Scheduler.queue_bound then
        fail "hetero: shard %d queue peaked at %d (bound %d)" s.Metrics.shard
          s.Metrics.s_queue_max conf.Fleet.base.Scheduler.queue_bound;
      if s.Metrics.s_placed = 0 then
        fail "hetero: shard %d was never placed to (dead device group)"
          s.Metrics.shard)
    res.Fleet.shard_stats;
  if res.Fleet.fleet.Fleet.steals = 0 then
    fail "hetero: in-group stealing never engaged";
  if res.Fleet.fleet.Fleet.affinity_moves = 0 then
    fail "hetero: affinity placement never moved anything off the ring";
  (* same seed, same device order: byte-identical *)
  let res2 = Fleet.run conf specs in
  if not (String.equal (summary_json res) (summary_json res2)) then
    fail "hetero: same-seed replay produced a different summary";
  if
    not
      (String.equal
         (Fleet.results_json res.Fleet.reports)
         (Fleet.results_json res2.Fleet.reports))
  then fail "hetero: same-seed replay produced different per-request results";
  (* the device multiset shuffled over shard ids: per-request results
     must not move a byte (placement keys on device names, not sids) *)
  let shuffled =
    Fleet.run
      { conf with Fleet.devices = Fleet.parse_devices "w32-sw,w32-hw,w32-sw,w32-hw" }
      specs
  in
  if
    not
      (String.equal
         (Fleet.results_json res.Fleet.reports)
         (Fleet.results_json shuffled.Fleet.reports))
  then fail "hetero: shuffling devices over shard ids changed the results"

(* --- 2. tenant fairness under pressure --------------------------------- *)

let fairness_stage () =
  (* a hammering arrival rate over a tight queue: admission has to turn
     work away, and weighted-fair admission decides whose *)
  let profile =
    { (Traffic.preset "steady" ~n:2_000 ~seed:7) with Traffic.mean_gap = 120.0 }
  in
  let specs = Traffic.generate profile in
  let run tenants =
    Fleet.run
      {
        fleet with
        Fleet.base = { base with Scheduler.queue_bound = 4; max_retries = 1 };
        shards = 2;
        batch = 4;
        tenants;
      }
      specs
  in
  let flat = run [] in
  if flat.Fleet.fleet.Fleet.tenant_evictions = 0 then
    fail "fairness: no evictions under pressure — the scenario is too easy";
  (* alpha is the Zipf-hot tenant: with equal weights it is the
     over-share hog, so it must absorb at least as many evictions as
     anyone else *)
  let alpha = tenant_stat flat "alpha" in
  List.iter
    (fun (t : Metrics.tenant_stats) ->
      if t.Metrics.t_evicted > alpha.Metrics.t_evicted then
        fail "fairness: %s evicted %d times, more than hot tenant alpha (%d)"
          t.Metrics.tenant t.Metrics.t_evicted alpha.Metrics.t_evicted)
    flat.Fleet.tenant_stats;
  (* the lightest tenant must complete at least as large a fraction of
     its requests as the hog it is being protected from *)
  let ratio (t : Metrics.tenant_stats) =
    if t.Metrics.t_requests = 0 then 1.0
    else float_of_int t.Metrics.t_completed /. float_of_int t.Metrics.t_requests
  in
  let delta = tenant_stat flat "delta" in
  if ratio delta < ratio alpha -. 1e-9 then
    fail "fairness: light tenant delta completes %.3f < hot alpha %.3f"
      (ratio delta) (ratio alpha);
  (* a configured weight is real: giving alpha its true share must
     shield it from evictions relative to the flat run *)
  let weighted = run [ ("alpha", 8) ] in
  let alpha_w = tenant_stat weighted "alpha" in
  if alpha_w.Metrics.t_evicted >= alpha.Metrics.t_evicted then
    fail "fairness: weight 8 did not shield alpha (%d evictions vs %d flat)"
      alpha_w.Metrics.t_evicted alpha.Metrics.t_evicted

(* --- 3. per-shard breaker isolation ------------------------------------ *)

let breaker_stage () =
  (* OMPSIMD_WATCHDOG=8000 sits between the fat chain template's
     per-block cycles and every other catalog kernel's (calibrated
     against the seed device): chain launches fail deterministically,
     everything else is untouched.  Stealing off pins chain to its home
     shard, so exactly one breaker may open. *)
  let pool =
    Knobs.pool { Knobs.default with Knobs.watchdog = 8000.0; domains = 0 }
  in
  let spec i ~at kernel size =
    {
      Request.default_spec with
      Request.id = i;
      at;
      kernel;
      size;
      teams = 1;
      threads = 32;
      seed = 1 + (i mod 3);
    }
  in
  let specs =
    List.init 40 (fun i ->
        let at = float_of_int i *. 25_000.0 in
        if i mod 4 = 0 then spec i ~at "chain" 384
        else
          spec i ~at
            (List.nth [ "saxpy"; "rowsum"; "stencil" ] (i mod 3))
            48)
  in
  let res =
    Fleet.run ~pool
      {
        fleet with
        Fleet.base = { base with Scheduler.max_retries = 1; breaker = 3 };
        batch = 1;
        steal = false;
        memo = false;
      }
      specs
  in
  let chain, rest =
    List.partition
      (fun (r : Fleet.rq_report) -> r.Fleet.spec.Request.kernel = "chain")
      res.Fleet.reports
  in
  List.iter
    (fun (r : Fleet.rq_report) ->
      if r.Fleet.outcome <> Scheduler.Degraded then
        fail "breaker: chain request %d ended %s, expected degraded"
          r.Fleet.spec.Request.id
          (Scheduler.outcome_to_string r.Fleet.outcome))
    chain;
  List.iter
    (fun (r : Fleet.rq_report) ->
      if r.Fleet.outcome <> Scheduler.Completed then
        fail "breaker: bystander %s request %d ended %s"
          r.Fleet.spec.Request.kernel r.Fleet.spec.Request.id
          (Scheduler.outcome_to_string r.Fleet.outcome))
    rest;
  let chain_shards =
    List.sort_uniq compare
      (List.map (fun (r : Fleet.rq_report) -> r.Fleet.shard) chain)
  in
  (match chain_shards with
  | [ _ ] -> ()
  | l ->
      fail "breaker: chain executed on %d shards without stealing"
        (List.length l));
  let open_shards =
    List.filter
      (fun (s : Metrics.shard_stats) -> s.Metrics.s_breaker_opens > 0)
      res.Fleet.shard_stats
  in
  (match (open_shards, chain_shards) with
  | [ s ], [ home ] when s.Metrics.shard = home -> ()
  | _ ->
      fail
        "breaker: expected exactly chain's home shard to open, got %d \
         open shard(s)"
        (List.length open_shards));
  if res.Fleet.metrics.Metrics.breaker_opens < 1 then
    fail "breaker: never opened";
  if res.Fleet.metrics.Metrics.faults_watchdogs = 0 then
    fail "breaker: the watchdog never fired"

(* --- 3b. armed chaos under autoscaling: the operability soak ----------- *)

let operability_stage () =
  (* Everything at once: a heterogeneous 4-shard fleet, an armed fault
     plan, a flash crowd, SLO-aware admission shedding and the
     autoscaler growing against the SLO.  The no-lost-request tally
     must hold exactly with [Shed_slo] in the books, the telemetry
     stream must replay byte-identically, and scaling must demonstrably
     cut late completions versus the same fleet pinned at its base
     concurrency. *)
  let faults =
    Some (Gpusim.Fault.parse_spec ~seed:23 "abort=0.4,flip=0.3:0.5,stall=0.2")
  in
  let pool = Knobs.pool { Knobs.default with Knobs.faults; domains = 0 } in
  let n = 4_000 in
  let specs = Traffic.(generate (preset "flash" ~n ~seed:23)) in
  let devices = Fleet.parse_devices "w32-hw,w32-sw,w32-hw,w32-sw" in
  let slo = 8_000.0 in
  let autoscale =
    {
      Serve.Autoscale.enabled = true;
      slo;
      budget = 8;
      max_extra = 6;
      down = 0.5;
      cooldown = 2;
    }
  in
  let conf =
    {
      fleet with
      Fleet.base = { base with Scheduler.slo = Some slo };
      devices;
      telemetry = true;
      autoscale;
    }
  in
  let res = Fleet.run ~pool conf specs in
  let m = res.Fleet.metrics in
  Printf.printf
    "fleet-soak (operability): %d requests, %d shed-slo, %d violations, %d grows, %d shrinks, %d reopens\n%!"
    n m.Metrics.shed_slo m.Metrics.slo_violations
    m.Metrics.autoscale_grows m.Metrics.autoscale_shrinks
    m.Metrics.breaker_reopens;
  if List.length res.Fleet.reports <> n then
    fail "operability: %d reports for %d requests"
      (List.length res.Fleet.reports) n;
  List.iteri
    (fun i (r : Fleet.rq_report) ->
      if r.Fleet.spec.Request.id <> i then
        fail "operability: report %d carries id %d" i
          r.Fleet.spec.Request.id)
    res.Fleet.reports;
  let tally =
    m.Metrics.completed + m.Metrics.rejected + m.Metrics.shed
    + m.Metrics.shed_slo + m.Metrics.timed_out + m.Metrics.failed
    + m.Metrics.degraded
  in
  if tally <> n then fail "operability: outcomes tally to %d, not %d" tally n;
  if m.Metrics.faults_fatal + m.Metrics.faults_corrected = 0 then
    fail "operability: the armed plan injected nothing";
  if String.length res.Fleet.telemetry = 0 then
    fail "operability: telemetry stream is empty";
  (* same seed, same fleet: the telemetry JSONL replays to the byte *)
  let res2 = Fleet.run ~pool conf specs in
  if not (String.equal res.Fleet.telemetry res2.Fleet.telemetry) then
    fail "operability: telemetry did not replay byte-identically";
  if not (String.equal (summary_json res) (summary_json res2)) then
    fail "operability: same-seed replay produced a different summary";
  (* the recorded comparison: shedding off in both arms, autoscaler
     on vs off — scaling must grow under the crowd and strictly cut
     SLO violations *)
  let arm auto =
    (Fleet.run ~pool
       { conf with Fleet.telemetry = false; shed = false; autoscale = auto }
       specs)
      .Fleet.metrics
  in
  let scaled = arm autoscale and fixed = arm Serve.Autoscale.disabled in
  if scaled.Metrics.autoscale_grows = 0 then
    fail "operability: the autoscaler never grew under the flash crowd";
  if fixed.Metrics.autoscale_grows <> 0 then
    fail "operability: the disabled arm scaled";
  if scaled.Metrics.slo_violations >= fixed.Metrics.slo_violations then
    fail
      "operability: autoscaling did not reduce SLO violations (%d vs %d \
       fixed)"
      scaled.Metrics.slo_violations fixed.Metrics.slo_violations;
  Printf.printf
    "fleet-soak (operability): autoscale on/off violations %d/%d\n%!"
    scaled.Metrics.slo_violations fixed.Metrics.slo_violations

(* --- 4. throughput: the batched fleet vs the single device ------------- *)

let throughput_stage () =
  (* the bench's compile-heavy chain trace: three distinct digests over
     thirty requests, arrivals faster than one device drains them *)
  let specs =
    List.init 30 (fun i ->
        {
          Request.default_spec with
          Request.id = i;
          at = float_of_int i *. 1500.0;
          kernel = "chain";
          size = 256 + (256 * (i mod 3));
          seed = 1 + (i mod 5);
        })
  in
  let solo = (Fleet.run one_shard specs).Fleet.metrics in
  let sharded = (Fleet.run fleet specs).Fleet.metrics in
  if Metrics.throughput sharded <= Metrics.throughput solo then
    fail "throughput: fleet %.2f req/Mtick <= single device %.2f"
      (Metrics.throughput sharded) (Metrics.throughput solo);
  (* batching pays at equal resources too: one shard, same servers,
     merged grids vs solo launches *)
  let batched =
    (Fleet.run { fleet with Fleet.shards = 1; memo = false } specs).Fleet.metrics
  in
  if batched.Metrics.makespan >= solo.Metrics.makespan then
    fail "throughput: batching did not shorten the backlog (%.1f vs %.1f)"
      batched.Metrics.makespan solo.Metrics.makespan

let () =
  soak_stage ();
  hetero_stage ();
  fairness_stage ();
  breaker_stage ();
  operability_stage ();
  throughput_stage ();
  if !failures > 0 then begin
    Printf.eprintf "fleet-soak: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "fleet-soak: all stages passed"
