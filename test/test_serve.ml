(* Serve suite: the persistent kernel-launch service.

   Admission control (Rejected / Shed / retry-success), deadline
   enforcement (queued and late-finish), the compiled-kernel cache
   (hits, LRU eviction, the virtual compile window) and the
   determinism contract: replaying one trace yields byte-identical
   snapshots for any pool width, and every request a one-shard replay
   completes reproduces bit for bit on the reference walker. *)

module Scheduler = Serve.Scheduler
module Request = Serve.Request
module Metrics = Serve.Metrics
module Fleet = Serve.Fleet
module Traffic = Serve.Traffic

let cfg = Gpusim.Config.small

let spec ?(at = 0.0) ?(kernel = "saxpy") ?(size = 16) ?(teams = 1)
    ?(threads = 32) ?(simdlen = 8) ?(guardize = false) ?deadline
    ?(priority = 0) ?(seed = 1) ?(tenant = "-") ?device id =
  {
    Request.id;
    at;
    kernel;
    size;
    teams;
    threads;
    simdlen;
    guardize;
    deadline;
    priority;
    seed;
    tenant;
    device;
  }

let conf ?(queue_bound = 4) ?(servers = 1) ?(cache = 8) ?(retries = 0)
    ?(backoff = 500.0) ?(breaker = 4) ?slo ?(window = 20_000.0) () =
  {
    Knobs.default.Knobs.fleet.Fleet.base with
    Scheduler.cfg;
    queue_bound;
    servers;
    cache_capacity = cache;
    max_retries = retries;
    backoff;
    breaker;
    slo;
    window;
  }

(* The single-device service: a fleet of one shard with batching,
   stealing and the launch memo off. *)
let one_shard c =
  { Knobs.default.Knobs.fleet with Fleet.base = c; steal = false; memo = false }

let serve ?pool c specs =
  let res = Fleet.run ?pool (one_shard c) specs in
  (res.Fleet.reports, res.Fleet.metrics)

let outcome = Alcotest.testable (Fmt.of_to_string Scheduler.outcome_to_string) ( = )

(* Fault plans go through the same parse a user's environment does and
   reach the fleet on the pool [Knobs.pool] builds from them: [f] gets
   a sequential pool and a maker for wider ones under the same knobs. *)
let with_knobs pairs f =
  match Knobs.parse (fun name -> List.assoc_opt name pairs) with
  | Error msg -> Alcotest.fail msg
  | Ok k ->
      let pool domains = Knobs.pool { k with Knobs.domains } in
      f (pool 0) pool

let outcome_of (reports : Fleet.rq_report list) id =
  (List.nth reports id).Fleet.outcome

(* --- admission control ----------------------------------------------- *)

let test_admission_rejection () =
  (* one server, no queue, no retries: of two simultaneous arrivals the
     second must be rejected outright *)
  let reports, m =
    serve
      (conf ~queue_bound:0 ~retries:0 ())
      [ spec ~at:0.0 0; spec ~at:1.0 1 ]
  in
  Alcotest.check outcome "first completes" Scheduler.Completed
    (outcome_of reports 0);
  Alcotest.check outcome "second rejected" Scheduler.Rejected
    (outcome_of reports 1);
  Alcotest.(check int) "rejected counted" 1 m.Metrics.rejected;
  Alcotest.(check int) "one launch only" 1 m.Metrics.launches;
  Alcotest.(check (float 0.0))
    "rejected request never started" (-1.0)
    (List.nth reports 1).Fleet.start

let test_retry_success () =
  (* same contention, but with a retry budget and a backoff long enough
     to outlive the first request's service time: the second request
     must come back and complete on a later attempt *)
  let reports, m =
    serve
      (conf ~queue_bound:0 ~retries:8 ~backoff:2000.0 ())
      [ spec ~at:0.0 0; spec ~at:1.0 1 ]
  in
  Alcotest.check outcome "second eventually completes" Scheduler.Completed
    (outcome_of reports 1);
  let r1 = List.nth reports 1 in
  Alcotest.(check bool) "took more than one attempt" true (r1.Fleet.attempts > 1);
  Alcotest.(check int) "retries counted" (r1.Fleet.attempts - 1) m.Metrics.retries;
  Alcotest.(check int) "both completed" 2 m.Metrics.completed

let test_shed_after_retries () =
  (* a single retry with a tiny backoff lands while the server is still
     busy: the budget exhausts and the request is shed *)
  let reports, m =
    serve
      (conf ~queue_bound:0 ~retries:1 ~backoff:1.0 ())
      [ spec ~at:0.0 0; spec ~at:1.0 1 ]
  in
  Alcotest.check outcome "second shed" Scheduler.Shed (outcome_of reports 1);
  Alcotest.(check int) "shed counted" 1 m.Metrics.shed;
  Alcotest.(check int) "its retry counted" 1 m.Metrics.retries

(* --- deadlines -------------------------------------------------------- *)

let test_deadline_expires_queued () =
  (* the second request's deadline passes while it waits in the queue:
     it must never launch *)
  let reports, m =
    serve (conf ())
      [ spec ~at:0.0 0; spec ~at:1.0 ~deadline:10.0 1 ]
  in
  Alcotest.check outcome "timed out" Scheduler.Timed_out (outcome_of reports 1);
  let r1 = List.nth reports 1 in
  Alcotest.(check (float 0.0)) "never dispatched" (-1.0) r1.Fleet.start;
  Alcotest.(check int) "only one launch" 1 m.Metrics.launches;
  Alcotest.(check int) "timed-out counted" 1 m.Metrics.timed_out

let test_deadline_late_finish () =
  (* a lone request whose deadline falls inside its own service time:
     it runs (the work is done) but reports Timed_out *)
  let reports, m =
    serve (conf ()) [ spec ~at:0.0 ~deadline:50.0 0 ]
  in
  let r0 = List.nth reports 0 in
  Alcotest.check outcome "late finish times out" Scheduler.Timed_out
    r0.Fleet.outcome;
  Alcotest.(check bool) "it did dispatch" true (r0.Fleet.start >= 0.0);
  Alcotest.(check int) "the launch happened" 1 m.Metrics.launches;
  Alcotest.(check int) "not counted completed" 0 m.Metrics.completed

(* --- the compile cache ------------------------------------------------ *)

let test_cache_hit_and_virtual_join () =
  (* two servers, identical kernels arriving within the compile window:
     the second joins the in-flight compile (paying only residual wait);
     a third, arriving after it lands, is a plain hit *)
  let reports, m =
    serve
      (conf ~servers:2 ())
      [ spec ~at:0.0 0; spec ~at:1.0 1; spec ~at:50000.0 2 ]
  in
  let cache i = (List.nth reports i).Fleet.cache in
  Alcotest.(check string) "first misses" "miss"
    (Scheduler.cache_status_to_string (cache 0));
  Alcotest.(check string) "second joins" "join"
    (Scheduler.cache_status_to_string (cache 1));
  Alcotest.(check string) "third hits" "hit"
    (Scheduler.cache_status_to_string (cache 2));
  let r1 = List.nth reports 1 in
  let r0 = List.nth reports 0 in
  Alcotest.(check bool) "join pays only residual compile wait" true
    (r1.Fleet.compile_ticks > 0.0
    && r1.Fleet.compile_ticks < r0.Fleet.compile_ticks);
  Alcotest.(check int) "metrics fold the counters" 1 m.Metrics.cache_hits;
  Alcotest.(check int) "one miss" 1 m.Metrics.cache_misses;
  Alcotest.(check int) "one join" 1 m.Metrics.cache_joins

let test_cache_lru_eviction () =
  (* capacity 1 with alternating kernels: every lookup after the first
     evicts the resident entry, so a returning kernel misses again *)
  let specs =
    [
      spec ~at:0.0 ~kernel:"saxpy" 0;
      spec ~at:100000.0 ~kernel:"rowsum" 1;
      spec ~at:200000.0 ~kernel:"saxpy" 2;
    ]
  in
  let _, m1 = serve (conf ~cache:1 ()) specs in
  Alcotest.(check int) "capacity 1: all misses" 3 m1.Metrics.cache_misses;
  Alcotest.(check bool) "capacity 1: evicts" true (m1.Metrics.cache_evictions >= 2);
  let _, m2 = serve (conf ~cache:2 ()) specs in
  Alcotest.(check int) "capacity 2: the return hits" 1 m2.Metrics.cache_hits;
  Alcotest.(check int) "capacity 2: no evictions" 0 m2.Metrics.cache_evictions

let test_cache_disabled () =
  let specs = [ spec ~at:0.0 0; spec ~at:100000.0 1 ] in
  let _, m = serve (conf ~cache:0 ()) specs in
  Alcotest.(check int) "capacity 0 recompiles every request" 2
    m.Metrics.cache_misses;
  Alcotest.(check int) "and never hits" 0 m.Metrics.cache_hits

(* qcheck: the cache is a plain LRU.  Random lookups at capacities 0-4,
   each a find that, when the op says so, adds on a miss (the fleet's
   protocol), against a list model, most recent first: every find hits
   or misses as the model does and returns the entry last added under
   its key, and the eviction counts agree.  After each op the cache
   must hold exactly the model's keys, so each eviction dropped the
   model's least recent key; the check finds them least recent first,
   which leaves their order as it was. *)
let cache_is_lru =
  let compiled =
    lazy (Result.get_ok (Openmp.Offload.compile (Request.kernel_of_spec (spec 0))))
  in
  let keys = List.init 6 Fun.id in
  let print_op (add, k) = Printf.sprintf "%s %d" (if add then "find-or-add" else "find") k in
  QCheck.Test.make ~count:300 ~name:"cache: LRU against a list model"
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map print_op ops)))
       QCheck.Gen.(
         pair (int_range 0 4) (list_size (int_range 0 40) (pair bool (oneofl keys)))))
    (fun (capacity, ops) ->
      let cache = Serve.Cache.create ~capacity in
      let compiled = Lazy.force compiled in
      let model = ref [] and evictions = ref 0 in
      let find k =
        Option.map (fun e -> e.Serve.Cache.ready) (Serve.Cache.find cache k)
      in
      List.iteri
        (fun i (add, k) ->
          let fail what =
            QCheck.Test.fail_reportf "op %d (%s): %s" i (print_op (add, k)) what
          in
          let want = List.assoc_opt k !model in
          if find k <> want then fail "hit/miss or entry differs from the model";
          (match want with
          | Some r -> model := (k, r) :: List.remove_assoc k !model
          | None when add ->
              let ready = float_of_int i in
              Serve.Cache.add cache k { Serve.Cache.compiled; ready };
              if capacity > 0 then begin
                if List.length !model = capacity then begin
                  model := List.filteri (fun j _ -> j < capacity - 1) !model;
                  incr evictions
                end;
                model := (k, ready) :: !model
              end
          | None -> ());
          if Serve.Cache.evictions cache <> !evictions then fail "eviction count";
          List.iter
            (fun (k', r) -> if find k' <> Some r then fail (Printf.sprintf "key %d lost" k'))
            (List.rev !model);
          List.iter
            (fun k' ->
              if (not (List.mem_assoc k' !model)) && find k' <> None then
                fail (Printf.sprintf "key %d kept" k'))
            keys)
        ops;
      true)

(* --- device failures and the compile cache ----------------------------- *)

let test_cache_survives_device_failure () =
  (* a device fault is not a compile failure: the cached artifact must
     survive the failing request — its own relaunches reuse it (cache
     status "hit", no recompile), and so does a later request for the
     same kernel.  Distinct from a compile Error, which is never
     cached. *)
  let reports, m =
    with_knobs
      [ ("OMPSIMD_FAULTS", "abort=1"); ("OMPSIMD_FAULT_SEED", "5") ]
      (fun pool _ ->
        serve ~pool
          (conf ~retries:2 ~breaker:0 ~backoff:100.0 ())
          (* enough work that the victim thread reaches its trigger *)
          [
            spec ~at:0.0 ~size:2048 ~teams:2 ~threads:64 0;
            spec ~at:500000.0 ~size:2048 ~teams:2 ~threads:64 1;
          ])
  in
  let r0 = List.nth reports 0 and r1 = List.nth reports 1 in
  Alcotest.check outcome "always-fatal plan degrades" Scheduler.Degraded
    r0.Fleet.outcome;
  Alcotest.(check int) "three launches for request 0" 3 r0.Fleet.launches;
  Alcotest.(check string) "the relaunches reuse the cached compile" "hit"
    (Scheduler.cache_status_to_string r0.Fleet.cache);
  Alcotest.(check string) "a later request still hits the entry" "hit"
    (Scheduler.cache_status_to_string r1.Fleet.cache);
  Alcotest.(check int) "device failures never evict" 0 m.Metrics.cache_evictions;
  Alcotest.(check int) "all six launches failed" 6 m.Metrics.device_failures

(* --- trace parsing ---------------------------------------------------- *)

let test_parse_trace () =
  let specs =
    Request.parse_trace
      "# comment\n\
       kernel=rowsum at=10 size=24 teams=2 threads=64 simdlen=4 prio=3 seed=9\n\
       \n\
       kernel=chain deadline=500\n"
  in
  Alcotest.(check int) "two requests" 2 (List.length specs);
  let s0 = List.nth specs 0 and s1 = List.nth specs 1 in
  Alcotest.(check string) "kernel" "rowsum" s0.Request.kernel;
  Alcotest.(check (float 0.0)) "arrival" 10.0 s0.Request.at;
  Alcotest.(check int) "size" 24 s0.Request.size;
  Alcotest.(check int) "priority" 3 s0.Request.priority;
  Alcotest.(check (option (float 0.0))) "deadline is absolute" (Some 500.0)
    s1.Request.deadline;
  (match Request.parse_trace "at=3" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "missing kernel= must be rejected");
  Alcotest.(check int) "synthetic honors n" 12
    (List.length (Request.synthetic ~n:12 ~seed:5 ()))

(* The front door refuses what the fleet cannot order or launch
   anywhere: a non-finite arrival would hang the telemetry window loop,
   zero-sized geometry aborts every device's launch, and an oversized
   request cannot be allocated.  Each error names its trace line. *)
let test_parse_trace_rejects () =
  let rejected what text line =
    match Request.parse_trace text with
    | exception Failure msg ->
        let prefix = Printf.sprintf "trace line %d:" line in
        Alcotest.(check string) what prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)))
    | _ -> Alcotest.failf "%s: must be rejected" what
  in
  rejected "at=inf" "kernel=saxpy at=inf\n" 1;
  rejected "at=infinity" "kernel=saxpy\nkernel=saxpy at=infinity\n" 2;
  rejected "deadline=inf" "kernel=saxpy deadline=inf\n" 1;
  rejected "at=nan" "kernel=saxpy at=nan\n" 1;
  rejected "a deadline overflowing the tick range"
    "kernel=saxpy at=1e308 deadline=1e308\n" 1;
  rejected "teams=0" "# header\nkernel=saxpy teams=0\n" 2;
  rejected "threads=0" "kernel=saxpy threads=0\n" 1;
  rejected "threads=-32" "kernel=saxpy threads=-32\n" 1;
  rejected "simdlen=0" "kernel=saxpy simdlen=0\n" 1;
  rejected "size=100000000" "kernel=saxpy\nkernel=rowsum size=100000000\n" 2;
  Alcotest.(check int) "size=65536 parses" 65536
    (List.hd (Request.parse_trace "kernel=saxpy size=65536\n")).Request.size;
  (* device-dependent geometry is the launch's call, not the parser's *)
  Alcotest.(check int) "threads=48 parses" 48
    (List.hd (Request.parse_trace "kernel=saxpy threads=48\n")).Request.threads

(* qcheck: the trace front door.  Random bytes, and the shipped example
   trace with one to three of its lines mutated, each parse or fail with
   a [Failure] naming the offending trace line (a line the text has);
   nothing else escapes [Request.parse_trace]. *)
let example_lines =
  lazy
    (let ic = open_in_bin (Filename.concat ".." "examples/serve.requests") in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     Array.of_list (String.split_on_char '\n' text))

let mutated_trace lines =
  let open QCheck.Gen in
  let key_chars = "kernel=sizatemhdlnpriogu0123456789.-+e# \t" in
  let key_char = map (String.get key_chars) (int_bound (String.length key_chars - 1)) in
  let edit s =
    let n = String.length s in
    int_bound (max 0 (n - 1)) >>= fun i ->
    oneof [ key_char; char ] >>= fun c ->
    let i = min i n in
    oneofl
      [
        String.sub s 0 i ^ String.sub s (min n (i + 1)) (n - min n (i + 1));
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.mapi (fun j x -> if j = i then c else x) s;
        String.sub s i (n - i) ^ " " ^ String.sub s 0 i;
      ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  let rec apply lines = function
    | [] -> return lines
    | (i, k) :: rest ->
        edits k lines.(i) >>= fun line ->
        let lines = Array.copy lines in
        lines.(i) <- line;
        apply lines rest
  in
  list_size (int_range 1 3) (pair (int_bound (Array.length lines - 1)) (int_range 1 3))
  >>= apply lines
  >|= fun lines -> String.concat "\n" (Array.to_list lines)

(* the example is read when the first case is drawn *)
let trace_gen =
  QCheck.Gen.(
    frequency
      [
        (1, string_size ~gen:char (int_bound 120));
        (3, fun st -> mutated_trace (Lazy.force example_lines) st);
      ])

let trace_never_raises =
  QCheck.Test.make ~count:300 ~name:"a trace parses or names its line"
    (QCheck.make ~print:(Printf.sprintf "%S") trace_gen)
    (fun text ->
      let lines = List.length (String.split_on_char '\n' text) in
      match Request.parse_trace text with
      | _ -> true
      | exception Failure msg -> (
          match Scanf.sscanf_opt msg "trace line %d: %_s@\n" (fun n -> n) with
          | Some n when n >= 1 && n <= lines -> true
          | _ -> QCheck.Test.fail_reportf "%S: message %S" text msg)
      | exception e ->
          QCheck.Test.fail_reportf "%S raised %s" text (Printexc.to_string e))

(* qcheck: the fleet's spec front doors.  Random bytes, and tenant and
   device lists with one to three edits, each parse ([Fleet.parse_tenants],
   [Fleet.parse_devices]) or raise the [Invalid_argument] naming their
   variable; nothing else escapes. *)
let fleet_specs_never_raise =
  let tenants = [ "alice=3,bob"; "a=1,b=2,c=10"; "solo" ] in
  let devices = [ "w32-hw,w64-hw,w16-sw,w32-l2tiny"; "a100,a100q,amd,small"; "w64-sw" ] in
  QCheck.Test.make ~count:300 ~name:"tenant and device lists parse or name their variable"
    (QCheck.make
       ~print:(fun (tenant, s) -> Printf.sprintf "%s %S" (if tenant then "tenants" else "devices") s)
       QCheck.Gen.(
         bool >>= fun tenant ->
         Fuzz.input ~alphabet:"alicebobwhsq=,-0123456789" ~sep:","
           (if tenant then tenants else devices)
         >|= fun s -> (tenant, s)))
    (fun (tenant, s) ->
      let var, parse =
        if tenant then ("OMPSIMD_SERVE_TENANTS", fun s -> ignore (Fleet.parse_tenants s))
        else ("OMPSIMD_FLEET_DEVICES", fun s -> ignore (Fleet.parse_devices s))
      in
      match parse s with
      | () -> true
      | exception Invalid_argument msg when Astring_like.contains msg var -> true
      | exception e -> QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e))

(* A fleet refuses an arrival more than a million telemetry windows
   out before replaying anything: closing every empty window up to it
   would stall the replay, whether the arrival is far off or the window
   tiny.  The error names the request and its window. *)
let test_arrival_window_cap () =
  let spec at =
    { (List.hd (Request.parse_trace "kernel=rowsum size=16 teams=1\n")) with Request.at }
  in
  let refused what ~window ~at ~names =
    match Fleet.run (one_shard (conf ~window ())) [ spec at ] with
    | exception Invalid_argument msg ->
        List.iter
          (fun name ->
            Alcotest.(check bool) (what ^ " names " ^ name ^ ": " ^ msg) true
              (Astring_like.contains msg name))
          names
    | _ -> Alcotest.failf "%s must be refused" what
  in
  refused "an arrival 5e10 windows out" ~window:20_000.0 ~at:1e15
    ~names:[ "request 0"; "window 50000000000" ];
  refused "an arrival 800 ticks out in 1e-300-tick windows" ~window:1e-300 ~at:800.0
    ~names:[ "request 0"; "of 1e-300 ticks" ]

(* --- determinism ------------------------------------------------------ *)

let test_deterministic_replay () =
  (* one trace, sequential and pooled: the full snapshot (per-request
     reports incl. checksums, metrics) must be byte-identical *)
  let specs = Request.synthetic ~n:16 ~seed:11 () in
  let c = conf ~servers:2 ~queue_bound:2 ~retries:2 ~backoff:800.0 () in
  let snap ?pool fc = Fleet.snapshot_json fc (Fleet.run fc ?pool specs) in
  let pool = Gpusim.Pool.create ~domains:3 () in
  let seq = snap (one_shard c) in
  let pooled = snap ~pool (one_shard c) in
  Gpusim.Pool.shutdown pool;
  Alcotest.(check string) "pool matches sequential" seq pooled

(* The fleet launches on the product's evaluator alone, so the walker
   certifies it request by request: each request a one-shard, unbatched,
   fault-free replay completes is instantiated and compiled the way the
   fleet does it, launched on the reference walker, and must reproduce
   the report's checksum and counters bit for bit. *)
let test_walker_certifies_requests () =
  let specs = Request.synthetic ~n:16 ~seed:11 () in
  let fc = one_shard (conf ~servers:2 ~queue_bound:8 ~retries:2 ()) in
  let base = fc.Fleet.base in
  let completed =
    List.filter
      (fun r -> r.Fleet.outcome = Scheduler.Completed)
      (Fleet.run fc specs).Fleet.reports
  in
  Alcotest.(check bool) "the replay completed requests" true (completed <> []);
  List.iter
    (fun (r : Fleet.rq_report) ->
      let spec = r.Fleet.spec in
      let kernel, bindings, out = Request.instantiate spec in
      let knobs = { base.Scheduler.knobs with Openmp.Offload.guardize = spec.Request.guardize } in
      match Openmp.Offload.compile_with ~knobs kernel with
      | Error _ -> Alcotest.failf "request %d does not compile" spec.Request.id
      | Ok compiled ->
          let clauses =
            Openmp.Clause.(
              none
              |> num_teams spec.Request.teams
              |> num_threads spec.Request.threads
              |> simdlen spec.Request.simdlen)
          in
          let report =
            Reference.Offload_ref.run ~cfg:base.Scheduler.cfg ~clauses ~bindings compiled
          in
          let what = Printf.sprintf "request %d" spec.Request.id in
          Alcotest.(check int64) (what ^ ": checksum bits")
            (Int64.bits_of_float r.Fleet.checksum)
            (Int64.bits_of_float (Request.checksum out));
          Alcotest.(check bool) (what ^ ": counters") true
            (Gpusim.Counters.equal r.Fleet.counters report.Gpusim.Device.counters))
    completed

(* --- the fleet --------------------------------------------------------- *)

let fconf ?(shards = 2) ?(batch = 4) ?(steal = true) ?(memo = true)
    ?(tenants = []) ?(devices = []) ?(affinity = true) ?(queue_bound = 4)
    ?(servers = 1) ?(cache = 8) ?(retries = 0) ?(backoff = 500.0)
    ?(breaker = 4) ?slo ?window ?(telemetry = false) ?(shed = true)
    ?(autoscale = Serve.Autoscale.disabled) ?(decay = 0) () =
  {
    Fleet.base =
      conf ~queue_bound ~servers ~cache ~retries ~backoff ~breaker ?slo ?window
        ();
    shards;
    batch;
    steal;
    memo;
    tenants;
    devices;
    affinity;
    telemetry;
    shed;
    autoscale;
    decay;
  }

let f_outcome (res : Fleet.result) id =
  (List.nth res.Fleet.reports id).Fleet.outcome

let test_tenant_parsing () =
  Alcotest.(check (list (pair string int)))
    "weights and bare names"
    [ ("alice", 3); ("bob", 1) ]
    (Fleet.parse_tenants "alice=3, bob");
  (match Fleet.parse_tenants "alice=zero" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "malformed weight must be rejected");
  let c = fconf ~tenants:[ ("alice", 3) ] () in
  Alcotest.(check int) "configured weight" 3 (Fleet.weight_of c "alice");
  Alcotest.(check int) "unknown tenants weigh 1" 1 (Fleet.weight_of c "bob");
  let specs = Request.parse_trace "kernel=saxpy tenant=alice\nkernel=rowsum\n" in
  Alcotest.(check string) "trace tenant token" "alice"
    (List.nth specs 0).Request.tenant;
  Alcotest.(check string) "default tenant" "-" (List.nth specs 1).Request.tenant

let test_placement_stability () =
  (* the ring is deterministic, and growing it moves only the keys that
     hash next to the new shard's points — nowhere near a full reshuffle *)
  let keys = List.init 200 (Printf.sprintf "content-key-%d") in
  let r4 = Fleet.make_ring 4 and r5 = Fleet.make_ring 5 in
  let place ring k = Fleet.place_hash ring (Fleet.hash_pos k) in
  List.iter
    (fun k ->
      Alcotest.(check int)
        "placement is a pure function of the key" (place r4 k)
        (place (Fleet.make_ring 4) k))
    (List.filteri (fun i _ -> i < 10) keys);
  let moved =
    List.length (List.filter (fun k -> place r4 k <> place r5 k) keys)
  in
  Alcotest.(check bool) "a fifth shard takes some keys" true (moved > 0);
  Alcotest.(check bool)
    (Printf.sprintf "but only its share (%d/200 moved)" moved)
    true
    (moved < 100)

let test_fleet_batching () =
  (* one shard, one server, five same-content arrivals: the first
     dispatches solo, the rest wait out its service time and ride one
     merged grid — and every member's report is its own *)
  let specs = List.init 5 (fun i -> spec ~at:(float_of_int i) ~seed:3 i) in
  let res =
    Fleet.run (fconf ~shards:1 ~batch:4 ~queue_bound:8 ~memo:false ()) specs
  in
  Alcotest.(check int) "all completed" 5 res.Fleet.metrics.Metrics.completed;
  Alcotest.(check int) "one merged grid" 1 res.Fleet.fleet.Fleet.batches;
  Alcotest.(check int) "four members rode it" 4
    res.Fleet.fleet.Fleet.batched_requests;
  let r4 = List.nth res.Fleet.reports 4 in
  Alcotest.(check int) "a member knows its batch" 4 r4.Fleet.batched;
  Alcotest.(check bool) "identical content, identical checksum" true
    (List.for_all
       (fun (r : Fleet.rq_report) ->
         r.Fleet.checksum = (List.hd res.Fleet.reports).Fleet.checksum)
       res.Fleet.reports);
  let solo =
    Fleet.run (fconf ~shards:1 ~batch:1 ~queue_bound:8 ~memo:false ()) specs
  in
  Alcotest.(check int) "batch=1 never merges" 0 solo.Fleet.fleet.Fleet.batches;
  Alcotest.(check bool) "batching finishes the backlog sooner" true
    (res.Fleet.metrics.Metrics.makespan < solo.Fleet.metrics.Metrics.makespan)

let test_work_stealing () =
  (* identical content places everything on one home shard; with
     stealing the idle neighbours drain its backlog *)
  let specs = List.init 8 (fun i -> spec ~at:(float_of_int i *. 2.0) ~seed:5 i) in
  let run steal =
    Fleet.run
      (fconf ~shards:4 ~batch:1 ~steal ~queue_bound:16 ~memo:false ())
      specs
  in
  let stolen = run true and home_only = run false in
  Alcotest.(check int) "everything completes either way" 8
    stolen.Fleet.metrics.Metrics.completed;
  Alcotest.(check bool) "idle shards stole" true
    (stolen.Fleet.fleet.Fleet.steals > 0);
  Alcotest.(check int) "stealing off means zero steals" 0
    home_only.Fleet.fleet.Fleet.steals;
  Alcotest.(check bool) "stealing shortens the backlog" true
    (stolen.Fleet.metrics.Metrics.makespan
    < home_only.Fleet.metrics.Metrics.makespan);
  Alcotest.(check bool) "stolen requests are marked" true
    (List.exists (fun (r : Fleet.rq_report) -> r.Fleet.stolen)
       stolen.Fleet.reports)

(* Minor words of one memo-hot replay of [n] requests on a sequential
   pool, after a first replay has built whatever a launch carries over:
   two contents, four data seeds and one geometry on a two-shard
   homogeneous fleet, so the eight real launches happen in both runs
   and every later request is a memo hit; arrivals 5,000 ticks apart
   never queue more than the batch takes. *)
let control_plane_words n =
  let c =
    fconf ~shards:2 ~batch:4 ~queue_bound:16 ~servers:2 ~retries:2 ~slo:30_000.0
      ~telemetry:true ()
  in
  let specs =
    List.init n (fun i ->
        spec ~at:(float_of_int i *. 5000.0)
          ~kernel:(if i mod 2 = 0 then "saxpy" else "rowsum")
          ~seed:(i / 2 mod 4) ~tenant:(if i mod 3 = 0 then "a" else "b") i)
  in
  let pool = Gpusim.Pool.create () in
  ignore (Fleet.run ~pool c specs : Fleet.result);
  let w0 = Gc.minor_words () in
  let res = Fleet.run ~pool c specs in
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every request completes" n res.Fleet.metrics.Metrics.completed;
  Alcotest.(check int) "eight real launches" (n - 8) res.Fleet.fleet.Fleet.memo_hits;
  w

(* Doubling the trace adds n memo hits and n/4 telemetry windows.
   Measured: 190.3 minor words per extra request (the control plane
   before the event loop stopped copying and sorting allocated 544.3).
   By the allocation sampler, about 45% of it is the window closes
   (each shard's tally change and latency arrays, the window and
   control records, the autoscaler and breaker passes), a quarter is
   the request's terminal report with its list cell, and the rest is
   per request: its pending record and arrival event, the batch record
   with its heap entry, the event pops and aggregation's id-ordered
   array.  The bound is that plus about 20%, as for the evaluator and
   launch-state pins.  The steal sweep's closure and [ref] per idle
   shard at every event read 242 and break it; a record copy per
   launch (7 words) or a list sort of the reports does not. *)
let test_control_plane_words () =
  let n = 2000 in
  let per = (control_plane_words (2 * n) -. control_plane_words n) /. float_of_int n in
  if per > 230.0 then
    Alcotest.failf "control plane: %.1f minor words per extra request (bound 230)" per

(* Steal tie-break: on three shards, chain depth 80 places on shard 0,
   depth 88 on shard 1 and saxpy on shard 2.  At tick 0 each shard
   starts one request, in shard order so that no idle shard steals a
   newcomer, and shards 0 and 1 queue two more each; the short saxpy
   finishes first, and its idle shard must raid the lower of the two
   equally deep queues: shard 0's best entry, request 3. *)
let test_steal_tie_break () =
  let c = fconf ~shards:3 ~batch:1 ~steal:true ~memo:false ~queue_bound:16 () in
  let knobs = c.Fleet.base.Scheduler.knobs in
  let ring = Fleet.make_ring 3 in
  let home (sp : Request.spec) = Fleet.place_hash ring (Fleet.hash_pos (Fleet.content_key ~knobs sp)) in
  let saxpy i = spec ~kernel:"saxpy" i and chain size i = spec ~kernel:"chain" ~size i in
  let specs =
    [ chain 80 0; chain 88 1; saxpy 2; chain 80 3; chain 88 4; chain 80 5; chain 88 6 ]
  in
  Alcotest.(check (list int)) "homes" [ 0; 1; 2; 0; 1; 0; 1 ] (List.map home specs);
  let res = Fleet.run c specs in
  let r id = List.nth res.Fleet.reports id in
  Alcotest.(check bool) "the thief frees up before either victim" true
    ((r 2).Fleet.finish < Float.min (r 0).Fleet.finish (r 1).Fleet.finish);
  let first_steal =
    List.filter (fun (x : Fleet.rq_report) -> x.Fleet.stolen) res.Fleet.reports
    |> List.sort (fun (a : Fleet.rq_report) b -> compare a.Fleet.start b.Fleet.start)
    |> List.hd
  in
  Alcotest.(check int) "the lower shard's best entry is stolen first" 3
    first_steal.Fleet.spec.Request.id;
  Alcotest.(check int) "by the idle shard" 2 first_steal.Fleet.shard;
  Alcotest.(check (float 0.0)) "the moment it freed up" (r 2).Fleet.finish
    first_steal.Fleet.start

(* Stealing is a device-group affair: shards 0 and 2 carry w32-hw,
   shard 1 w64-hw.  A backlog pinned to w64-hw stays on shard 1 however
   idle the others are; one pinned to w32-hw is shared by shards 0 and
   2, and only they run it. *)
let test_steal_stays_in_group () =
  let c =
    fconf ~shards:3 ~batch:1 ~steal:true ~memo:false ~queue_bound:16
      ~devices:(Fleet.parse_devices "w32-hw,w64-hw") ()
  in
  let backlog device =
    Fleet.run c
      (List.init 8 (fun i -> spec ~at:(float_of_int i) ~threads:64 ~seed:i ~device i))
  in
  let w64 = backlog "w64-hw" in
  Alcotest.(check int) "no foreign shard steals" 0 w64.Fleet.fleet.Fleet.steals;
  Alcotest.(check (list int)) "every request ran on its group's one shard"
    (List.init 8 (fun _ -> 1))
    (List.map (fun (x : Fleet.rq_report) -> x.Fleet.shard) w64.Fleet.reports);
  let w32 = backlog "w32-hw" in
  Alcotest.(check bool) "the group's idle member steals" true
    (w32.Fleet.fleet.Fleet.steals > 0);
  Alcotest.(check bool) "and only the group runs it" true
    (List.for_all (fun (x : Fleet.rq_report) -> x.Fleet.shard <> 1) w32.Fleet.reports)

let test_fair_admission () =
  (* a hog fills the only queue; a light newcomer takes the hog's
     newest slot (the evictee is turned away — retries 0), unless the
     hog's configured weight says it deserves the queue *)
  let specs =
    List.init 4 (fun i -> spec ~at:(float_of_int i) ~tenant:"hog" ~seed:2 i)
    @ [ spec ~at:4.0 ~tenant:"light" ~seed:2 4 ]
  in
  let run tenants =
    Fleet.run
      (fconf ~shards:1 ~batch:1 ~queue_bound:3 ~retries:0 ~tenants ()) specs
  in
  let fair = run [] in
  Alcotest.check outcome "the hog's newest request lost its slot"
    Scheduler.Rejected (f_outcome fair 3);
  Alcotest.check outcome "the light tenant kept its seat" Scheduler.Completed
    (f_outcome fair 4);
  Alcotest.(check int) "the eviction is counted" 1
    fair.Fleet.fleet.Fleet.tenant_evictions;
  let hog_stats =
    List.find
      (fun (t : Metrics.tenant_stats) -> t.Metrics.tenant = "hog")
      fair.Fleet.tenant_stats
  in
  Alcotest.(check int) "and billed to the hog" 1 hog_stats.Metrics.t_evicted;
  (* weight 3 entitles the hog to its three slots: same arithmetic now
     turns the newcomer away instead *)
  let weighted = run [ ("hog", 3) ] in
  Alcotest.check outcome "a weighted hog keeps its queue" Scheduler.Completed
    (f_outcome weighted 3);
  Alcotest.check outcome "and the newcomer is the one rejected"
    Scheduler.Rejected (f_outcome weighted 4);
  Alcotest.(check int) "no eviction happened" 0
    weighted.Fleet.fleet.Fleet.tenant_evictions

(* Batching must take its mates out of the queue without reordering
   the rest: the queue is push-front, and fair admission reads its head
   as a tenant's newest entry.  One shard, batch 2: while hog request 0
   runs, 1..6 fill the queue (7 is turned away); 1 and 2 leave as one
   batch; two light arrivals refill the queue and a third forces an
   eviction, which must take the hog's newest entry (6), not its oldest
   (3). *)
let test_batch_keeps_queue_order () =
  let hog i = spec ~at:(float_of_int i) ~tenant:"hog" ~seed:2 i in
  let c = fconf ~shards:1 ~batch:2 ~queue_bound:6 ~memo:false () in
  let first = List.hd (Fleet.run c [ hog 0 ]).Fleet.reports in
  let t = first.Fleet.finish in
  Alcotest.(check bool) "request 0 outlasts the hog's arrivals" true (t > 8.0);
  let light i k =
    spec ~at:(t +. float_of_int k) ~kernel:"rowsum" ~tenant:"light" ~seed:2 i
  in
  let res = Fleet.run c (List.init 8 hog @ [ light 8 1; light 9 2; light 10 3 ]) in
  Alcotest.(check int) "one eviction" 1 res.Fleet.fleet.Fleet.tenant_evictions;
  Alcotest.check outcome "the hog's newest queued request is evicted"
    Scheduler.Rejected (f_outcome res 6);
  Alcotest.check outcome "its oldest queued request keeps its seat"
    Scheduler.Completed (f_outcome res 3);
  Alcotest.check outcome "the light newcomer is admitted" Scheduler.Completed
    (f_outcome res 10)

(* Golden bytes: MD5s of every serialized output of two eviction-free
   replays — a homogeneous fleet shaped like the ledger's serve_hot and
   a four-shape heterogeneous one like serve_cold.  The other serve tests
   compare runs inside one build; these pin the bytes across commits, so
   a host-side change to the simulator or the control plane that moves
   any byte fails here. *)
let golden_hot =
  let slo = 30_000.0 in
  ( fconf ~shards:4 ~batch:8 ~queue_bound:16 ~servers:2 ~cache:32 ~retries:2
      ~slo ~telemetry:true ~decay:2
      ~autoscale:
        {
          Serve.Autoscale.enabled = true;
          slo;
          budget = 8;
          max_extra = 6;
          down = 0.5;
          cooldown = 2;
        }
      (),
    Traffic.(generate (preset "mixed" ~n:3000 ~seed:1)) )

let golden_cold =
  ( fconf ~shards:4 ~batch:8 ~queue_bound:16 ~servers:2 ~cache:128 ~retries:2
      ~telemetry:true
      ~devices:(Fleet.parse_devices "w32-hw,w64-hw,w16-sw,w32-l2tiny")
      (),
    List.map
      (fun (s : Request.spec) ->
        {
          s with
          Request.at = s.Request.at *. 4.0;
          threads = (if s.Request.id mod 3 = 0 then 64 else 32);
          seed = 100 + s.Request.id;
        })
      Traffic.(generate (preset "steady" ~n:160 ~seed:2)) )

let check_md5s c (res : Fleet.result) expected =
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check (list string))
    "snapshot, results, metrics, fleet, telemetry" expected
    (List.map md5
       [
         Fleet.snapshot_json c res;
         Fleet.results_json res.Fleet.reports;
         Metrics.to_json res.Fleet.metrics;
         Fleet.fleet_stats_json res.Fleet.fleet;
         res.Fleet.telemetry;
       ])

let check_golden (c, specs) expected () =
  let res = Fleet.run c specs in
  Alcotest.(check int) "eviction-free" 0 res.Fleet.fleet.Fleet.tenant_evictions;
  check_md5s c res expected

let test_golden_hot =
  check_golden golden_hot
    [
      "277f0832c4d33cdaf8d19c605d5a5856";
      "4907cc32d206a9f13b1ec9b0fc4ca2b1";
      "4367670454fde919fcde4e1c6e273b65";
      "7b6d991bdfad06989a9e6e63b0809654";
      "16283a73162d096feb4d8b9a62103ab8";
    ]

let test_golden_cold =
  check_golden golden_cold
    [
      "f5a19b2b15bcf684ad98c436551f89fa";
      "97f752cbde703cabdcb271b7d7c0b370";
      "5e2b176ffb5c6c7d1143a5f1a5ee7db0";
      "4a8d1977cd51b1f494d532238d745f28";
      "e222a61259117fcfaed76eb25bf8cfed";
    ]

(* The third golden replay pins the event loop's hard cases: a trace
   not in arrival order (neighbours swapped) whose arrivals share ticks
   (rounded to 50), plus a few requests arriving exactly on the finish
   ticks of a first replay — the same replay up to those ticks, since a
   later arrival cannot move an earlier event — so finishes and
   arrivals collide.  Under an armed fault plan the fleet relaunches,
   retries admissions, evicts a tenant and sheds on its SLO, with
   telemetry on; the test asserts each of these happened. *)
let test_golden_chaos () =
  let c =
    fconf ~shards:3 ~batch:4 ~queue_bound:3 ~servers:1 ~cache:16 ~retries:2
      ~backoff:400.0 ~breaker:3
      ~tenants:[ ("alpha", 2) ]
      ~slo:25_000.0 ~window:10_000.0 ~telemetry:true ()
  in
  let base =
    let a = Array.of_list Traffic.(generate (preset "mixed" ~n:300 ~seed:5)) in
    for i = 0 to (Array.length a / 2) - 1 do
      let t = a.(2 * i) in
      a.(2 * i) <- a.((2 * i) + 1);
      a.((2 * i) + 1) <- t
    done;
    Array.to_list
      (Array.map
         (fun (s : Request.spec) ->
           { s with Request.at = Float.round (s.Request.at *. 3.0 /. 50.0) *. 50.0 })
         a)
  in
  with_knobs
    [ ("OMPSIMD_FAULTS", "abort=0.25,flip=0.2:0.5"); ("OMPSIMD_FAULT_SEED", "9") ]
    (fun pool _ ->
      let first = Fleet.run c ~pool base in
      let on_finish =
        List.filter
          (fun (r : Fleet.rq_report) -> r.Fleet.outcome = Scheduler.Completed)
          first.Fleet.reports
        |> List.filteri (fun i _ -> i mod 25 = 0)
        |> List.mapi (fun k (r : Fleet.rq_report) ->
               { r.Fleet.spec with Request.id = 300 + k; at = r.Fleet.finish })
      in
      let specs = on_finish @ base in
      let res = Fleet.run c ~pool specs in
      let m = res.Fleet.metrics in
      let ats = List.map (fun (s : Request.spec) -> s.Request.at) specs in
      let check what b = Alcotest.(check bool) what true b in
      check "the trace is not in arrival order" (ats <> List.sort compare ats);
      check "arrivals share ticks"
        (List.length (List.sort_uniq compare ats) < List.length ats);
      check "arrivals land on finish ticks"
        (List.exists
           (fun (r : Fleet.rq_report) ->
             r.Fleet.start >= 0.0 && List.mem r.Fleet.finish ats)
           res.Fleet.reports);
      check "admission retries" (m.Metrics.retries > 0);
      check "a tenant eviction" (res.Fleet.fleet.Fleet.tenant_evictions > 0);
      check "relaunches" (m.Metrics.relaunches > 0);
      check "SLO shedding" (m.Metrics.shed_slo > 0);
      check "telemetry" (res.Fleet.telemetry <> "");
      check_md5s c res
        [
          "8aca78b3ba4385fc49476b62ee0fa804";
          "4b86144036ffef4cb8e5976cbe574440";
          "cc0a4b5083e9c71bbd3eafff0d52c03e";
          "9b7b1245a13d0e9c7bf822776f8196d5";
          "30807faacdfde03b17b4779999efe96e";
        ])

(* qcheck: the arrival cursor is invisible.  Arrivals given to
   [Eheap.seeded] (in index order, sorted or not) merged with events
   pushed while draining pop exactly as from one heap that had every
   arrival pushed first.  Each pop consumes one script entry and pushes
   zero to two children at the same tick or later, rank 0 or 1, the
   way finishes, retries and relaunches are scheduled; the small time
   ranges make same-tick ties between the cursor and the heap the
   common case. *)
let eheap_cursor_merge =
  QCheck.Test.make ~count:300 ~name:"eheap cursor + heap pops as one heap"
    QCheck.(
      pair
        (list (int_range 0 6))
        (list (triple (int_range 0 2) (int_range 0 1) (int_range 0 2))))
    (fun (arrivals, script) ->
      let script = Array.of_list script in
      let drain h =
        let rec go j acc =
          match Serve.Eheap.pop h with
          | None -> List.rev acc
          | Some (t, label) ->
              (if j < Array.length script then
                 let dt, rank, k = script.(j) in
                 for c = 1 to k do
                   Serve.Eheap.push h (t +. float_of_int dt) rank (-((3 * j) + c))
                 done);
              go (j + 1) ((t, label) :: acc)
        in
        go 0 []
      in
      let same arrivals =
        let times = List.map float_of_int arrivals in
        let one = Serve.Eheap.create () in
        List.iteri (fun i t -> Serve.Eheap.push one t 1 i) times;
        drain one
        = drain (Serve.Eheap.seeded ~rank:1 (Array.of_list times) Fun.id)
      in
      same arrivals && same (List.sort compare arrivals))

(* qcheck: telemetry's printers write exactly the bytes [Printf] does:
   [jf] against "%.3f" over random floats and the edge cases (tiny,
   subnormal, huge, negative, integral, halfway roundings, -0.0,
   infinities, nan), [add_int] against "%d" over random ints and the
   extremes. *)
let telemetry_printers =
  let edge =
    [ 0.0; -0.0; 1e-300; 4.9e-324; -4.9e-324; 0.0005; 0.0015; -0.0025; 1e300;
      Float.max_float; -.Float.max_float; 123456789.0; -42.0; 2.5e15; Float.infinity;
      Float.neg_infinity; Float.nan ]
  in
  let floats =
    QCheck.(
      oneof
        [
          float;
          oneofl edge;
          map (fun x -> x *. 1e-12) float;
          map (fun n -> float_of_int n) int;
          map (fun n -> float_of_int n /. 1000.0) int;
        ])
  in
  let ints = QCheck.(oneof [ int; small_signed_int; oneofl [ 0; 9; 10; -1; max_int; min_int ] ]) in
  QCheck.Test.make ~count:2000 ~name:"telemetry printers print as Printf"
    QCheck.(pair floats ints)
    (fun (x, n) ->
      let b = Buffer.create 32 in
      Serve.Telemetry.jf b x;
      Buffer.add_char b ' ';
      Serve.Telemetry.add_int b n;
      Buffer.contents b = Printf.sprintf "%.3f %d" x n)

(* qcheck: the event heap pops in (time, rank, insertion) order; the
   small time and rank ranges make ties the common case. *)
let eheap_order =
  QCheck.Test.make ~count:200 ~name:"eheap pops in (time, rank, seq) order"
    QCheck.(list (pair (int_range 0 5) (int_range 0 1)))
    (fun evs ->
      let h = Serve.Eheap.create () in
      List.iteri (fun i (t, r) -> Serve.Eheap.push h (float_of_int t) r i) evs;
      let rec drain acc =
        match Serve.Eheap.pop h with
        | None -> List.rev acc
        | Some (_, i) -> drain (i :: acc)
      in
      drain []
      = List.map
          (fun (_, _, i) -> i)
          (List.sort compare (List.mapi (fun i (t, r) -> (t, r, i)) evs)))

let test_traffic_determinism () =
  let p = Traffic.preset "mixed" ~n:50 ~seed:9 in
  let a = Traffic.generate p and b = Traffic.generate p in
  Alcotest.(check bool) "same profile, same trace" true (a = b);
  Alcotest.(check int) "n honored" 50 (List.length a);
  Alcotest.(check bool) "ids are the trace order" true
    (List.for_all2 (fun (s : Request.spec) i -> s.Request.id = i) a
       (List.init 50 Fun.id));
  Alcotest.(check bool) "arrivals are monotone" true
    (fst
       (List.fold_left
          (fun (ok, prev) (s : Request.spec) -> (ok && s.Request.at >= prev, s.Request.at))
          (true, 0.0) a));
  Alcotest.(check bool) "tenants are drawn from the pool" true
    (List.for_all (fun (s : Request.spec) -> List.mem s.Request.tenant p.Traffic.tenants) a);
  match Traffic.preset "nope" ~n:1 ~seed:1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown profile must be rejected"

(* qcheck: whatever the shard count, batch limit, steal setting and
   (sometimes) an armed chaos plan do to the schedule, the fleet loses
   nothing: every request id gets exactly one terminal report and the
   outcome tally adds back up to the trace length. *)
let fleet_no_lost_request =
  QCheck.Test.make ~count:8 ~name:"fleet loses no request"
    QCheck.(triple (int_range 1 5) (oneofl [ 1; 4; 8 ]) small_nat)
    (fun (shards, batch, seed) ->
      let profile =
        List.nth Traffic.preset_names (seed mod List.length Traffic.preset_names)
      in
      let specs = Traffic.(generate (preset profile ~n:25 ~seed)) in
      let env =
        if seed mod 2 = 0 then
          [
            ("OMPSIMD_FAULTS", "abort=0.25,flip=0.2:0.5");
            ("OMPSIMD_FAULT_SEED", string_of_int (seed + 1));
          ]
        else []
      in
      with_knobs env (fun pool _ ->
          let res =
            Fleet.run ~pool
              (fconf ~shards ~batch ~steal:(seed mod 3 <> 0) ~retries:2
                 ~queue_bound:4 ~servers:2 ())
              specs
          in
          let m = res.Fleet.metrics in
          List.length res.Fleet.reports = 25
          && List.for_all2
               (fun (r : Fleet.rq_report) i -> r.Fleet.spec.Request.id = i)
               res.Fleet.reports (List.init 25 Fun.id)
          && m.Metrics.completed + m.Metrics.rejected + m.Metrics.shed
             + m.Metrics.timed_out + m.Metrics.failed + m.Metrics.degraded
             = 25))

(* qcheck: the determinism contract, fleet edition.  The full snapshot
   is byte-identical across pool widths; the
   per-request results are additionally byte-identical across shard
   counts and batch limits on an admission-lossless config (roomy
   queue, deadline-free profile) — even with a chaos plan armed, since
   fault identity is pinned per (request, attempt). *)
let fleet_replay_invariance =
  QCheck.Test.make ~count:4 ~name:"fleet replay invariance"
    QCheck.(pair small_nat bool)
    (fun (seed, armed) ->
      let profile = if seed mod 2 = 0 then "flash" else "bursty" in
      let specs = Traffic.(generate (preset profile ~n:20 ~seed)) in
      let env =
        if armed then
          [
            ("OMPSIMD_FAULTS", "abort=0.3,flip=0.2:0.5");
            ("OMPSIMD_FAULT_SEED", string_of_int (seed + 2));
          ]
        else []
      in
      with_knobs env (fun seq wide ->
          let c = fconf ~shards:2 ~batch:4 ~queue_bound:10_000 ~retries:2
                    ~breaker:0 ~servers:2 ()
          in
          let snap ~pool c = Fleet.snapshot_json c (Fleet.run c ~pool specs) in
          let pool = wide 3 in
          let reference = snap ~pool:seq c in
          let results (shards, batch) =
            Fleet.results_json
              (Fleet.run { c with Fleet.shards; batch } ~pool:seq specs)
                .Fleet.reports
          in
          let r11 = results (1, 1) in
          let ok =
            String.equal reference (snap ~pool c)
            && String.equal r11 (results (3, 8))
            && String.equal r11 (results (4, 1))
          in
          Gpusim.Pool.shutdown pool;
          ok))

(* qcheck: launch batching is semantically invisible.  The same trace
   through one shard with batching on and off yields, per request,
   the same outcome, launch count, execution cycles, checksum bits and
   bit-identical device counters — including under an armed fault
   plan, where the pinned nonce keeps each member's faults its own.
   The memo is off so every report comes from a real launch, and the
   breaker is off because failure ordering differs between merged and
   solo schedules. *)
let fleet_batching_equivalence =
  QCheck.Test.make ~count:6 ~name:"fleet batching equivalence"
    QCheck.(triple (int_range 2 8) small_nat bool)
    (fun (batch, seed, armed) ->
      let specs =
        List.init 12 (fun i ->
            spec
              ~at:(float_of_int (i / 4) *. 100.0)
              ~kernel:(if i mod 2 = 0 then "saxpy" else "rowsum")
              ~size:256 ~teams:2
              ~seed:(1 + (i mod 3))
              i)
      in
      let env =
        if armed then
          [
            ("OMPSIMD_FAULTS", "abort=0.6,flip=0.3:0.5");
            ("OMPSIMD_FAULT_SEED", string_of_int (seed + 3));
          ]
        else []
      in
      with_knobs env (fun pool _ ->
          let run batch =
            (Fleet.run ~pool
               (fconf ~shards:1 ~batch ~memo:false ~breaker:0 ~retries:2
                  ~queue_bound:10_000 ~servers:2 ())
               specs)
              .Fleet.reports
          in
          let batched = run batch and solo = run 1 in
          List.exists (fun (r : Fleet.rq_report) -> r.Fleet.batched >= 2) batched
          && List.for_all2
               (fun (a : Fleet.rq_report) (b : Fleet.rq_report) ->
                 a.Fleet.outcome = b.Fleet.outcome
                 && a.Fleet.launches = b.Fleet.launches
                 && a.Fleet.exec_ticks = b.Fleet.exec_ticks
                 && Int64.bits_of_float a.Fleet.checksum
                    = Int64.bits_of_float b.Fleet.checksum
                 && Gpusim.Counters.equal a.Fleet.counters b.Fleet.counters)
               batched solo))

(* --- heterogeneous fleets ------------------------------------------- *)

let test_parse_devices () =
  (match Fleet.parse_devices "w32-hw, w64-sw" with
  | [ a; b ] ->
      Alcotest.(check string) "first" "w32-hw" a.Gpusim.Config.name;
      Alcotest.(check string) "second" "w64-sw" b.Gpusim.Config.name
  | _ -> Alcotest.fail "expected two devices");
  match Fleet.parse_devices "w32-hw,nope" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the device" true
        (Astring_like.contains msg "nope")
  | _ -> Alcotest.fail "unknown device accepted"

(* A [device=] pin routes to the pinned device's shard when some shard
   carries it AND the request geometry fits it; otherwise the pin is
   ignored and the request replays as if unpinned. *)
let test_device_pin () =
  let devices = Fleet.parse_devices "w32-hw,w64-sw" in
  let mk ?device ?(threads = 32) id =
    spec
      ~at:(float_of_int id *. 100_000.0)
      ~kernel:"saxpy" ~size:64 ~teams:1 ~threads ?device id
  in
  let specs =
    [
      mk ~device:"w64-sw" ~threads:64 0 (* honored *);
      mk ~device:"w64-sw" ~threads:32 1 (* 32 does not fit a 64-warp *);
      mk ~device:"a100q" 2 (* no shard carries it *);
    ]
  in
  let res =
    Fleet.run
      (fconf ~shards:2 ~batch:1 ~steal:false ~memo:false ~devices
         ~queue_bound:100 ~servers:1 ())
      specs
  in
  let r id =
    List.find
      (fun (r : Fleet.rq_report) -> r.Fleet.spec.Request.id = id)
      res.Fleet.reports
  in
  List.iter
    (fun id ->
      Alcotest.check outcome
        (Printf.sprintf "request %d completes" id)
        Scheduler.Completed (r id).Fleet.outcome)
    [ 0; 1; 2 ];
  Alcotest.(check int) "pin lands on the w64 shard" 1 (r 0).Fleet.shard;
  Alcotest.(check int) "unfittable pin stays on w32" 0 (r 1).Fleet.shard;
  Alcotest.(check int) "uncarried pin stays on w32" 0 (r 2).Fleet.shard

(* Geometry the executing device cannot run ends as that request's
   [Failed] instead of aborting the replay.  One w32 shard: 48 threads
   is no warp multiple and 2048 exceeds the block limit, while the
   requests around them complete.  On a w32+w64 fleet, 96 threads fits
   only the w32 group and completes there; 48 fits neither and fails
   wherever the plain ring puts it.  Placement uses the same check, so
   on a w8+w32 fleet simdlen 16 only ever lands on the w32 shard.  A non-finite arrival is refused up
   front, naming the request: the arrival cursor needs a total order. *)
let test_geometry_fails_the_request () =
  let mk ?(threads = 32) id =
    spec ~at:(float_of_int id *. 100_000.0) ~kernel:"saxpy" ~size:64 ~teams:1
      ~threads id
  in
  let outcomes (res : Fleet.result) =
    List.map (fun (r : Fleet.rq_report) -> r.Fleet.outcome) res.Fleet.reports
  in
  let c = fconf ~shards:1 ~batch:4 ~memo:false ~queue_bound:100 () in
  let res = Fleet.run c [ mk 0; mk ~threads:48 1; mk ~threads:2048 2; mk 3 ] in
  Alcotest.(check (list outcome))
    "only the unlaunchable requests fail"
    Scheduler.[ Completed; Failed; Failed; Completed ]
    (outcomes res);
  Alcotest.(check int) "failed counted" 2 res.Fleet.metrics.Metrics.failed;
  Alcotest.(check int) "and never launched" 2 res.Fleet.metrics.Metrics.launches;
  let hetero =
    Fleet.run
      (fconf ~shards:2 ~batch:1 ~memo:false ~queue_bound:100
         ~devices:(Fleet.parse_devices "w32-hw,w64-hw")
         ())
      [ mk ~threads:96 0; mk ~threads:48 1 ]
  in
  Alcotest.(check (list outcome))
    "96 runs on the w32 group, 48 nowhere"
    Scheduler.[ Completed; Failed ]
    (outcomes hetero);
  Alcotest.(check int) "on the w32 shard" 0 (List.hd hetero.Fleet.reports).Fleet.shard;
  (* simdlen 16 does not divide an 8-lane warp: placement keeps every
     such request off the w8 shard (shard 0) *)
  let wide =
    Fleet.run
      (fconf ~shards:2 ~batch:1 ~memo:false ~queue_bound:100
         ~devices:(Fleet.parse_devices "w8-hw,w32-hw")
         ())
      (List.mapi
         (fun i kernel ->
           spec ~at:(float_of_int i *. 100_000.0) ~kernel ~size:(16 + i) ~teams:1
             ~threads:32 ~simdlen:16 i)
         [ "saxpy"; "rowsum"; "stencil"; "hist"; "chain"; "saxpy"; "rowsum" ])
  in
  List.iter
    (fun (r : Fleet.rq_report) ->
      Alcotest.check outcome "simdlen 16 completes" Scheduler.Completed r.Fleet.outcome;
      Alcotest.(check int) "on the w32 shard" 1 r.Fleet.shard)
    wide.Fleet.reports;
  match Fleet.run c [ mk 0; { (mk 7) with Request.at = infinity } ] with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the request" true
        (Astring_like.contains msg "request 7")
  | _ -> Alcotest.fail "a non-finite arrival must be refused"

(* A device whose blocks cannot hold a request's sharing space fails
   that request ([Failed], never launched) and the replay goes on.  At
   8 B of shared memory no kernel fits.  At 300 B, rowsum's reservation
   (one slice per SIMD group plus the team main) does not fit while
   hist's does: the first request of each is decided after its compile,
   the second after a cache hit, and each lands where its first did.
   Neither takes a breaker's probe slot: the request after a failed one
   is still admitted and completes. *)
let test_sharing_fails_the_request () =
  let dev smem =
    {
      (Result.get_ok (Gpusim.Zoo.resolve "w32-hw")) with
      Gpusim.Config.shared_mem_per_block = smem;
    }
  in
  let mk kernel id =
    spec ~at:(float_of_int id *. 100_000.0) ~kernel ~size:32 ~teams:2
      ~threads:64 ~simdlen:8 id
  in
  let run smem specs =
    Fleet.run
      (fconf ~shards:1 ~batch:1 ~memo:false ~queue_bound:100 ~breaker:1
         ~devices:[ dev smem ] ())
      specs
  in
  let outcomes (res : Fleet.result) =
    List.map (fun (r : Fleet.rq_report) -> r.Fleet.outcome) res.Fleet.reports
  in
  let none = run 8 [ mk "rowsum" 0; mk "hist" 1 ] in
  Alcotest.(check (list outcome))
    "8 B: nothing fits" Scheduler.[ Failed; Failed ] (outcomes none);
  Alcotest.(check int) "8 B: nothing launched" 0 none.Fleet.metrics.Metrics.launches;
  let some =
    run 300 [ mk "rowsum" 0; mk "hist" 1; mk "rowsum" 2; mk "hist" 3 ]
  in
  Alcotest.(check (list outcome))
    "300 B: rowsum fails, hist completes"
    Scheduler.[ Failed; Completed; Failed; Completed ]
    (outcomes some);
  Alcotest.(check int) "300 B: failed counted" 2 some.Fleet.metrics.Metrics.failed;
  Alcotest.(check int) "300 B: only hist launched" 2
    some.Fleet.metrics.Metrics.launches

(* The compile window holds fleet-wide: a request that reports [hit] or
   [join] starts no earlier than its content's first compile lands,
   start + compile >= t0 + compile cost, where t0 is the content's
   earliest dispatch.  A report shows that dispatch as its start when
   it launched once, as its finish when it [Failed] without a launch
   (the failure is decided at dispatch), and bounds it by its arrival
   when it launched more than once.  [None] when it holds, else the
   first report that breaks it. *)
let compile_window_broken ~knobs (reports : Fleet.rq_report list) =
  let t0 = Hashtbl.create 16 in
  let key (r : Fleet.rq_report) = Fleet.content_key ~knobs r.Fleet.spec in
  List.iter
    (fun (r : Fleet.rq_report) ->
      let dispatched =
        if r.Fleet.launches = 0 then
          if r.Fleet.outcome = Scheduler.Failed then Some r.Fleet.finish else None
        else if r.Fleet.launches = 1 && r.Fleet.start >= 0.0 then Some r.Fleet.start
        else Some r.Fleet.spec.Request.at
      in
      Option.iter
        (fun d ->
          let k = key r in
          match Hashtbl.find_opt t0 k with
          | Some e when e <= d -> ()
          | _ -> Hashtbl.replace t0 k d)
        dispatched)
    reports;
  List.find_opt
    (fun (r : Fleet.rq_report) ->
      (r.Fleet.cache = Scheduler.C_hit || r.Fleet.cache = Scheduler.C_join)
      &&
      let cost = Scheduler.compile_cost (Request.kernel_of_spec r.Fleet.spec) in
      r.Fleet.start +. r.Fleet.compile_ticks
      < Hashtbl.find t0 (key r) +. cost -. 1e-6)
    reports

(* A compile whose own request fails still opens the window.  Request 0
   compiles rowsum on a device whose blocks cannot hold its sharing
   space and ends [Failed]; requests 1 and 2, pinned to a device that
   can, arrive inside the window that compile opened and join it,
   paying the residual wait, rather than reading the artifact as a free
   hit. *)
let test_failed_compile_opens_the_window () =
  let w32 = Result.get_ok (Gpusim.Zoo.resolve "w32-hw") in
  let tiny =
    { w32 with Gpusim.Config.name = "tiny"; shared_mem_per_block = 300 }
  in
  let mk id device =
    spec ~at:(float_of_int id) ~kernel:"rowsum" ~size:32 ~teams:2 ~threads:64
      ~simdlen:8 ~device id
  in
  let c =
    fconf ~shards:2 ~batch:1 ~memo:false ~queue_bound:100
      ~devices:[ tiny; w32 ] ()
  in
  let res = Fleet.run c [ mk 0 "tiny"; mk 1 "w32-hw"; mk 2 "w32-hw" ] in
  let r i = List.nth res.Fleet.reports i in
  Alcotest.check outcome "the compiling request fails" Scheduler.Failed
    (r 0).Fleet.outcome;
  Alcotest.(check string) "the next one joins its compile" "join"
    (Scheduler.cache_status_to_string (r 1).Fleet.cache);
  let cost = Scheduler.compile_cost (Request.kernel_of_spec (r 1).Fleet.spec) in
  Alcotest.(check (float 0.0)) "and waits out the residual" (cost -. 1.0)
    (r 1).Fleet.compile_ticks;
  Alcotest.(check bool) "the compile window holds" true
    (compile_window_broken ~knobs:c.Fleet.base.Scheduler.knobs res.Fleet.reports
    = None)

(* Directed affinity migration: repeated same-content traffic on a
   two-device fleet first explores (an unmeasured device costs 0, so
   both get a launch), then every later arrival concentrates on the
   device with the lowest observed member cycles.  The trace is spaced
   so each request finishes before the next places. *)
let test_affinity_migration () =
  let devices = Fleet.parse_devices "w32-hw,w32-sw" in
  let specs =
    List.init 10 (fun i ->
        spec
          ~at:(float_of_int i *. 100_000.0)
          ~kernel:"rowsum" ~size:256 ~teams:2 ~seed:(i + 1) i)
  in
  let res =
    Fleet.run
      (fconf ~shards:2 ~batch:1 ~steal:false ~memo:false ~devices
         ~queue_bound:100 ~servers:1 ())
      specs
  in
  let reports = res.Fleet.reports in
  Alcotest.(check int)
    "all completed" 10
    (List.length
       (List.filter
          (fun (r : Fleet.rq_report) -> r.Fleet.outcome = Scheduler.Completed)
          reports));
  let late = List.filteri (fun i _ -> i >= 2) reports in
  let late_shards =
    List.sort_uniq compare
      (List.map (fun (r : Fleet.rq_report) -> r.Fleet.shard) late)
  in
  Alcotest.(check int) "hot content concentrates on one device" 1
    (List.length late_shards);
  Alcotest.(check bool) "affinity moved someone off the plain ring" true
    (res.Fleet.fleet.Fleet.affinity_moves > 0)

(* qcheck: shuffling the device multiset over shard ids changes which
   sid hosts which architecture, but not what any request experiences —
   placement, stealing and affinity all key on device names, so
   [results_json] is byte-identical and no request is lost. *)
let fleet_device_shuffle =
  QCheck.Test.make ~count:4 ~name:"fleet device shuffle invariance"
    QCheck.(pair small_nat (int_range 1 3))
    (fun (seed, rot) ->
      let specs = Traffic.(generate (preset "flash" ~n:20 ~seed)) in
      let devices = Fleet.parse_devices "w32-hw,w64-hw,w16-sw,w32-l2tiny" in
      let n = List.length devices in
      let rotated = List.init n (fun i -> List.nth devices ((i + rot) mod n)) in
      let run devices =
        Fleet.run
          (fconf ~shards:4 ~batch:4 ~devices ~queue_bound:10_000 ~retries:2
             ~breaker:0 ~servers:2 ~decay:(seed mod 3) ())
          specs
      in
      let a = run devices and b = run rotated in
      let m = a.Fleet.metrics in
      String.equal
        (Fleet.results_json a.Fleet.reports)
        (Fleet.results_json b.Fleet.reports)
      && m.Metrics.completed + m.Metrics.rejected + m.Metrics.shed
         + m.Metrics.timed_out + m.Metrics.failed + m.Metrics.degraded
         = 20)

(* Affinity decay for nonstationary traffic: an all-time cost table
   remembers forever — its second request explores the still-unmeasured
   device (an absent entry costs 0, undercutting any measurement), and
   later arrivals concentrate on whichever measured cheapest.  Arrivals
   10 windows apart under a one-window horizon expire every measurement
   before the next request places, so every placement repeats the
   fresh-table decision; a horizon covering the whole trace replays the
   all-time schedule byte-for-byte. *)
let test_affinity_decay () =
  let devices = Fleet.parse_devices "w32-hw,w32-sw" in
  let specs =
    List.init 10 (fun i ->
        spec
          ~at:(float_of_int i *. 100_000.0)
          ~kernel:"rowsum" ~size:256 ~teams:2 ~seed:(i + 1) i)
  in
  let run decay =
    Fleet.run
      (fconf ~shards:2 ~batch:1 ~steal:false ~memo:false ~devices
         ~queue_bound:100 ~servers:1 ~window:10_000.0 ~decay ())
      specs
  in
  let shard_of (res : Fleet.result) id =
    (List.nth res.Fleet.reports id).Fleet.shard
  in
  let sticky = run 0 in
  let first = shard_of sticky 0 in
  Alcotest.(check bool) "all-time table explores the unmeasured device" true
    (shard_of sticky 1 <> first);
  let expired = run 1 in
  List.iteri
    (fun i _ ->
      Alcotest.(check int)
        (Printf.sprintf "expired table repeats the fresh decision for %d" i)
        first (shard_of expired i))
    specs;
  let covered = run 100 in
  Alcotest.(check string) "a covering horizon replays the all-time placement"
    (Fleet.results_json sticky.Fleet.reports)
    (Fleet.results_json covered.Fleet.reports)

(* --- long-run operability: telemetry, SLO admission, autoscaling ----- *)

let operability_autoscale =
  {
    Serve.Autoscale.enabled = true;
    slo = 8_000.0;
    budget = 8;
    max_extra = 6;
    down = 0.5;
    cooldown = 2;
  }

(* The snapshot carries the operability surface: per-shard breaker /
   retry / relaunch / concurrency state and the SLO + autoscale
   sections — and stays byte-identical across pool widths with all of
   it armed. *)
let test_operability_snapshot () =
  let specs = Traffic.(generate (preset "flash" ~n:30 ~seed:11)) in
  let c =
    fconf ~shards:2 ~batch:4 ~queue_bound:16 ~servers:2 ~retries:1
      ~slo:8_000.0 ~telemetry:true ~autoscale:operability_autoscale ()
  in
  let snap ?pool c = Fleet.snapshot_json c (Fleet.run c ?pool specs) in
  let reference = snap c in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in snapshot") true
        (Astring_like.contains reference key))
    [
      "\"breakers_open\"";
      "\"retries\"";
      "\"relaunches\"";
      "\"conc\"";
      "\"shed_slo\"";
      "\"slo\"";
      "\"autoscale\"";
      "\"budget\"";
      "\"window\"";
      "\"shed\"";
    ];
  let pool = Gpusim.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Gpusim.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check string) "pooled replay identical" reference (snap ~pool c))

(* qcheck: the telemetry JSONL is part of the determinism contract —
   byte-identical across pool widths and device
   shuffles (windows key on member labels, never shard ids). *)
let fleet_telemetry_replay =
  QCheck.Test.make ~count:4 ~name:"fleet telemetry byte replay"
    QCheck.(pair small_nat (int_range 1 3))
    (fun (seed, rot) ->
      let specs = Traffic.(generate (preset "flash" ~n:25 ~seed)) in
      let devices = Fleet.parse_devices "w32-hw,w64-hw,w16-sw,w32-l2tiny" in
      let n = List.length devices in
      let rotated = List.init n (fun i -> List.nth devices ((i + rot) mod n)) in
      let c devices =
        fconf ~shards:4 ~batch:4 ~devices ~queue_bound:16 ~retries:2
          ~servers:2 ~slo:8_000.0 ~telemetry:true
          ~autoscale:operability_autoscale ()
      in
      let tele ?pool conf = (Fleet.run conf ?pool specs).Fleet.telemetry in
      let reference = tele (c devices) in
      let pool = Gpusim.Pool.create ~domains:3 () in
      Fun.protect
        ~finally:(fun () -> Gpusim.Pool.shutdown pool)
        (fun () ->
          String.length reference > 0
          && String.equal reference (tele ~pool (c devices))
          && String.equal reference (tele (c rotated))))

(* The integer after ["key": ] in a telemetry line (its first match). *)
let json_int line key =
  let pat = "\"" ^ key ^ "\": " in
  let n = String.length line and k = String.length pat in
  let rec find i =
    if i + k > n then failwith ("no " ^ key ^ " in " ^ line)
    else if String.sub line i k = pat then i + k
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n && line.[!stop] >= '0' && line.[!stop] <= '9' do incr stop done;
  int_of_string (String.sub line start (!stop - start))

let json_label line =
  let pat = "\"shard\": \"" in
  let k = String.length pat in
  let rec find i = if String.sub line i k = pat then i + k else find (i + 1) in
  let start = find 0 in
  String.sub line start (String.index_from line start '"' - start)

(* A w32-hw whose blocks hold 300 B of sharing space: rowsum's
   reservation does not fit, so its requests placed here end [Failed]
   after their compile. *)
let starved =
  {
    (Result.get_ok (Gpusim.Zoo.resolve "w32-hw")) with
    Gpusim.Config.name = "tiny";
    shared_mem_per_block = 300;
  }

(* The tallies agree with each other.  Over one replay with batching,
   stealing, SLO shedding, the autoscaler and a fault plan armed (on a
   heterogeneous fleet, one device starved of sharing space), every
   shard's per-window telemetry counts sum to its [shard_stats]; the
   control lines' grows, shrinks and reopens sum to the metrics; the
   shard breakdown sums to the fleet-wide metrics and fleet stats; and
   the tenants' requests sum to the trace.  The compile window holds
   too ({!compile_window_broken}). *)
let serve_tallies_agree =
  QCheck.Test.make ~count:6 ~name:"fleet tallies agree: telemetry, shards, metrics"
    QCheck.(triple (oneofl [ "mixed"; "flash" ]) bool small_nat)
    (fun (traffic, hetero, seed) ->
      (* every seventh request carries a deadline, so timeouts happen *)
      let specs =
        List.map
          (fun (s : Request.spec) ->
            if s.Request.id mod 7 <> 0 then s
            else { s with Request.deadline = Some (s.Request.at +. 6_000.0) })
          Traffic.(generate (preset traffic ~n:100 ~seed))
      in
      let devices =
        if hetero then Fleet.parse_devices "w32-hw,w64-hw" @ [ starved ] else []
      in
      let c =
        fconf ~shards:4 ~batch:4 ~devices ~queue_bound:4 ~retries:2 ~servers:1
          ~breaker:2 ~slo:15_000.0 ~window:5_000.0 ~telemetry:true
          ~autoscale:operability_autoscale ()
      in
      with_knobs
        [ ("OMPSIMD_FAULTS", "abort=0.4"); ("OMPSIMD_FAULT_SEED", "3") ]
        (fun pool _ ->
          let res = Fleet.run c ~pool specs in
          let m = res.Fleet.metrics and f = res.Fleet.fleet in
          let shards = res.Fleet.shard_stats in
          let seen = Hashtbl.create 4 in
          let label (s : Metrics.shard_stats) =
            let j = Option.value ~default:0 (Hashtbl.find_opt seen s.Metrics.s_device) in
            Hashtbl.replace seen s.Metrics.s_device (j + 1);
            Printf.sprintf "%s/%d" s.Metrics.s_device j
          in
          let labelled = List.map (fun s -> (label s, s)) shards in
          let lines =
            List.filter (( <> ) "") (String.split_on_char '\n' res.Fleet.telemetry)
          in
          let is_shard l = Astring_like.contains l "\"shard\": " in
          let window_sum lbl key =
            List.fold_left
              (fun a l ->
                if is_shard l && json_label l = lbl then a + json_int l key else a)
              0 lines
          in
          let control_sum key =
            List.fold_left
              (fun a l -> if is_shard l then a else a + json_int l key)
              0 lines
          in
          let sum get = List.fold_left (fun a s -> a + get s) 0 shards in
          let fail what want got =
            QCheck.Test.fail_reportf "%s: want %d, got %d" what want got
          in
          let eq what want got = if want <> got then fail what want got in
          List.iter
            (fun (lbl, (s : Metrics.shard_stats)) ->
              List.iter
                (fun (key, want) -> eq (lbl ^ " " ^ key) want (window_sum lbl key))
                [
                  ("launches", s.Metrics.s_launches);
                  ("relaunches", s.Metrics.s_relaunches);
                  ("steals", s.Metrics.s_steals);
                  ("completed", s.Metrics.s_completed);
                  ("shed", s.Metrics.s_shed);
                  ("shed_slo", s.Metrics.s_shed_slo);
                  ("timed_out", s.Metrics.s_timed_out);
                  ("degraded", s.Metrics.s_degraded);
                ])
            labelled;
          eq "grows" m.Metrics.autoscale_grows (control_sum "grows");
          eq "shrinks" m.Metrics.autoscale_shrinks (control_sum "shrinks");
          eq "reopens" m.Metrics.breaker_reopens (control_sum "reopens");
          eq "launches" m.Metrics.launches (sum (fun s -> s.Metrics.s_launches));
          eq "retries" m.Metrics.retries (sum (fun s -> s.Metrics.s_retries));
          eq "relaunches" m.Metrics.relaunches
            (sum (fun s -> s.Metrics.s_relaunches));
          eq "breaker_opens" m.Metrics.breaker_opens
            (sum (fun s -> s.Metrics.s_breaker_opens));
          eq "batches" f.Fleet.batches (sum (fun s -> s.Metrics.s_batches));
          eq "batched_requests" f.Fleet.batched_requests
            (sum (fun s -> s.Metrics.s_batched_requests));
          eq "steals" f.Fleet.steals (sum (fun s -> s.Metrics.s_steals));
          Option.iter
            (fun (r : Fleet.rq_report) ->
              QCheck.Test.fail_reportf "compile window broken: %s" (Fleet.report_line r))
            (compile_window_broken ~knobs:c.Fleet.base.Scheduler.knobs res.Fleet.reports);
          eq "tenant requests" m.Metrics.requests
            (List.fold_left
               (fun a (t : Metrics.tenant_stats) -> a + t.Metrics.t_requests)
               0 res.Fleet.tenant_stats);
          true))

(* The autoscaler control law, exercised directly: the dead band keeps
   a square-wave load from oscillating the target, sustained overload
   grows on the cooldown grid up to the per-shard cap and the pooled
   budget, and recovery returns every token. *)
let test_autoscale_hysteresis () =
  let aconf =
    {
      Serve.Autoscale.enabled = true;
      slo = 1_000.0;
      budget = 4;
      max_extra = 2;
      down = 0.5;
      cooldown = 2;
    }
  in
  let order = [| 0; 1 |] in
  let stat p99 conc = { Serve.Autoscale.p99; queued = 0; conc } in
  let t = Serve.Autoscale.create aconf ~shards:2 in
  let acts = ref 0 in
  for w = 0 to 19 do
    let p99 = if w mod 2 = 0 then 990.0 else 510.0 in
    acts :=
      !acts
      + List.length
          (Serve.Autoscale.step t ~window:w ~order
             ~stats:[| stat p99 2; stat p99 2 |])
  done;
  Alcotest.(check int) "dead band holds a square wave still" 0 !acts;
  let t = Serve.Autoscale.create aconf ~shards:2 in
  let grown = ref [] in
  for w = 0 to 9 do
    List.iter
      (fun (a : Serve.Autoscale.action) ->
        if a.Serve.Autoscale.a_verdict = Serve.Autoscale.Grow
           && a.Serve.Autoscale.a_shard = 0
        then grown := w :: !grown)
      (Serve.Autoscale.step t ~window:w ~order
         ~stats:[| stat 2_000.0 2; stat 2_000.0 2 |])
  done;
  (match List.rev !grown with
  | [] -> Alcotest.fail "never grew under sustained overload"
  | w0 :: rest ->
      Alcotest.(check bool) "cooldown spaces the grows" true
        (fst
           (List.fold_left
              (fun (ok, prev) w ->
                (ok && w - prev >= aconf.Serve.Autoscale.cooldown, w))
              (true, w0) rest)));
  Alcotest.(check int) "per-shard growth capped at max_extra"
    aconf.Serve.Autoscale.max_extra (List.length !grown);
  Alcotest.(check int) "the pool is exhausted, never overdrawn" 0
    (Serve.Autoscale.pool_left t);
  Alcotest.(check int) "the other contender got its share" 2
    (Serve.Autoscale.extra t 1);
  let shrunk = ref 0 in
  for w = 10 to 25 do
    shrunk :=
      !shrunk
      + List.length
          (Serve.Autoscale.step t ~window:w ~order
             ~stats:[| stat 100.0 4; stat 100.0 4 |])
  done;
  Alcotest.(check int) "recovery returns every token"
    aconf.Serve.Autoscale.budget !shrunk;
  Alcotest.(check int) "pool refilled" aconf.Serve.Autoscale.budget
    (Serve.Autoscale.pool_left t);
  let d = Serve.Autoscale.create Serve.Autoscale.disabled ~shards:2 in
  Alcotest.(check int) "disabled never acts" 0
    (List.length
       (Serve.Autoscale.step d ~window:0 ~order
          ~stats:[| stat 5_000.0 1; stat 5_000.0 1 |]));
  Alcotest.(check bool) "no SLO means no autoscaler" false
    Knobs.default.Knobs.fleet.Fleet.autoscale.Serve.Autoscale.enabled

(* --- the circuit breaker ------------------------------------------------ *)

let verdict =
  Alcotest.testable
    (Fmt.of_to_string (function
      | `Admit -> "admit"
      | `Probe -> "probe"
      | `Shed -> "shed"))
    ( = )

(* backoff 100: the cooldown is 8 * 100 = 800 ticks *)
let test_breaker_opens () =
  let b = Serve.Breaker.create ~threshold:2 ~backoff:100.0 in
  Alcotest.check verdict "closed admits" `Admit (Serve.Breaker.admit b "k" ~now:0.0);
  Alcotest.(check bool) "one failure stays closed" false
    (Serve.Breaker.failure b "k" ~now:5.0);
  Alcotest.check verdict "still admitting" `Admit
    (Serve.Breaker.admit b "k" ~now:6.0);
  Alcotest.(check bool) "the threshold opens it" true
    (Serve.Breaker.failure b "k" ~now:10.0);
  Alcotest.(check int) "one open breaker" 1 (Serve.Breaker.open_count b);
  Alcotest.check verdict "other keys are unaffected" `Admit
    (Serve.Breaker.admit b "other" ~now:11.0);
  Alcotest.check verdict "shed inside the cooldown" `Shed
    (Serve.Breaker.admit b "k" ~now:809.0);
  let off = Serve.Breaker.create ~threshold:0 ~backoff:100.0 in
  Alcotest.(check bool) "threshold 0 never opens" false
    (Serve.Breaker.failure off "k" ~now:0.0);
  Alcotest.check verdict "and always admits" `Admit
    (Serve.Breaker.admit off "k" ~now:1.0);
  Alcotest.(check int) "nothing tracked" 0 (Serve.Breaker.open_count off)

let test_breaker_probe () =
  let b = Serve.Breaker.create ~threshold:1 ~backoff:100.0 in
  ignore (Serve.Breaker.failure b "k" ~now:10.0 : bool);
  Alcotest.check verdict "the cooldown's end admits the probe" `Probe
    (Serve.Breaker.admit b "k" ~now:810.0);
  Alcotest.check verdict "exactly one probe in flight" `Shed
    (Serve.Breaker.admit b "k" ~now:811.0);
  Alcotest.(check int) "probing counts as not closed" 1
    (Serve.Breaker.open_count b);
  Alcotest.(check bool) "a failed probe reopens" true
    (Serve.Breaker.failure b "k" ~now:900.0);
  Alcotest.check verdict "a fresh cooldown from the reopen" `Shed
    (Serve.Breaker.admit b "k" ~now:1699.0);
  Alcotest.check verdict "then the next probe" `Probe
    (Serve.Breaker.admit b "k" ~now:1700.0);
  Serve.Breaker.success b "k";
  Alcotest.check verdict "a healthy probe closes" `Admit
    (Serve.Breaker.admit b "k" ~now:1701.0);
  Alcotest.(check int) "nothing open" 0 (Serve.Breaker.open_count b)

let test_breaker_fast_forward () =
  let b = Serve.Breaker.create ~threshold:1 ~backoff:100.0 in
  ignore (Serve.Breaker.failure b "a" ~now:1000.0 : bool);
  ignore (Serve.Breaker.failure b "b" ~now:0.0 : bool);
  ignore (Serve.Breaker.admit b "c" ~now:0.0);
  Alcotest.(check int) "only the breaker still cooling moves" 1
    (Serve.Breaker.fast_forward b ~at:1100.0);
  Alcotest.check verdict "its next dispatch is the probe" `Probe
    (Serve.Breaker.admit b "a" ~now:1100.0);
  Alcotest.(check int) "a probing breaker is not moved again" 0
    (Serve.Breaker.fast_forward b ~at:1200.0);
  Alcotest.check verdict "the closed key still admits" `Admit
    (Serve.Breaker.admit b "c" ~now:1200.0)

let test_priority_order () =
  (* three queued requests drain highest-priority-first *)
  let reports, _ =
    serve (conf ())
      [
        spec ~at:0.0 0;
        spec ~at:1.0 ~priority:0 1;
        spec ~at:2.0 ~priority:5 2;
      ]
  in
  let r1 = List.nth reports 1 and r2 = List.nth reports 2 in
  Alcotest.(check bool) "high priority dispatches first" true
    (r2.Fleet.start < r1.Fleet.start)

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "admission: rejected without retries" `Quick
          test_admission_rejection;
        Alcotest.test_case "admission: retry-with-backoff succeeds" `Quick
          test_retry_success;
        Alcotest.test_case "admission: shed after retry budget" `Quick
          test_shed_after_retries;
        Alcotest.test_case "deadline: expires while queued" `Quick
          test_deadline_expires_queued;
        Alcotest.test_case "deadline: late finish is timed out" `Quick
          test_deadline_late_finish;
        Alcotest.test_case "cache: hit and virtual single-flight join" `Quick
          test_cache_hit_and_virtual_join;
        Alcotest.test_case "cache: LRU eviction at capacity" `Quick
          test_cache_lru_eviction;
        Alcotest.test_case "cache: capacity 0 disables" `Quick
          test_cache_disabled;
        QCheck_alcotest.to_alcotest cache_is_lru;
        Alcotest.test_case "cache: entry survives device failures" `Quick
          test_cache_survives_device_failure;
        Alcotest.test_case "trace parsing and synthesis" `Quick
          test_parse_trace;
        Alcotest.test_case "trace front door: non-finite ticks, empty geometry"
          `Quick test_parse_trace_rejects;
        QCheck_alcotest.to_alcotest trace_never_raises;
        QCheck_alcotest.to_alcotest fleet_specs_never_raise;
        Alcotest.test_case "fleet: an arrival past the window cap is refused" `Quick
          test_arrival_window_cap;
        Alcotest.test_case "replay is pool-invariant" `Quick
          test_deterministic_replay;
        Alcotest.test_case "the walker reproduces every completed request" `Quick
          test_walker_certifies_requests;
        Alcotest.test_case "dispatch is highest-priority-first" `Quick
          test_priority_order;
        Alcotest.test_case "breaker: opens at the threshold, sheds the cooldown"
          `Quick test_breaker_opens;
        Alcotest.test_case "breaker: one half-open probe decides" `Quick
          test_breaker_probe;
        Alcotest.test_case "breaker: fast-forward makes the next dispatch the probe"
          `Quick test_breaker_fast_forward;
        Alcotest.test_case "fleet: tenant parsing and weights" `Quick
          test_tenant_parsing;
        Alcotest.test_case "fleet: consistent-hash placement stability" `Quick
          test_placement_stability;
        Alcotest.test_case "fleet: launch batching merges the backlog" `Quick
          test_fleet_batching;
        Alcotest.test_case "fleet: idle shards steal work" `Quick
          test_work_stealing;
        Alcotest.test_case "alloc: control-plane words per request" `Quick
          test_control_plane_words;
        Alcotest.test_case "fleet: a steal tie goes to the lower shard" `Quick
          test_steal_tie_break;
        Alcotest.test_case "fleet: a thief never raids a foreign device group"
          `Quick test_steal_stays_in_group;
        Alcotest.test_case "fleet: weighted-fair admission evicts the hog"
          `Quick test_fair_admission;
        Alcotest.test_case "fleet: batching keeps the queue's age order"
          `Quick test_batch_keeps_queue_order;
        Alcotest.test_case "fleet: golden bytes, homogeneous" `Quick
          test_golden_hot;
        Alcotest.test_case "fleet: golden bytes, heterogeneous" `Quick
          test_golden_cold;
        Alcotest.test_case "fleet: golden bytes, faults and shedding" `Quick
          test_golden_chaos;
        QCheck_alcotest.to_alcotest eheap_order;
        QCheck_alcotest.to_alcotest telemetry_printers;
        QCheck_alcotest.to_alcotest eheap_cursor_merge;
        Alcotest.test_case "fleet: traffic generator is deterministic" `Quick
          test_traffic_determinism;
        QCheck_alcotest.to_alcotest fleet_no_lost_request;
        QCheck_alcotest.to_alcotest fleet_replay_invariance;
        QCheck_alcotest.to_alcotest fleet_batching_equivalence;
        Alcotest.test_case "fleet: parse_devices" `Quick test_parse_devices;
        Alcotest.test_case "fleet: device pin routes to its group" `Quick
          test_device_pin;
        Alcotest.test_case "fleet: unlaunchable geometry fails the request"
          `Quick test_geometry_fails_the_request;
        Alcotest.test_case "fleet: a sharing space the device cannot hold fails the request"
          `Quick test_sharing_fails_the_request;
        Alcotest.test_case "fleet: a failed request's compile opens the window" `Quick
          test_failed_compile_opens_the_window;
        Alcotest.test_case "fleet: affinity concentrates hot content" `Quick
          test_affinity_migration;
        QCheck_alcotest.to_alcotest fleet_device_shuffle;
        Alcotest.test_case "fleet: affinity decay forgets stale costs" `Quick
          test_affinity_decay;
        Alcotest.test_case "fleet: operability snapshot shape and replay"
          `Quick test_operability_snapshot;
        QCheck_alcotest.to_alcotest fleet_telemetry_replay;
        QCheck_alcotest.to_alcotest serve_tallies_agree;
        Alcotest.test_case "autoscale: hysteresis, cooldown and budget" `Quick
          test_autoscale_hysteresis;
      ] );
  ]
