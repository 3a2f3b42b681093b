(* Ompfault suite: deterministic fault injection, the device watchdog
   and serve-layer recovery.

   The contract under test: with OMPSIMD_FAULTS unset every report is
   bit-identical to a faultless build; with a plan armed, the injected
   faults — and therefore the structured failure reports — are a pure
   function of (seed, launch nonce, block id), so they replay
   identically across both evaluation engines and any pool width; and
   the serve layer never loses a request to a device fault: it ends
   Completed (possibly after relaunches) or explicitly Degraded. *)

module Memory = Gpusim.Memory
module Counters = Gpusim.Counters
module Fault = Gpusim.Fault
module Device = Gpusim.Device
module Offload = Openmp.Offload
module Clause = Openmp.Clause
module Scheduler = Serve.Scheduler
module Fleet = Serve.Fleet
module Request = Serve.Request
module Metrics = Serve.Metrics
module Mode = Omprt.Mode
module Payload = Omprt.Payload
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

let cfg = Gpusim.Config.small
let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The fault knobs go through the same parse a user's environment
   does; [Knobs.with_installed] restores the previous switches
   afterwards, so later suites (and the experiment launches) run
   disarmed. *)
let with_knobs pairs f =
  match Knobs.parse (fun name -> List.assoc_opt name pairs) with
  | Error msg -> Alcotest.fail msg
  | Ok k -> Knobs.with_installed k (fun () -> f k)

let spec ?(at = 0.0) ?(kernel = "saxpy") ?(size = 64) ?(teams = 4)
    ?(threads = 32) ?(simdlen = 8) ?deadline ?(priority = 0) ?(seed = 1) id =
  {
    Request.id;
    at;
    kernel;
    size;
    teams;
    threads;
    simdlen;
    guardize = false;
    deadline;
    priority;
    seed;
    tenant = "-";
    device = None;
  }

(* One device-level launch of a serve catalog template: the same
   instantiate/compile/run path the service takes, minus the service. *)
let launch ?pool ?(knobs = Offload.default_knobs) s =
  let kernel, bindings, out = Request.instantiate s in
  let compiled =
    match Offload.compile_with ~knobs kernel with
    | Ok c -> c
    | Error _ -> Alcotest.fail "catalog kernel failed to compile"
  in
  let clauses =
    Clause.(
      none
      |> num_teams s.Request.teams
      |> num_threads s.Request.threads
      |> simdlen s.Request.simdlen)
  in
  let report = Offload.run ~cfg ?pool ~clauses ~bindings compiled in
  (report, Request.checksum out)

let failure_lines (r : Device.report) =
  List.map Fault.failure_to_string r.Device.failures

let stats_str (s : Fault.stats) =
  Printf.sprintf "corrected=%d fatal=%d stalls=%d exhausts=%d watchdogs=%d"
    s.Fault.corrected s.Fault.fatal s.Fault.stalls s.Fault.exhausts
    s.Fault.watchdogs

let pp_str r = Format.asprintf "%a" Device.pp_report r

let blank_fault_env =
  [
    ("OMPSIMD_FAULTS", "");
    ("OMPSIMD_FAULT_SEED", "");
    ("OMPSIMD_WATCHDOG", "");
  ]

(* ------------------------------------------------------------------ *)
(* Disarmed: bit-identical to a faultless build                        *)
(* ------------------------------------------------------------------ *)

let test_disarmed_identity () =
  with_knobs blank_fault_env (fun _ ->
      let report, _ = launch (spec 0) in
      check_int "no failures" 0 (List.length report.Device.failures);
      Alcotest.(check string)
        "fault stats all zero"
        (stats_str Fault.zero_stats)
        (stats_str report.Device.faults);
      check_bool "pp_report omits the fault block" false
        (contains (pp_str report) "faults:");
      check_bool "deadlock capture stays off" false (Fault.capture_deadlocks ()))

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, same faults, every engine x pool            *)
(* ------------------------------------------------------------------ *)

let chaos_env =
  [
    ("OMPSIMD_FAULTS", "abort=0.5,flip=0.35:0.5,stall=0.25");
    ("OMPSIMD_FAULT_SEED", "42");
  ]

let test_fixed_seed_invariance () =
  let run ?pool engine =
    with_knobs (("OMPSIMD_EVAL", engine) :: chaos_env) (fun k ->
        Fault.reset ();
        let report, sum =
          launch ?pool ~knobs:k.Knobs.compile (spec ~kernel:"rowsum" ~teams:6 0)
        in
        ( failure_lines report,
          stats_str report.Device.faults,
          Int64.bits_of_float sum ))
  in
  let pool = Gpusim.Pool.create ~domains:3 () in
  let staged_seq = run "compile" in
  let staged_pool = run ~pool "compile" in
  let walk_seq = run "walk" in
  let walk_pool = run ~pool "walk" in
  let lines, _, _ = staged_seq in
  check_bool "the plan actually injected something" true (lines <> []);
  let t =
    Alcotest.(triple (list string) string int64)
  in
  Alcotest.check t "pool matches sequential" staged_seq staged_pool;
  Alcotest.check t "walk engine matches staged" staged_seq walk_seq;
  Alcotest.check t "walk + pool matches too" staged_seq walk_pool;
  (* reset rewinds the launch nonce: an in-place replay is identical *)
  let replay =
    with_knobs (("OMPSIMD_EVAL", "compile") :: chaos_env) (fun _ ->
        Fault.reset ();
        let r1, s1 = launch (spec ~kernel:"rowsum" ~teams:6 0) in
        Fault.reset ();
        let r2, s2 = launch (spec ~kernel:"rowsum" ~teams:6 0) in
        ( (failure_lines r1, stats_str r1.Device.faults, Int64.bits_of_float s1),
          (failure_lines r2, stats_str r2.Device.faults, Int64.bits_of_float s2)
        ))
  in
  Alcotest.check t "reset replays the identical faults" (fst replay)
    (snd replay)

(* Installing the configuration keeps the nonce rule replays rely on:
   re-installing an unchanged plan continues the launch sequence, a
   changed plan rewinds it. *)
let test_install_nonce_rule () =
  let plan = Fault.parse_spec ~seed:42 "abort=0.5,flip=0.35:0.5,stall=0.25" in
  let armed = { Knobs.default with Knobs.faults = Some plan } in
  let fired () =
    let report, _ = launch (spec ~kernel:"rowsum" ~teams:6 0) in
    (failure_lines report, stats_str report.Device.faults)
  in
  let three ~between =
    Knobs.with_installed armed (fun () ->
        let a = fired () in
        let b = fired () in
        between ();
        (a, b, fired ()))
  in
  let a, _, c = three ~between:ignore in
  check_bool "the third launch draws new faults" true (a <> c);
  let _, _, c' = three ~between:(fun () -> Knobs.install armed) in
  check_bool "an unchanged plan keeps the nonce" true (c = c');
  let _, _, c'' =
    three ~between:(fun () ->
        Knobs.install Knobs.default;
        Knobs.install armed)
  in
  check_bool "a changed plan rewinds it" true (a = c'')

(* ------------------------------------------------------------------ *)
(* The injection kinds                                                 *)
(* ------------------------------------------------------------------ *)

let test_abort () =
  with_knobs [ ("OMPSIMD_FAULTS", "abort=1"); ("OMPSIMD_FAULT_SEED", "3") ]
    (fun _ ->
      (* enough work that every victim reaches its trigger cycle *)
      let report, _ = launch (spec ~size:2048 ~teams:2 ~threads:64 0) in
      check_bool "failures reported" true (report.Device.failures <> []);
      check_bool "all of them are aborts" true
        (List.for_all
           (fun f -> f.Fault.f_kind = Fault.Block_abort)
           report.Device.failures);
      check_bool "fatal counted" true (report.Device.faults.Fault.fatal >= 1);
      let pp = pp_str report in
      check_bool "pp_report prints the fault block" true (contains pp "faults:");
      check_bool "pp_report prints each failure" true (contains pp "failure:"))

let test_flip_corrected () =
  let clean_sum =
    with_knobs blank_fault_env (fun _ -> snd (launch (spec ~size:256 0)))
  in
  with_knobs [ ("OMPSIMD_FAULTS", "flip=1:0"); ("OMPSIMD_FAULT_SEED", "3") ]
    (fun _ ->
      let report, sum = launch (spec ~size:256 0) in
      check_int "corrected flips never fail a block" 0
        (List.length report.Device.failures);
      check_bool "corrections counted" true
        (report.Device.faults.Fault.corrected >= 1);
      check_bool "the corrected counter reaches the device counters" true
        (Counters.get_extra report.Device.counters "fault.ecc_corrected" >= 1.0);
      Alcotest.(check int64)
        "corrected run is bit-identical to the clean one"
        (Int64.bits_of_float clean_sum) (Int64.bits_of_float sum))

let test_stall_captured () =
  with_knobs [ ("OMPSIMD_FAULTS", "stall=1"); ("OMPSIMD_FAULT_SEED", "3") ]
    (fun _ ->
      (* must NOT raise Engine.Deadlock: capture is armed *)
      let report, _ = launch (spec ~kernel:"rowsum" ~teams:2 0) in
      check_bool "stall failures reported" true
        (List.exists
           (fun f -> f.Fault.f_kind = Fault.Barrier_stall)
           report.Device.failures);
      check_bool "stall names its barrier" true
        (List.exists
           (fun f ->
             f.Fault.f_kind = Fault.Barrier_stall && f.Fault.f_barrier <> "")
           report.Device.failures);
      check_bool "stalls counted" true (report.Device.faults.Fault.stalls >= 1))

let test_watchdog () =
  with_knobs [ ("OMPSIMD_WATCHDOG", "1") ] (fun _ ->
      let report, _ = launch (spec 0) in
      check_bool "over-budget blocks reported" true
        (List.exists
           (fun f -> f.Fault.f_kind = Fault.Watchdog)
           report.Device.failures);
      check_bool "watchdogs counted" true
        (report.Device.faults.Fault.watchdogs >= 1));
  with_knobs [ ("OMPSIMD_WATCHDOG", "1e12") ] (fun _ ->
      let report, _ = launch (spec 0) in
      check_int "a generous budget reports nothing" 0
        (List.length report.Device.failures))

(* Satellite: an armed plan (even all-zero rates) converts a genuine
   divergence deadlock into a structured Barrier_stall failure instead
   of raising — no sanitizer involved. *)
let divergence_clauses =
  Clause.(
    none |> num_teams 1 |> num_threads 32 |> simdlen 2
    |> parallel_mode Mode.Spmd)

let test_divergence_captured () =
  let kernel =
    Ompir.Parse.kernel_of_file (Filename.concat "conformance" "race_divergence.omp")
  in
  let space = Memory.space () in
  let bindings =
    List.map
      (fun (p : Ompir.Ir.param) ->
        let b =
          match p.Ompir.Ir.pty with
          | Ompir.Ir.P_farray -> Ompir.Eval.B_farr (Memory.falloc space 8)
          | Ompir.Ir.P_int -> Ompir.Eval.B_int 1
          | _ -> Alcotest.fail "unexpected param in race_divergence.omp"
        in
        (p.Ompir.Ir.pname, b))
      kernel.Ompir.Ir.params
  in
  let compiled =
    match Offload.compile ~guardize:false ~racecheck:true kernel with
    | Ok c -> c
    | Error _ -> Alcotest.fail "race_divergence.omp failed to compile"
  in
  with_knobs [ ("OMPSIMD_FAULTS", "abort=0") ] (fun _ ->
      let report = Offload.run ~cfg ~clauses:divergence_clauses ~bindings compiled in
      check_bool "the hung block surfaces as a stall failure" true
        (List.exists
           (fun f -> f.Fault.f_kind = Fault.Barrier_stall)
           report.Device.failures);
      check_bool "the failure names the stuck rendezvous" true
        (List.exists
           (fun f -> contains f.Fault.f_barrier "(")
           report.Device.failures);
      check_bool "stall counted" true (report.Device.faults.Fault.stalls >= 1))

(* ------------------------------------------------------------------ *)
(* Sharing-space exhaustion and the genuine global fallback            *)
(* ------------------------------------------------------------------ *)

(* A generic-mode region with a 12-pointer payload whose SIMD body
   writes through global memory: results must not depend on where the
   payload copies live (variable-sharing slice vs global fallback). *)
let sharing_run ?(sharing_bytes = 4096) () =
  let space = Memory.space () in
  let data = Memory.falloc space 64 in
  let payload =
    Payload.of_list (List.init 12 (fun _ -> Payload.Farr data))
  in
  let params =
    { Team.num_teams = 2; num_threads = 64; teams_mode = Mode.Spmd; sharing_bytes }
  in
  let report =
    Target.launch ~cfg ~params ~dispatch_table_size:2 (fun ctx ->
        Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:8 ~payload ~fn_id:0
          (fun ctx _ ->
            Workshare.distribute_parallel_for ctx ~trip:64 (fun i ->
                Simd.simd ctx ~payload ~fn_id:1 ~trip:8 (fun ctx j _ ->
                    let th = ctx.Team.th in
                    (* overlapping writers store the same value per slot,
                       so the result is placement-independent *)
                    let slot = ((i * 8) + j) mod 64 in
                    Memory.fset data th slot (float_of_int slot +. 1.0)))))
  in
  let sum = ref 0.0 in
  for i = 0 to 63 do
    sum := !sum +. Memory.host_get data i
  done;
  (report, !sum)

let fallbacks (r : Device.report) =
  Counters.get_extra r.Device.counters "sharing.global_fallbacks"

let test_exhaust_forces_fallback () =
  let clean_report, clean_sum =
    with_knobs blank_fault_env (fun _ -> sharing_run ())
  in
  Alcotest.(check (float 0.0))
    "roomy slices never fall back" 0.0 (fallbacks clean_report);
  with_knobs [ ("OMPSIMD_FAULTS", "exhaust=1"); ("OMPSIMD_FAULT_SEED", "3") ]
    (fun _ ->
      let report, sum = sharing_run () in
      check_bool "exhaustion counted" true
        (report.Device.faults.Fault.exhausts >= 1);
      check_bool "acquires forced onto the global fallback" true
        (fallbacks report >= 1.0);
      check_int "no failures: exhaustion degrades, it does not kill" 0
        (List.length report.Device.failures);
      Alcotest.(check int64)
        "fallback placement is bit-identical"
        (Int64.bits_of_float clean_sum) (Int64.bits_of_float sum))

(* Satellite: the same fallback, exercised for real — a payload larger
   than the per-group slice, no fault plan involved. *)
let test_genuine_fallback_bit_identical () =
  with_knobs blank_fault_env (fun _ ->
      let roomy_report, roomy_sum = sharing_run ~sharing_bytes:4096 () in
      let tight_report, tight_sum = sharing_run ~sharing_bytes:128 () in
      Alcotest.(check (float 0.0))
        "roomy config stays in the shared slice" 0.0 (fallbacks roomy_report);
      check_bool "tight config falls back to global memory" true
        (fallbacks tight_report >= 1.0);
      Alcotest.(check int64)
        "both placements compute identical results"
        (Int64.bits_of_float roomy_sum) (Int64.bits_of_float tight_sum))

(* ------------------------------------------------------------------ *)
(* Serve-layer recovery                                                *)
(* ------------------------------------------------------------------ *)

let conf ?(queue_bound = 16) ?(servers = 2) ?(cache = 8) ?(retries = 2)
    ?(backoff = 200.0) ?(breaker = 0) () =
  {
    Knobs.default.Knobs.fleet.Fleet.base with
    Scheduler.cfg;
    queue_bound;
    servers;
    cache_capacity = cache;
    max_retries = retries;
    backoff;
    breaker;
  }

(* The single-device service: a fleet of one shard with batching,
   stealing and the launch memo off. *)
let one_shard c =
  { Knobs.default.Knobs.fleet with Fleet.base = c; steal = false; memo = false }

let serve ?pool c specs =
  let res = Fleet.run ?pool (one_shard c) specs in
  (res.Fleet.reports, res.Fleet.metrics)

let outcome =
  Alcotest.testable (Fmt.of_to_string Scheduler.outcome_to_string) ( = )

let test_serve_degraded_after_retries () =
  with_knobs [ ("OMPSIMD_FAULTS", "abort=1"); ("OMPSIMD_FAULT_SEED", "7") ]
    (fun _ ->
      let reports, m = serve (conf ~retries:2 ()) [ spec 0 ] in
      let r = List.nth reports 0 in
      Alcotest.check outcome "retries exhausted: degraded" Scheduler.Degraded
        r.Fleet.outcome;
      check_int "original launch + two relaunches" 3 r.Fleet.launches;
      check_int "every launch failed" 3 m.Metrics.device_failures;
      check_int "two relaunches scheduled" 2 m.Metrics.relaunches;
      check_int "degraded counted" 1 m.Metrics.degraded;
      check_int "nothing recovered" 0 m.Metrics.recovered;
      check_bool "fatal faults folded into metrics" true
        (m.Metrics.faults_fatal >= 3))

let test_serve_recovery () =
  (* a 50% per-block abort rate on single-block kernels: each relaunch
     draws fresh faults (the launch nonce), so with a relaunch budget
     most requests complete and — with this seed — at least one does so
     on a second or later launch *)
  with_knobs [ ("OMPSIMD_FAULTS", "abort=0.5"); ("OMPSIMD_FAULT_SEED", "11") ]
    (fun _ ->
      let specs =
        List.init 6 (fun i ->
            spec ~at:(float_of_int i *. 40000.0) ~teams:1 ~seed:(i + 1) i)
      in
      let reports, m = serve (conf ~retries:3 ()) specs in
      check_bool "every outcome is Completed or Degraded" true
        (List.for_all
           (fun r ->
             r.Fleet.outcome = Scheduler.Completed
             || r.Fleet.outcome = Scheduler.Degraded)
           reports);
      check_bool "at least one request recovered" true (m.Metrics.recovered >= 1);
      check_int "recovered = completions that needed > 1 launch"
        (List.length
           (List.filter
              (fun r ->
                r.Fleet.outcome = Scheduler.Completed
                && r.Fleet.launches > 1)
              reports))
        m.Metrics.recovered;
      check_int "every failure was relaunched or ended Degraded"
        (m.Metrics.relaunches
        + List.length
            (List.filter
               (fun r ->
                 r.Fleet.outcome = Scheduler.Degraded
                 && r.Fleet.launches > 0)
               reports))
        m.Metrics.device_failures)

let test_serve_breaker () =
  (* always-fatal plan, breaker threshold 2, no relaunch budget: the
     first two requests fail and open the kernel's breaker, the third
     (arriving well inside the cooldown) is shed without launching.
     The kernels carry enough work that every victim block reaches its
     trigger cycle, whatever fault nonce the launch draws, and all three
     arrive inside one telemetry window: a failure-free window would
     fast-forward the open breaker to its half-open probe. *)
  with_knobs [ ("OMPSIMD_FAULTS", "abort=1"); ("OMPSIMD_FAULT_SEED", "7") ]
    (fun _ ->
      let heavy ~at id = spec ~at ~size:2048 ~teams:2 ~threads:64 id in
      let reports, m =
        serve
          (conf ~servers:1 ~retries:0 ~breaker:2 ~backoff:1_000_000.0 ())
          [ heavy ~at:0.0 0; heavy ~at:5_000.0 1; heavy ~at:10_000.0 2 ]
      in
      Alcotest.check outcome "first degraded" Scheduler.Degraded
        (List.nth reports 0).Fleet.outcome;
      Alcotest.check outcome "second degraded" Scheduler.Degraded
        (List.nth reports 1).Fleet.outcome;
      let r2 = List.nth reports 2 in
      Alcotest.check outcome "third shed by the open breaker"
        Scheduler.Degraded r2.Fleet.outcome;
      check_int "the shed request never launched" 0 r2.Fleet.launches;
      check_int "breaker opened once" 1 m.Metrics.breaker_opens;
      check_int "only the first two launched" 2 m.Metrics.launches)

let test_serve_breaker_probe_geometry () =
  (* The breaker keys on content, not geometry.  With this plan and
     seed the first two launches of content X fail and open its
     breaker; after the cooldown the first X dispatch has a thread
     count the 32-wide device cannot run.  It ends Failed without
     taking the half-open probe, so the next, launchable X request is
     the probe: it launches, completes and closes the breaker, and the
     X request after it completes too.  Were the probe slot taken by
     the unlaunchable request, the breaker would stay half-open and
     shed both unlaunched. *)
  with_knobs [ ("OMPSIMD_FAULTS", "abort=0.5"); ("OMPSIMD_FAULT_SEED", "1") ]
    (fun _ ->
      let x ?(threads = 64) ~at id = spec ~at ~size:2048 ~teams:2 ~threads id in
      let reports, m =
        serve
          (conf ~servers:1 ~retries:0 ~breaker:2 ~backoff:1_000.0 ())
          [
            x ~at:0.0 0;
            x ~at:5_000.0 1;
            x ~threads:48 ~at:1_000_000.0 2;
            x ~at:1_100_000.0 3;
            x ~at:2_000_000.0 4;
          ]
      in
      Alcotest.(check (list outcome))
        "the breaker opens, the bad geometry fails, the probe closes it"
        Scheduler.[ Degraded; Degraded; Failed; Completed; Completed ]
        (List.map (fun r -> r.Fleet.outcome) reports);
      Alcotest.(check (list int))
        "only the unlaunchable request never launched" [ 1; 1; 0; 1; 1 ]
        (List.map (fun r -> r.Fleet.launches) reports);
      check_int "breaker opened once" 1 m.Metrics.breaker_opens)

let test_serve_chaos_replay () =
  (* the determinism contract under fire: one trace, an armed chaos
     plan, four engine x pool combinations — byte-identical snapshots *)
  let specs = Request.synthetic ~n:12 ~seed:3 () in
  let c = conf ~retries:2 ~breaker:3 ~backoff:800.0 () in
  let snap ?pool engine =
    with_knobs (("OMPSIMD_EVAL", engine) :: chaos_env) (fun k ->
        let fc = one_shard { c with Scheduler.knobs = k.Knobs.compile } in
        Fleet.snapshot_json fc (Fleet.run fc ?pool specs))
  in
  let pool = Gpusim.Pool.create ~domains:3 () in
  let staged_seq = snap "compile" in
  let staged_pool = snap ~pool "compile" in
  let walk_seq = snap "walk" in
  let walk_pool = snap ~pool "walk" in
  check_bool "the chaos plan actually fired" true
    (contains staged_seq "\"degraded\"" || contains staged_seq "launches\": 2"
   || contains staged_seq "launches\": 3");
  Alcotest.(check string) "pool matches sequential" staged_seq staged_pool;
  Alcotest.(check string) "walk engine matches staged" staged_seq walk_seq;
  Alcotest.(check string) "walk + pool matches too" staged_seq walk_pool

(* qcheck: under any plan and seed, no deadline and a roomy queue, the
   service loses nothing — every request ends Completed or Degraded,
   every device failure is accounted for (it either scheduled a
   relaunch or ended in a budget-exhausted Degraded report; a Degraded
   report with fewer launches is a breaker shed, possible only after
   the breaker opened), and the recovered counter is exactly the
   completions that needed more than one launch. *)
let recovery_invariant =
  QCheck.Test.make ~count:12 ~name:"serve recovery invariant"
    QCheck.(
      triple (oneofl [ 0.0; 0.3; 0.7; 1.0 ]) (oneofl [ 0.0; 0.4 ])
        small_nat)
    (fun (abort, stall, seed) ->
      let plan = Printf.sprintf "abort=%g,flip=0.3:0.5,stall=%g" abort stall in
      with_knobs
        [
          ("OMPSIMD_FAULTS", plan);
          ("OMPSIMD_FAULT_SEED", string_of_int seed);
        ]
        (fun _ ->
          let specs =
            List.init 6 (fun i ->
                spec
                  ~at:(float_of_int i *. 30000.0)
                  ~kernel:(if i mod 2 = 0 then "saxpy" else "rowsum")
                  ~teams:2 ~seed:(i + 1) i)
          in
          let reports, m =
            serve (conf ~retries:2 ~breaker:3 ()) specs
          in
          List.length reports = 6
          && List.for_all
               (fun r ->
                 (r.Fleet.outcome = Scheduler.Completed
                 || r.Fleet.outcome = Scheduler.Degraded)
                 && r.Fleet.launches <= 3)
               reports
          && m.Metrics.device_failures
             = m.Metrics.relaunches
               + List.length
                   (List.filter
                      (fun r ->
                        r.Fleet.outcome = Scheduler.Degraded
                        && r.Fleet.launches = 3)
                      reports)
          && List.for_all
               (fun r ->
                 r.Fleet.outcome <> Scheduler.Degraded
                 || r.Fleet.launches = 3
                 || m.Metrics.breaker_opens >= 1)
               reports
          && m.Metrics.recovered
             = List.length
                 (List.filter
                    (fun r ->
                      r.Fleet.outcome = Scheduler.Completed
                      && r.Fleet.launches > 1)
                    reports)))

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "disarmed: bit-identical reports" `Quick
          test_disarmed_identity;
        Alcotest.test_case "fixed seed: engine- and pool-invariant" `Quick
          test_fixed_seed_invariance;
        Alcotest.test_case "install: the nonce rule" `Quick
          test_install_nonce_rule;
        Alcotest.test_case "abort: failed blocks reported" `Quick test_abort;
        Alcotest.test_case "flip: corrected, counted, bit-identical" `Quick
          test_flip_corrected;
        Alcotest.test_case "stall: captured, not raised" `Quick
          test_stall_captured;
        Alcotest.test_case "watchdog: cycle budget enforced" `Quick
          test_watchdog;
        Alcotest.test_case "divergence: captured under an armed plan" `Quick
          test_divergence_captured;
        Alcotest.test_case "exhaust: forced global fallback" `Quick
          test_exhaust_forces_fallback;
        Alcotest.test_case "sharing: genuine fallback is bit-identical" `Quick
          test_genuine_fallback_bit_identical;
      ] );
    ( "fault-serve",
      [
        Alcotest.test_case "degraded after the relaunch budget" `Quick
          test_serve_degraded_after_retries;
        Alcotest.test_case "relaunch recovers transient failures" `Quick
          test_serve_recovery;
        Alcotest.test_case "circuit breaker sheds a failing kernel" `Quick
          test_serve_breaker;
        Alcotest.test_case "unlaunchable geometry never takes the probe" `Quick
          test_serve_breaker_probe_geometry;
        Alcotest.test_case "chaos replay is engine- and pool-invariant" `Quick
          test_serve_chaos_replay;
        QCheck_alcotest.to_alcotest recovery_invariant;
      ] );
  ]
