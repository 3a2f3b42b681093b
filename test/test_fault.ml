(* Ompfault suite: deterministic fault injection, the device watchdog
   and serve-layer recovery.

   The contract under test: with OMPSIMD_FAULTS unset every report is
   bit-identical to a faultless build; with a plan armed, the injected
   faults — and therefore the structured failure reports — are a pure
   function of (seed, launch nonce, block id), so they replay
   identically under the product's evaluator, the reference walker and
   any pool width; and
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
   does, and reach the launches on the pool [Knobs.pool] builds from
   them ([domains] workers, default sequential): a fresh pool per call,
   so every call replays from the plan's first launch. *)
let with_knobs ?(domains = 0) pairs f =
  match Knobs.parse (fun name -> List.assoc_opt name pairs) with
  | Error msg -> Alcotest.fail msg
  | Ok k ->
      let pool = Knobs.pool { k with Knobs.domains } in
      Fun.protect
        ~finally:(fun () -> Gpusim.Pool.shutdown pool)
        (fun () -> f k pool)

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
   instantiate/compile/run path the service takes, minus the service.
   [run] is {!Offload.run} or the reference walker's counterpart. *)
let launch ?pool ?nonce ?(run : Reference.Offload_ref.launch = Offload.run) s =
  let kernel, bindings, out = Request.instantiate s in
  let compiled =
    match Offload.compile kernel with
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
  let report = run ~cfg ?pool ?nonce ~clauses ~bindings compiled in
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
  with_knobs blank_fault_env (fun _ pool ->
      let report, _ = launch ~pool (spec 0) in
      check_int "no failures" 0 (List.length report.Device.failures);
      Alcotest.(check string)
        "fault stats all zero"
        (stats_str Fault.zero_stats)
        (stats_str report.Device.faults);
      check_bool "pp_report omits the fault block" false
        (contains (pp_str report) "faults:");
      check_bool "deadlock capture stays off" true
        (Gpusim.Pool.faults pool = None && Gpusim.Pool.watchdog pool = 0.0))

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, same faults, walker or product x pool      *)
(* ------------------------------------------------------------------ *)

let chaos_env =
  [
    ("OMPSIMD_FAULTS", "abort=0.5,flip=0.35:0.5,stall=0.25");
    ("OMPSIMD_FAULT_SEED", "42");
  ]

let test_fixed_seed_invariance () =
  let run ?domains launcher =
    with_knobs ?domains chaos_env (fun _ pool ->
        let report, sum =
          launch ~pool ~run:launcher (spec ~kernel:"rowsum" ~teams:6 0)
        in
        ( failure_lines report,
          stats_str report.Device.faults,
          Int64.bits_of_float sum ))
  in
  let walk = Reference.Offload_ref.run in
  let staged_seq = run Offload.run in
  let staged_pool = run ~domains:3 Offload.run in
  let walk_seq = run walk in
  let walk_pool = run ~domains:3 walk in
  let lines, _, _ = staged_seq in
  check_bool "the plan actually injected something" true (lines <> []);
  let t =
    Alcotest.(triple (list string) string int64)
  in
  Alcotest.check t "pool matches sequential" staged_seq staged_pool;
  Alcotest.check t "walk engine matches staged" staged_seq walk_seq;
  Alcotest.check t "walk + pool matches too" staged_seq walk_pool

(* The pool counts the plan's launches, the nonce rule replays rely on:
   launches on one pool draw fresh faults, a fresh pool replays from the
   first, and a pinned nonce draws exactly that launch's faults without
   advancing the count. *)
let test_pool_nonce_rule () =
  with_knobs chaos_env (fun k pool ->
      let fired ?nonce pool =
        let report, _ = launch ~pool ?nonce (spec ~kernel:"rowsum" ~teams:6 0) in
        (failure_lines report, stats_str report.Device.faults)
      in
      let a = fired pool in
      let b = fired pool in
      let c = fired pool in
      check_bool "the third launch draws new faults" true (a <> c);
      let fresh = Knobs.pool { k with Knobs.domains = 0 } in
      check_bool "a fresh pool replays from the start" true (fired fresh = a);
      check_bool "a pinned nonce draws that launch's faults" true
        (fired ~nonce:3 fresh = c);
      check_bool "and leaves the pool's count alone" true (fired fresh = b))

(* ------------------------------------------------------------------ *)
(* The injection kinds                                                 *)
(* ------------------------------------------------------------------ *)

let test_abort () =
  with_knobs [ ("OMPSIMD_FAULTS", "abort=1"); ("OMPSIMD_FAULT_SEED", "3") ]
    (fun _ pool ->
      (* enough work that every victim reaches its trigger cycle *)
      let report, _ = launch ~pool (spec ~size:2048 ~teams:2 ~threads:64 0) in
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
    with_knobs blank_fault_env (fun _ pool ->
        snd (launch ~pool (spec ~size:256 0)))
  in
  with_knobs [ ("OMPSIMD_FAULTS", "flip=1:0"); ("OMPSIMD_FAULT_SEED", "3") ]
    (fun _ pool ->
      let report, sum = launch ~pool (spec ~size:256 0) in
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
    (fun _ pool ->
      (* must NOT raise Engine.Deadlock: capture is armed *)
      let report, _ = launch ~pool (spec ~kernel:"rowsum" ~teams:2 0) in
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
  with_knobs [ ("OMPSIMD_WATCHDOG", "1") ] (fun _ pool ->
      let report, _ = launch ~pool (spec 0) in
      check_bool "over-budget blocks reported" true
        (List.exists
           (fun f -> f.Fault.f_kind = Fault.Watchdog)
           report.Device.failures);
      check_bool "watchdogs counted" true
        (report.Device.faults.Fault.watchdogs >= 1));
  with_knobs [ ("OMPSIMD_WATCHDOG", "1e12") ] (fun _ pool ->
      let report, _ = launch ~pool (spec 0) in
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
          | Ompir.Ir.P_farray -> Ompir.Compile.B_farr (Memory.falloc space 8)
          | Ompir.Ir.P_int -> Ompir.Compile.B_int 1
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
  with_knobs [ ("OMPSIMD_FAULTS", "abort=0") ] (fun _ pool ->
      let report =
        Offload.run ~cfg ~pool ~clauses:divergence_clauses ~bindings compiled
      in
      check_bool "the hung block surfaces as a stall failure" true
        (List.exists
           (fun f -> f.Fault.f_kind = Fault.Barrier_stall)
           report.Device.failures);
      check_bool "the failure names the stuck rendezvous" true
        (List.exists
           (fun f -> contains f.Fault.f_barrier "(")
           report.Device.failures);
      check_bool "stall counted" true (report.Device.faults.Fault.stalls >= 1))

(* Stall-report identity around the closing team barrier.
   race_divergence.omp under SPMD groups of two is a teams-SPMD launch
   whose one region is the kernel's last statement: one group's lanes
   meet mismatched warp barriers while every other lane has already
   reached the barrier that closes the region, so the block hangs with
   lanes waiting there as their last action.  The unarmed stall record,
   the watchdog's failure and a stall-fault plan (on a generic-simd
   teams-SPMD saxpy and on the divergent kernel) were recorded before
   any lane could finish at its last barrier; the product's launch and
   the reference walker must both keep them. *)
let divergent_kernel () =
  let kernel =
    Ompir.Parse.kernel_of_file (Filename.concat "conformance" "race_divergence.omp")
  in
  let bindings =
    let space = Memory.space () in
    [
      ("out", Ompir.Compile.B_farr (Memory.falloc space 8));
      ("n", Ompir.Compile.B_int 1);
    ]
  in
  match Offload.compile ~guardize:false kernel with
  | Ok c -> (c, bindings)
  | Error _ -> Alcotest.fail "race_divergence.omp failed to compile"

let stall_record (si : Gpusim.Engine.stall_info) =
  Printf.sprintf "block %d: %d/%d finished, cycle %h, stuck %s"
    si.Gpusim.Engine.stall_block si.Gpusim.Engine.stall_completed
    si.Gpusim.Engine.stall_threads si.Gpusim.Engine.stall_cycle
    (String.concat " "
       (List.map
          (fun (s : Gpusim.Engine.stuck) ->
            Printf.sprintf "%s(%d/%d)" s.Gpusim.Engine.stuck_name
              s.Gpusim.Engine.stuck_waiting s.Gpusim.Engine.stuck_expected)
          si.Gpusim.Engine.stall_stuck))

let failures_record (r : Device.report) =
  String.concat "; "
    (List.map
       (fun f -> Printf.sprintf "%s %h" (Fault.failure_to_string f) f.Fault.f_cycle)
       r.Device.failures)
  ^ " | " ^ stats_str r.Device.faults
  ^ Printf.sprintf " | %h" r.Device.time_cycles

let expected_closing_stall =
  "block 0: 0/32 finished, cycle 0x1.84p+6, stuck lockstep0:00000200(1/2) \
   team0(30/32) warp0:00000200(1/2)"

let expected_closing_watchdog =
  "barrier-stall block 0 at \
   lockstep0:00000200(1/2)+team0(30/32)+warp0:00000200(1/2) cycle 97 \
   0x1.84p+6 | corrected=0 fatal=0 stalls=1 exhausts=0 watchdogs=0 | \
   0x1.f4p+10"

let expected_closing_plan_generic =
  "barrier-stall block 0 warp 0 tid 0 at lockstep0:00000800 \
   cycle 130 0x1.04p+7; barrier-stall block 2 warp 1 tid 32 \
   at warp1:00000800 cycle 388 0x1.84p+8 | corrected=0 fatal=0 \
   stalls=2 exhausts=0 watchdogs=0 | 0x1.0f4681b4e81b6p+12 \
   | 0x1.f6a4p+19"

let expected_closing_plan_two_level =
  "barrier-stall block 0 warp 0 tid 0 at team0 cycle 325 0x1.45p+8 \
   | corrected=0 fatal=0 stalls=1 exhausts=0 watchdogs=0 | \
   0x1.c7f947ae147aep+11 | 0x1.ff8p+19"

let expected_closing_plan_divergent =
  "barrier-stall block 0 at lockstep0:00000200(1/2)+team0(30/32)+warp0:00000200(1/2) \
   cycle 97 0x1.84p+6 | corrected=0 fatal=0 stalls=1 exhausts=0 \
   watchdogs=0 | 0x1.f4p+10"

let engines = [ Offload.run; Reference.Offload_ref.run ]

let test_closing_stall_unarmed () =
  List.iter
    (fun (run : Reference.Offload_ref.launch) ->
      let c, bindings = divergent_kernel () in
      match run ~cfg ~clauses:divergence_clauses ~bindings c with
      | _ -> Alcotest.fail "the divergent launch must deadlock"
      | exception Gpusim.Engine.Deadlock _ -> (
          match Gpusim.Engine.take_stall () with
          | None -> Alcotest.fail "a deadlock must leave its stall record"
          | Some si ->
              Alcotest.(check string)
                "stall record" expected_closing_stall (stall_record si)))
    engines

let test_closing_stall_watchdog () =
  List.iter
    (fun (run : Reference.Offload_ref.launch) ->
      let c, bindings = divergent_kernel () in
      with_knobs [ ("OMPSIMD_WATCHDOG", "1e12") ] (fun _ pool ->
          let report =
            run ~cfg ~pool ~clauses:divergence_clauses ~bindings c
          in
          Alcotest.(check string)
            "watchdog failure" expected_closing_watchdog
            (failures_record report)))
    engines

let test_closing_stall_plan () =
  let saxpy () =
    let kernel =
      Ompir.Parse.kernel_of_file (Filename.concat "conformance" "saxpy.omp")
    in
    let space = Memory.space () in
    let y = Memory.falloc space 1024 in
    let x = Memory.of_float_array space (Array.init 1024 float_of_int) in
    let bindings =
      [
        ("x", Ompir.Compile.B_farr x);
        ("y", Ompir.Compile.B_farr y);
        ("a", Ompir.Compile.B_float 2.0);
        ("n", Ompir.Compile.B_int 1024);
      ]
    in
    match Offload.compile kernel with
    | Ok c -> (c, bindings, y)
    | Error _ -> Alcotest.fail "saxpy.omp failed to compile"
  in
  let teams_spmd = Clause.(none |> num_teams 4 |> num_threads 64 |> teams_mode Mode.Spmd) in
  let launches =
    [
      (* generic simd: the victims are SIMD workers and mains *)
      ( "generic saxpy",
        Clause.(teams_spmd |> simdlen 8 |> parallel_mode Mode.Generic),
        expected_closing_plan_generic );
      (* singleton groups: the closing barrier is the only rendezvous *)
      ("two-level saxpy", teams_spmd, expected_closing_plan_two_level);
    ]
  in
  (* a fresh pool per launch: each replays the plan's first launch *)
  let with_plan f =
    with_knobs [ ("OMPSIMD_FAULTS", "stall=1"); ("OMPSIMD_FAULT_SEED", "1") ] f
  in
  List.iter
    (fun (run : Reference.Offload_ref.launch) ->
      List.iter
        (fun (what, clauses, expected) ->
          with_plan (fun _ pool ->
              let c, bindings, y = saxpy () in
              let report = run ~cfg ~pool ~clauses ~bindings c in
              Alcotest.(check string)
                what expected
                (failures_record report
                ^ Printf.sprintf " | %h" (Request.checksum y))))
        launches;
      with_plan (fun _ pool ->
          let c, bindings = divergent_kernel () in
          let report =
            run ~cfg ~pool ~clauses:divergence_clauses ~bindings c
          in
          Alcotest.(check string)
            "divergent kernel" expected_closing_plan_divergent
            (failures_record report)))
    engines

(* ------------------------------------------------------------------ *)
(* Sharing-space exhaustion and the genuine global fallback            *)
(* ------------------------------------------------------------------ *)

(* A generic-mode region with a 12-pointer payload whose SIMD body
   writes through global memory: results must not depend on where the
   payload copies live (variable-sharing slice vs global fallback). *)
let sharing_run ~pool ?(sharing_bytes = 4096) () =
  let space = Memory.space () in
  let data = Memory.falloc space 64 in
  let payload =
    Payload.of_list (List.init 12 (fun _ -> Payload.Farr data))
  in
  let params =
    { Team.num_teams = 2; num_threads = 64; teams_mode = Mode.Spmd; sharing_bytes }
  in
  let report =
    Target.launch ~cfg ~pool ~params ~dispatch_table_size:2 (fun ctx ->
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
    with_knobs blank_fault_env (fun _ pool -> sharing_run ~pool ())
  in
  Alcotest.(check (float 0.0))
    "roomy slices never fall back" 0.0 (fallbacks clean_report);
  with_knobs [ ("OMPSIMD_FAULTS", "exhaust=1"); ("OMPSIMD_FAULT_SEED", "3") ]
    (fun _ pool ->
      let report, sum = sharing_run ~pool () in
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
  with_knobs blank_fault_env (fun _ pool ->
      let roomy_report, roomy_sum = sharing_run ~pool ~sharing_bytes:4096 () in
      let tight_report, tight_sum = sharing_run ~pool ~sharing_bytes:128 () in
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
    (fun _ pool ->
      let reports, m = serve ~pool (conf ~retries:2 ()) [ spec 0 ] in
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
    (fun _ pool ->
      let specs =
        List.init 6 (fun i ->
            spec ~at:(float_of_int i *. 40000.0) ~teams:1 ~seed:(i + 1) i)
      in
      let reports, m = serve ~pool (conf ~retries:3 ()) specs in
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
    (fun _ pool ->
      let heavy ~at id = spec ~at ~size:2048 ~teams:2 ~threads:64 id in
      let reports, m =
        serve ~pool
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
    (fun _ pool ->
      let x ?(threads = 64) ~at id = spec ~at ~size:2048 ~teams:2 ~threads id in
      let reports, m =
        serve ~pool
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
     plan, sequential and pooled — byte-identical snapshots (the walker
     replays the same plan launch by launch in "fixed seed") *)
  let specs = Request.synthetic ~n:12 ~seed:3 () in
  let c = conf ~retries:2 ~breaker:3 ~backoff:800.0 () in
  let snap ?domains () =
    with_knobs ?domains chaos_env (fun k pool ->
        let fc = one_shard { c with Scheduler.knobs = k.Knobs.compile } in
        Fleet.snapshot_json fc (Fleet.run fc ~pool specs))
  in
  let seq = snap () in
  let pooled = snap ~domains:3 () in
  check_bool "the chaos plan actually fired" true
    (contains seq "\"degraded\"" || contains seq "launches\": 2"
   || contains seq "launches\": 3");
  Alcotest.(check string) "pool matches sequential" seq pooled

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
        (fun _ pool ->
          let specs =
            List.init 6 (fun i ->
                spec
                  ~at:(float_of_int i *. 30000.0)
                  ~kernel:(if i mod 2 = 0 then "saxpy" else "rowsum")
                  ~teams:2 ~seed:(i + 1) i)
          in
          let reports, m =
            serve ~pool (conf ~retries:2 ~breaker:3 ()) specs
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

(* ------------------------------------------------------------------ *)
(* The launch context: settings travel on the pool, never globally     *)
(* ------------------------------------------------------------------ *)

(* Two launches with different settings run at the same time on two
   domains — one sanitized, one under an armed plan with a watchdog —
   and each reports exactly what it reports alone: neither sees the
   other's sanitizer, faults, nonce or aborted findings. *)
let test_concurrent_contexts () =
  let race =
    Ompir.Parse.kernel_of_file (Filename.concat "conformance" "race_global.omp")
  in
  let race_c =
    match Offload.compile ~guardize:false ~racecheck:false race with
    | Ok c -> c
    | Error _ -> Alcotest.fail "race_global.omp failed to compile"
  in
  (* one array for every sanitized run: findings name its space id *)
  let space = Memory.space () in
  let out = Memory.falloc space 64 in
  let race_clauses =
    Clause.(
      none |> num_teams 2 |> num_threads 32 |> simdlen 8
      |> parallel_mode Mode.Spmd)
  in
  let sanitized () =
    Memory.l2_reset space;
    Memory.fill out 0.0;
    let pool = Gpusim.Pool.create ~sanitize:true () in
    pp_str
      (Offload.run ~cfg ~pool ~clauses:race_clauses
         ~bindings:[ ("out", Ompir.Compile.B_farr out); ("n", Ompir.Compile.B_int 64) ]
         race_c)
  in
  let plan = Fault.parse_spec ~seed:42 "abort=0.5,flip=0.35:0.5,stall=0.25" in
  let faulted () =
    let pool = Gpusim.Pool.create ~faults:plan ~watchdog:3000.0 () in
    let report, sum = launch ~pool (spec ~kernel:"rowsum" ~teams:6 0) in
    (pp_str report, Int64.bits_of_float sum)
  in
  let alone_san = sanitized () and alone_fault = faulted () in
  check_bool "the sanitized launch finds the race" true
    (contains alone_san "sanitizer: data race");
  check_bool "and carries no fault section" false (contains alone_san "faults:");
  check_bool "the faulted launch fails blocks" true
    (contains (fst alone_fault) "failure:");
  check_bool "and carries no sanitizer section" false
    (contains (fst alone_fault) "sanitizer:");
  let rounds = 4 in
  let other = Domain.spawn (fun () -> List.init rounds (fun _ -> faulted ())) in
  let here = List.init rounds (fun _ -> sanitized ()) in
  let there = Domain.join other in
  List.iter
    (Alcotest.(check string) "sanitized: same report as alone" alone_san)
    here;
  List.iter
    (Alcotest.(check (pair string int64)) "faulted: same report as alone"
       alone_fault)
    there

(* A pooled atomic-heavy launch beside a domain looping sequential
   launches: the lock decision is each launch's own, so the pooled
   launch stays exact and terminates however the two interleave. *)
let test_pooled_atomics_beside_sequential () =
  let grid = 32 and block = 128 and per_thread = 8 and cells = 16 in
  let atomics ?pool () =
    let a = Memory.ialloc (Memory.space ()) cells in
    ignore
      (Device.launch ~cfg ?pool ~grid ~block
         ~init:(fun ~block_id:_ _ -> ())
         ~body:(fun () th ->
           for k = 0 to per_thread - 1 do
             ignore
               (Memory.atomic_iadd a th ((th.Gpusim.Thread.tid + k) mod cells) 1)
           done)
         ());
    Array.fold_left ( + ) 0 (Memory.to_int_array a)
  in
  let expected = grid * block * per_thread in
  let started = Atomic.make false and stop = Atomic.make false in
  let looper =
    Domain.spawn (fun () ->
        let bad = ref 0 in
        while not (Atomic.get stop) do
          if atomics () <> expected then incr bad;
          Atomic.set started true
        done;
        !bad)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let pool = Gpusim.Pool.create ~domains:1 () in
  let sums = List.init 6 (fun _ -> atomics ~pool ()) in
  Atomic.set stop true;
  let bad = Domain.join looper in
  Gpusim.Pool.shutdown pool;
  List.iter (check_int "pooled launch is exact" expected) sums;
  check_int "sequential launches stay exact" 0 bad

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "disarmed: bit-identical reports" `Quick
          test_disarmed_identity;
        Alcotest.test_case "fixed seed: engine- and pool-invariant" `Quick
          test_fixed_seed_invariance;
        Alcotest.test_case "pool: the nonce rule" `Quick
          test_pool_nonce_rule;
        Alcotest.test_case "abort: failed blocks reported" `Quick test_abort;
        Alcotest.test_case "flip: corrected, counted, bit-identical" `Quick
          test_flip_corrected;
        Alcotest.test_case "stall: captured, not raised" `Quick
          test_stall_captured;
        Alcotest.test_case "watchdog: cycle budget enforced" `Quick
          test_watchdog;
        Alcotest.test_case "divergence: captured under an armed plan" `Quick
          test_divergence_captured;
        Alcotest.test_case "closing barrier: unarmed stall record" `Quick
          test_closing_stall_unarmed;
        Alcotest.test_case "closing barrier: watchdog failure" `Quick
          test_closing_stall_watchdog;
        Alcotest.test_case "closing barrier: stall-fault plan" `Quick
          test_closing_stall_plan;
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
        Alcotest.test_case "chaos replay is pool-invariant" `Quick
          test_serve_chaos_replay;
        QCheck_alcotest.to_alcotest recovery_invariant;
      ] );
    ( "launch-context",
      [
        Alcotest.test_case "concurrent launches keep their own settings" `Quick
          test_concurrent_contexts;
        Alcotest.test_case "pooled atomics beside sequential launches" `Quick
          test_pooled_atomics_beside_sequential;
      ] );
  ]
