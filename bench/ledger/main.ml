(* bench/ledger/main.exe — the performance ledger (see README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1   one workload
     main.exe --seed N [--seconds S] [--trace 0|1] [--json F] all four
     main.exe --smoke                                         quick check

   One workload runs in this process and prints its metrics, then one
   JSON object as the last line of stdout: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  Without --workload
   every workload runs in a fresh child process, one at a time.  All
   simulation is sequential (a zero-domain pool). *)

module Stats = Ompsimd_util.Stats
module Counters = Gpusim.Counters
module Device = Gpusim.Device
module Fleet = Serve.Fleet
module Metrics = Serve.Metrics

type metric = { name : string; value : float; unit_ : string }

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6
let ratio a b = if b = 0.0 then 0.0 else a /. b
let median l = if l = [] then 0.0 else Stats.median (Array.of_list l)
let percentile a p = if Array.length a = 0 then 0.0 else Stats.percentile a p

(* The ledger measures the library's defaults: an inherited knob would
   silently change what every number means. *)
let refuse_inherited_env () =
  let set =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i when String.starts_with ~prefix:"OMPSIMD_" kv -> Some (String.sub kv 0 i)
           | _ -> None)
  in
  if set <> [] then begin
    Printf.eprintf "ledger: refusing to run with %s set; unset %s\n"
      (String.concat ", " set)
      (if List.length set = 1 then "it" else "them");
    exit 2
  end

(* --- what every iteration must repeat ------------------------------------ *)

let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

let counters_key (c : Counters.t) =
  let f = c.Counters.f in
  let extras =
    Hashtbl.fold
      (fun k (v : Counters.cell) acc -> if v.Counters.c = 0.0 then acc else (k ^ "=" ^ bits v.Counters.c) :: acc)
      c.Counters.extras []
    |> List.sort compare
  in
  String.concat ";"
    (List.map bits
       [ f.Counters.lane_busy_cycles; f.Counters.dram_bytes; f.Counters.smem_bytes; f.Counters.lsu_transactions ]
    @ List.map string_of_int
        Counters.
          [ c.global_loads; c.global_stores; c.line_hits; c.line_misses; c.l2_hits; c.atomics;
            c.warp_barriers; c.block_barriers; c.calls ]
    @ extras)

(* Simulated cycles and counters of every launch, or the fleet's
   results, metrics, fleet counters and telemetry stream. *)
let digest = function
  | Load.Sim launches ->
      List.map
        (fun (l : Load.launch) ->
          bits (Workloads.Harness.time l.Load.run) ^ "|" ^ counters_key l.Load.run.Workloads.Harness.report.Device.counters)
        launches
      |> String.concat "\n" |> Digest.string |> Digest.to_hex
  | Load.Served res ->
      String.concat "\n"
        [ Fleet.results_json res.Fleet.reports; Metrics.to_json res.Fleet.metrics;
          Fleet.fleet_stats_json res.Fleet.fleet; res.Fleet.telemetry ]
      |> Digest.string |> Digest.to_hex

type facts = {
  attempted : int;
  failed : int;
  vlat : float array;  (* virtual latency of each completed operation, ticks *)
  lane_busy : float;  (* simulated lane-busy cycles of the real launches *)
}

(* An operation is a kernel launch in the sim workloads, a request in
   the serve workloads. *)
let facts (p : Load.prepared) = function
  | Load.Sim launches ->
      let reports = List.map (fun (l : Load.launch) -> l.Load.run.Workloads.Harness.report) launches in
      {
        attempted = List.length reports;
        failed = List.length (List.filter (fun r -> r.Device.failures <> []) reports);
        vlat = Array.of_list (List.map (fun r -> r.Device.time_cycles) reports);
        lane_busy = List.fold_left (fun acc r -> acc +. Counters.busy_cycles r.Device.counters) 0.0 reports;
      }
  | Load.Served res ->
      let setup = Option.get p.Load.serve in
      let rs = res.Fleet.reports in
      let completed = List.filter (fun (r : Fleet.rq_report) -> r.Fleet.outcome = Serve.Scheduler.Completed) rs in
      {
        attempted = List.length rs;
        failed =
          List.length
            (List.filter
               (fun (r : Fleet.rq_report) ->
                 r.Fleet.outcome = Serve.Scheduler.Failed || r.Fleet.outcome = Serve.Scheduler.Degraded)
               rs);
        vlat = Array.of_list (List.map (fun (r : Fleet.rq_report) -> r.Fleet.latency) completed);
        lane_busy =
          List.fold_left
            (fun acc (r : Fleet.rq_report) -> acc +. Counters.busy_cycles r.Fleet.counters)
            0.0 (Load.real_launches setup.Load.conf res);
      }

let verify_outputs = function
  | Load.Sim launches ->
      List.filter_map
        (fun (l : Load.launch) ->
          match l.Load.check l.Load.run.Workloads.Harness.output with
          | Ok () -> None
          | Error e -> Some (Printf.sprintf "%s output: %s" l.Load.kernel e))
        launches
  | Load.Served _ -> []

(* --- per-layer counts over a set of launches ------------------------------- *)

let device_metrics (reports : Device.report list) =
  let sumi f = float_of_int (List.fold_left (fun acc r -> acc + f r.Device.counters) 0 reports) in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 reports in
  let extra k = sumf (fun r -> Counters.get_extra r.Device.counters k) in
  let hits = sumi (fun c -> c.Counters.line_hits) and l2 = sumi (fun c -> c.Counters.l2_hits) in
  let dram = sumi (fun c -> c.Counters.line_misses) in
  (* the roofline leg a launch's time sits on *)
  let leg (b : Gpusim.Occupancy.breakdown) =
    let legs =
      Gpusim.Occupancy.
        [ ("compute", b.compute_bound); ("memory", b.memory_bound); ("lsu", b.lsu_bound);
          ("latency", b.latency_bound) ]
    in
    fst (List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv)) ("", neg_infinity) legs)
  in
  let bound name =
    float_of_int (List.length (List.filter (fun r -> leg r.Device.breakdown = name) reports))
  in
  let c n v = { name = n; value = v; unit_ = "count" } in
  [
    c "omprt.launches" (float_of_int (List.length reports));
    c "omprt.parallel_regions" (extra "parallel.regions");
    c "omprt.simd_generic_regions" (extra "simd.generic_regions");
    c "omprt.simd_spmd_regions" (extra "simd.spmd_regions");
    c "omprt.simd_sm_rounds" (extra "simd.state_machine_rounds");
    c "omprt.simd_sequential" (extra "simd.sequential");
    c "gpusim.blocks" (float_of_int (List.fold_left (fun acc r -> acc + r.Device.grid) 0 reports));
    { name = "gpusim.sim_mcyc"; value = sumf (fun r -> r.Device.time_cycles) /. 1e6; unit_ = "Mcyc" };
    { name = "gpusim.lane_busy_mcyc"; value = sumf (fun r -> Counters.busy_cycles r.Device.counters) /. 1e6;
      unit_ = "Mcyc" };
    c "gpusim.warp_barriers" (sumi (fun c -> c.Counters.warp_barriers));
    c "gpusim.block_barriers" (sumi (fun c -> c.Counters.block_barriers));
    c "gpusim.global_loads" (sumi (fun c -> c.Counters.global_loads));
    c "gpusim.global_stores" (sumi (fun c -> c.Counters.global_stores));
    c "gpusim.atomics" (sumi (fun c -> c.Counters.atomics));
    { name = "gpusim.line_hit_rate"; value = ratio hits (hits +. l2 +. dram); unit_ = "fraction" };
    { name = "gpusim.l2_hit_rate"; value = ratio l2 (l2 +. dram); unit_ = "fraction" };
    { name = "gpusim.dram_mb"; value = sumf (fun r -> Counters.dram_bytes r.Device.counters) /. 1e6; unit_ = "MB" };
    { name = "gpusim.smem_mb"; value = sumf (fun r -> Counters.smem_bytes r.Device.counters) /. 1e6; unit_ = "MB" };
    c "gpusim.lsu_transactions" (sumf (fun r -> Counters.lsu_transactions r.Device.counters));
    c "gpusim.bound_compute" (bound "compute");
    c "gpusim.bound_memory" (bound "memory");
    c "gpusim.bound_lsu" (bound "lsu");
  ]

(* Serve-layer counts of one fleet run: zeros for the sim workloads,
   which never reach the serve layer. *)
let serve_metrics serve =
  let get f = match serve with Some (setup, res) -> f setup res | None -> 0.0 in
  let fleet f = get (fun _ res -> float_of_int (f res.Fleet.metrics res.Fleet.fleet)) in
  let mean g =
    get (fun _ res ->
        let launched = List.filter (fun (r : Fleet.rq_report) -> r.Fleet.batched > 0) res.Fleet.reports in
        ratio (List.fold_left (fun acc r -> acc +. g r) 0.0 launched) (float_of_int (List.length launched)))
  in
  let c n v = { name = n; value = v; unit_ = "count" } in
  let t n v = { name = n; value = v; unit_ = "ticks" } in
  [
    { name = "serve.memo_hit_rate";
      value = get (fun _ res -> ratio (float_of_int res.Fleet.fleet.Fleet.memo_hits) (float_of_int res.Fleet.metrics.Metrics.launches));
      unit_ = "fraction" };
    { name = "serve.cache_hit_rate"; value = get (fun _ res -> Metrics.cache_hit_rate res.Fleet.metrics); unit_ = "fraction" };
    c "serve.cache_misses" (fleet (fun m _ -> m.Metrics.cache_misses));
    c "serve.cache_joins" (fleet (fun m _ -> m.Metrics.cache_joins));
    c "serve.batches" (fleet (fun _ f -> f.Fleet.batches));
    { name = "serve.batch_occupancy";
      value = get (fun _ res -> ratio (float_of_int res.Fleet.fleet.Fleet.batched_requests) (float_of_int res.Fleet.fleet.Fleet.batches));
      unit_ = "requests" };
    c "serve.steals" (fleet (fun _ f -> f.Fleet.steals));
    c "serve.queue_max" (fleet (fun m _ -> m.Metrics.queue_max));
    t "serve.queue_wait_ticks" (mean (fun r -> r.Fleet.start -. r.Fleet.spec.Serve.Request.at));
    t "serve.compile_ticks" (mean (fun r -> r.Fleet.compile_ticks));
    t "serve.exec_ticks" (mean (fun r -> r.Fleet.exec_ticks));
    t "serve.makespan_ticks" (get (fun _ res -> res.Fleet.metrics.Metrics.makespan));
    c "serve.autoscale_grows" (fleet (fun m _ -> m.Metrics.autoscale_grows));
    c "serve.affinity_moves" (fleet (fun _ f -> f.Fleet.affinity_moves));
    { name = "serve.telemetry_bytes"; value = get (fun _ res -> float_of_int (String.length res.Fleet.telemetry));
      unit_ = "bytes" };
    { name = "serve.slo_miss_frac"; value = get (fun s res -> Load.miss_frac ~limit:s.Load.limit res.Fleet.reports);
      unit_ = "fraction" };
  ]

(* --- child processes ----------------------------------------------------------- *)

(* Run this executable with [args]; its stdout lines and whether it
   exited 0.  The child has ended when this returns. *)
let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.append [| exe |] args) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = read [] in
  (lines, Unix.close_process_in ic = Unix.WEXITED 0)

let last = function [] -> "" | l -> List.nth l (List.length l - 1)

(* Set-up time of a fresh process: program entry to the end of the
   warm-up iteration. *)
let probe ~name ~seed =
  let lines, ok = spawn [| "--setup-probe"; name; "--seed"; string_of_int seed |] in
  match float_of_string_opt (last lines) with
  | Some s when ok -> s
  | _ -> failwith (Printf.sprintf "setup probe for %s failed" name)

(* --- one workload ------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;  (* [] unless traced *)
  errors : string list;
}

let setup_probes = 5
let vrate_probes = 8

(* Set-up is the process's CPU time from its start to the end of the
   warm-up iteration, normalized by the host's speed right after it;
   [speed] is that factor. *)
type setup = { generate_ms : float; setup_s : float; speed : float }

let setup ~name ~seed ~size m ~pool =
  let p = Meter.group m ~layer:"bench" ~name:"setup" (fun () -> Load.prepare name m ~pool ~seed size) in
  let generate_ms = m.Meter.ns /. 1e6 in
  let warm = Meter.group m ~layer:"bench" ~name:"warm-up" (fun () -> p.Load.iterate ()) in
  let cpu_s = Meter.now_ns () /. 1e9 in
  let speed = Meter.speed () in
  (p, warm, { generate_ms = generate_ms *. speed; setup_s = cpu_s *. speed; speed })

let print_self_times m =
  let layers = Meter.self_times m in
  let total = List.fold_left (fun acc (l : Meter.layer_time) -> acc +. l.Meter.self_ns) 0.0 layers in
  Printf.printf "self time by layer (every traced span):\n";
  Printf.printf "  %-10s %8s %12s %12s %7s\n" "layer" "calls" "total ms" "self ms" "self %";
  List.iter
    (fun (l : Meter.layer_time) ->
      Printf.printf "  %-10s %8d %12.1f %12.1f %6.1f%%\n" l.Meter.layer l.Meter.calls
        (l.Meter.total_ns /. 1e6) (l.Meter.self_ns /. 1e6) (100.0 *. ratio l.Meter.self_ns total))
    layers

(* Everything a run needs from the warm-up iteration.  The warm-up's own
   result is dropped before timing: left live, the library's major GC
   would mark it on every cycle of every timed iteration. *)
type inspected = {
  digest0 : string;
  facts0 : facts;
  reports : Device.report list;  (* the real launches *)
  claims : (string * bool) list;
  replay : Load.replay option;
  replay_spans : (int * int * float) list;
      (* span-id range and host speed of each traced replay *)
  serve_counts : metric list;
  warm_errors : string list;
}

(* The fleet's real work is replayed outside it on every run (that is
   the serve output check).  A traced run replays [traced_replays] times
   under spans, and per-layer costs read the fastest replay. *)
let traced_replays = 3

let inspect m ~pool (p : Load.prepared) warm =
  let replays =
    match (p.Load.serve, warm) with
    | Some s, Load.Served res ->
        List.init
          (if m.Meter.tracing then traced_replays else 1)
          (fun _ ->
            let before = if m.Meter.tracing then Meter.speed () else 1.0 in
            let lo = m.Meter.next_id in
            let r =
              Meter.group m ~layer:"bench" ~name:"replay" (fun () -> Load.replay m ~pool s.Load.conf res)
            in
            let hi = m.Meter.next_id in
            let after = if m.Meter.tracing then Meter.speed () else 1.0 in
            (r, (lo, hi, (before +. after) /. 2.0)))
    | _ -> []
  in
  let replay = match replays with (r, _) :: _ -> Some r | [] -> None in
  {
    digest0 = digest warm;
    facts0 = facts p warm;
    reports =
      (match (warm, replay) with
      | Load.Sim l, _ -> List.map (fun (l : Load.launch) -> l.Load.run.Workloads.Harness.report) l
      | Load.Served _, Some r -> r.Load.reports
      | Load.Served _, None -> []);
    claims = (match warm with Load.Sim l -> Load.claims l | Load.Served _ -> []);
    replay;
    replay_spans = (if m.Meter.tracing then List.map snd replays else []);
    serve_counts =
      serve_metrics (match (p.Load.serve, warm) with Some s, Load.Served res -> Some (s, res) | _ -> None);
    warm_errors = verify_outputs warm @ (match replay with Some r -> r.Load.errors | None -> []);
  }

(* One timed iteration: its host CPU time inside library calls, that
   time normalized by the host's speed measured just before and just
   after it, and its minor-heap words. *)
type sample = { cpu_ms : float; ms : float; speed : float; words : float }

let measure ~name ~seed ~seconds ~trace ~size ~probes ~trace_out =
  let pool = Gpusim.Pool.create ~domains:0 () in
  let m = Meter.create () in
  m.Meter.tracing <- trace;
  let p, own, w =
    let p, warm, own = setup ~name ~seed ~size m ~pool in
    (p, own, inspect m ~pool p warm)
  in
  let errors = ref (List.rev w.warm_errors) in
  let error fmt = Printf.ksprintf (fun e -> errors := e :: !errors) fmt in
  let setups = own.setup_s :: List.init (probes - 1) (fun _ -> probe ~name ~seed) in
  (* The timed loop: with tracing, untraced and traced iterations
     alternate, so drift hits both alike. *)
  let plain = ref [] and traced = ref [] in
  let min_samples = match size with Load.Full -> 3 | Load.Tiny -> 1 in
  let short l = List.length !l < min_samples in
  let stop = Meter.wall_ns () +. (seconds *. 1e9) in
  let k = ref 0 in
  let before = ref (Meter.speed ()) in
  while Meter.wall_ns () < stop || short plain || (trace && short traced) do
    let on = trace && !k mod 2 = 1 in
    m.Meter.tracing <- on;
    Meter.reset m;
    let out = Meter.group m ~layer:"bench" ~name:"iteration" (fun () -> p.Load.iterate ()) in
    let cpu_ms = m.Meter.ns /. 1e6 and words = m.Meter.words in
    if digest out <> w.digest0 then error "iteration %d: simulated results differ from the warm-up's" !k;
    let after = Meter.speed () in
    let speed = (!before +. after) /. 2.0 in
    before := after;
    let sample = { cpu_ms; ms = cpu_ms *. speed; speed; words } in
    (if on then traced := sample :: !traced else plain := sample :: !plain);
    incr k
  done;
  m.Meter.tracing <- false;
  let heap_peak_mb = mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words) in
  let med f l = median (List.map f l) in
  let p50 = med (fun s -> s.ms) !plain in
  let vlat = w.facts0.vlat in
  let end_to_end =
    [
      { name = "setup_s"; value = median setups; unit_ = "s" };
      { name = "host_ms_p50"; value = p50; unit_ = "ms" };
      { name = "sim_mcyc_per_s"; value = ratio (w.facts0.lane_busy /. 1e6) (p50 /. 1e3); unit_ = "Mcyc/s" };
      { name = "minor_mb_per_iter"; value = mb_of_words (med (fun s -> s.words) !plain); unit_ = "MB" };
      { name = "heap_peak_mb"; value = heap_peak_mb; unit_ = "MB" };
      { name = "vlat_p50_ticks"; value = percentile vlat 50.0; unit_ = "ticks" };
      { name = "vlat_p99_ticks"; value = percentile vlat 99.0; unit_ = "ticks" };
    ]
  in
  let per_layer =
    if not trace then []
    else begin
      (* normalized host time and minor words of the named calls in the
         fastest traced replay *)
      let span_total names =
        List.fold_left
          (fun (ns, words) (lo, hi, speed) ->
            let ns', words' =
              Meter.total m (fun (s : Meter.span) ->
                  s.Meter.id >= lo && s.Meter.id < hi && List.mem s.Meter.name names)
            in
            if ns' *. speed < ns then (ns' *. speed, words') else (ns, words))
          (infinity, 0.0) w.replay_spans
      in
      let traced_ms = med (fun s -> s.ms) !traced in
      (* launch host time per iteration: every call of a sim iteration
         is a launch; serve launches are the replayed Offload.run calls *)
      let launch_ns, launch_words =
        match w.replay with
        | None -> (traced_ms *. 1e6, med (fun s -> s.words) !traced)
        | Some _ -> span_total [ "Offload.run" ]
      in
      let launches = float_of_int (List.length w.reports) in
      let held = List.length (List.filter snd w.claims) in
      (* shares of the fleet's host time, from the replay; the rest is
         the fleet's own *)
      let share names =
        if w.replay = None then 0.0 else 100.0 *. ratio (fst (span_total names)) (traced_ms *. 1e6)
      in
      let replayed =
        [ "Fleet.content_key"; "Offload.cache_key"; "Request.kernel_of_spec"; "Offload.compile_with";
          "Request.instantiate"; "Offload.run" ]
      in
      let compiles, ir_nodes =
        match w.replay with Some r -> (r.Load.compiles, r.Load.ir_nodes) | None -> (0, 0)
      in
      let serve =
        [
          { name = "ompir.compiles"; value = float_of_int compiles; unit_ = "count" };
          { name = "ompir.ir_nodes"; value = float_of_int ir_nodes; unit_ = "count" };
          { name = "ompir.compile_pct"; value = share [ "Request.kernel_of_spec"; "Offload.compile_with" ]; unit_ = "%" };
          { name = "ompir.digest_pct"; value = share [ "Fleet.content_key"; "Offload.cache_key" ]; unit_ = "%" };
          { name = "openmp.run_pct"; value = share [ "Offload.run" ]; unit_ = "%" };
          { name = "serve.instantiate_pct"; value = share [ "Request.instantiate" ]; unit_ = "%" };
          { name = "serve.self_pct"; value = (if w.replay = None then 0.0 else 100.0 -. share replayed); unit_ = "%" };
        ]
        @ w.serve_counts
        @ [
            { name = "serve.vrate_at_slo";
              value = (match p.Load.serve with Some s -> Load.vrate ~pool s ~probes:vrate_probes | None -> 0.0);
              unit_ = "req/Mtick" };
          ]
      in
      [
        { name = "workloads.generate_ms"; value = own.generate_ms; unit_ = "ms" };
        { name = "omprt.launch_ms"; value = launch_ns /. 1e6; unit_ = "ms" };
        { name = "omprt.claims_held"; value = ratio (float_of_int held) (float_of_int (List.length w.claims));
          unit_ = "fraction" };
      ]
      @ device_metrics w.reports
      @ [
          { name = "gpusim.host_ns_per_lane_cyc";
            value =
              ratio launch_ns
                (List.fold_left (fun acc r -> acc +. Counters.busy_cycles r.Device.counters) 0.0 w.reports);
            unit_ = "ns" };
          { name = "gpusim.minor_mb_per_launch"; value = mb_of_words (ratio launch_words launches); unit_ = "MB" };
        ]
      @ serve
      @ [
          { name = "bench.host_ms_p90";
            value = percentile (Array.of_list (List.map (fun s -> s.ms) !plain)) 90.0; unit_ = "ms" };
          { name = "bench.cpu_ms_p50"; value = med (fun s -> s.cpu_ms) !plain; unit_ = "ms" };
          { name = "bench.host_speed"; value = med (fun s -> s.speed) !plain; unit_ = "x" };
          { name = "bench.samples"; value = float_of_int (List.length !plain); unit_ = "count" };
          { name = "bench.trace_overhead_pct"; value = 100.0 *. ratio (traced_ms -. p50) p50; unit_ = "%" };
        ]
    end
  in
  if trace then begin
    print_self_times m;
    List.iter
      (fun (c, ok) -> Printf.printf "claim %-36s %s\n" c (if ok then "holds" else "does not hold"))
      w.claims;
    Option.iter
      (fun path ->
        Meter.write_chrome m ~path;
        Printf.printf "wrote %s\n" path)
      trace_out
  end;
  let errors = List.rev !errors in
  {
    correct = errors = [];
    attempted = w.facts0.attempted * !k;
    failed = w.facts0.failed * !k;
    end_to_end;
    per_layer;
    errors;
  }

(* --- output ------------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_json r metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} r.correct r.attempted
    r.failed
    (String.concat ", "
       (List.map
          (fun mt -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} mt.name (json_number mt.value) mt.unit_)
          metrics))

let print_metrics ~name metrics =
  List.iter (fun mt -> Printf.printf "%-11s %-30s %18.6g %s\n" name mt.name mt.value mt.unit_) metrics

let run_one ~name ~seed ~seconds ~trace ~trace_out =
  let trace_out =
    if not trace then None
    else
      Some
        (match trace_out with
        | Some path -> path
        | None ->
            if not (Sys.file_exists "_ledger") then Sys.mkdir "_ledger" 0o755;
            Printf.sprintf "_ledger/trace-%s-seed%d.json" name seed)
  in
  let r =
    measure ~name ~seed ~seconds ~trace ~size:Load.Full
      ~probes:(if trace then 1 else setup_probes)
      ~trace_out
  in
  let metrics = if trace then r.per_layer else r.end_to_end in
  List.iter (fun e -> Printf.printf "%s: CHECK FAILED: %s\n" name e) r.errors;
  print_metrics ~name metrics;
  print_endline (result_json r metrics);
  if not r.correct then exit 1

(* Every workload in a fresh child process, one at a time; each child's
   result line is kept verbatim for [json]. *)
let run_all ~seed ~seconds ~trace ~json =
  let results =
    List.map
      (fun name ->
        let lines, ok =
          spawn
            [| "--workload"; name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
               "--trace"; (if trace then "1" else "0") |]
        in
        List.iter print_endline lines;
        if not ok then Printf.printf "%s: FAILED\n" name;
        (name, last lines, ok))
      Load.names
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc "{\"seed\": %d, \"trace\": %d, \"seconds\": %g, \"workloads\": {\n%s\n}}\n" seed
        (if trace then 1 else 0)
        seconds
        (String.concat ",\n" (List.map (fun (n, l, _) -> Printf.sprintf "  \"%s\": %s" n l) results));
      close_out oc;
      Printf.printf "wrote %s\n" path)
    json;
  if List.exists (fun (_, _, ok) -> not ok) results then exit 1

(* Every metric BENCHMARK.json names: its "name" values, less the
   workload names. *)
let benchmark_metric_names path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let key = "\"name\"" in
  let rec scan i acc =
    match String.index_from_opt text i '"' with
    | None -> acc
    | Some j when j + String.length key <= String.length text && String.sub text j (String.length key) = key ->
        let q0 = String.index_from text (String.index_from text (j + String.length key) ':') '"' in
        let q1 = String.index_from text (q0 + 1) '"' in
        scan (q1 + 1) (String.sub text (q0 + 1) (q1 - q0 - 1) :: acc)
    | Some j -> scan (j + 1) acc
  in
  List.filter (fun n -> not (List.mem n Load.names)) (List.rev (scan 0 []))

(* All four workloads at tiny sizes, two iterations each (one traced),
   in this process: fails when a check fails or a metric the root's
   BENCHMARK.json names is missing. *)
let smoke () =
  let wanted = benchmark_metric_names "BENCHMARK.json" in
  let bad = ref 0 in
  List.iter
    (fun name ->
      let r =
        measure ~name ~seed:1 ~seconds:0.0 ~trace:true ~size:Load.Tiny ~probes:1 ~trace_out:None
      in
      let have = List.map (fun mt -> mt.name) (r.end_to_end @ r.per_layer) in
      let missing = List.filter (fun n -> not (List.mem n have)) wanted in
      List.iter (fun e -> Printf.printf "%s: CHECK FAILED: %s\n" name e) r.errors;
      if missing <> [] then Printf.printf "%s: missing metrics: %s\n" name (String.concat ", " missing);
      if missing <> [] || not r.correct then incr bad
      else Printf.printf "%s: ok (%d metrics)\n" name (List.length have))
    Load.names;
  if !bad > 0 then exit 1

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 and trace = ref false in
  let json = ref None and trace_out = ref None and probe_of = ref None and smoke_mode = ref false in
  let set_trace = function
    | "0" -> trace := false
    | "1" -> trace := true
    | v -> raise (Arg.Bad (Printf.sprintf "--trace wants 0 or 1, got %S" v))
  in
  Arg.parse
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W  run one workload: " ^ String.concat ", " Load.names);
      ("--seed", Arg.Set_int seed, "N  input seed (default 1; 2 is held out for confirming claims)");
      ("--seconds", Arg.Set_float seconds, "S  timed-loop length per workload (default 20)");
      ("--trace", Arg.String set_trace, "0|1  1 = traced run: per-layer metrics and a Chrome trace");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE  Chrome trace path (default _ledger/)");
      ("--json", Arg.String (fun f -> json := Some f), "FILE  write every workload's result (all-workload mode)");
      ("--smoke", Arg.Set smoke_mode, " tiny sizes, every workload, traced; checks the metric set");
      ("--setup-probe", Arg.String (fun w -> probe_of := Some w), "W  (internal) time one fresh set-up");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE] | --smoke";
  refuse_inherited_env ();
  Option.iter
    (fun w ->
      if not (List.mem w Load.names) then begin
        Printf.eprintf "ledger: unknown workload %S (known: %s)\n" w (String.concat ", " Load.names);
        exit 2
      end)
    (match !probe_of with Some w -> Some w | None -> !workload);
  match (!probe_of, !workload) with
  | Some name, _ ->
      let _, _, own = setup ~name ~seed:!seed ~size:Load.Full (Meter.create ()) ~pool:(Gpusim.Pool.create ~domains:0 ()) in
      Printf.printf "%.9f\n" own.setup_s
  | None, _ when !smoke_mode -> smoke ()
  | None, Some name -> run_one ~name ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_out:!trace_out
  | None, None -> run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~json:!json
