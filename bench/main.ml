(* bench/main.exe — regenerates every table and figure of the paper's
   evaluation section and times the harness itself with Bechamel.

   Part 1 prints the scientific output: the Fig 9 and Fig 10 series plus
   the E3–E7 ablations from DESIGN.md, on the quarter-A100 device (same
   per-SM behaviour as the full device, a quarter of the simulation
   cost; see EXPERIMENTS.md).  Set OMPSIMD_BENCH_SCALE (default 1.0) or
   OMPSIMD_BENCH_DEVICE=a100|a100q|small to override.

   Part 2 registers one Bechamel Test.make per experiment, measuring the
   host-side cost of regenerating it at a reduced scale — the number a
   developer watches when optimizing the simulator.

   Block simulation fans out over OMPSIMD_DOMAINS host domains (0 =
   sequential; unset = cores - 1, which also caps explicit requests),
   and OMPSIMD_BENCH_DEDUP=0 disables
   the homogeneous-grid dedup fast path on the uniform Fig 9 kernels
   (default on); the reports are bit-identical under every combination.
   OMPSIMD_BENCH_QUOTA overrides Bechamel's per-test second budget, and
   OMPSIMD_BENCH_JSON=path additionally writes the ms/run estimates and
   the minor-GC MB allocated per run as JSON, so runs under different
   settings can be diffed (see tools/bench_smoke.sh and
   BENCH_gpusim.json). *)

open Bechamel
open Toolkit

(* The OMPSIMD_* knobs the library honours, parsed once before any
   work; the OMPSIMD_BENCH_* knobs below are the bench's own (read
   through Ompsimd_util.Env: blank values mean unset). *)
let knobs =
  match Knobs.of_env () with
  | Ok k -> k
  | Error msg ->
      prerr_endline msg;
      exit 2

module Env = Ompsimd_util.Env

let device () =
  match Env.var "OMPSIMD_BENCH_DEVICE" with
  | Some "a100" -> Gpusim.Config.a100
  | Some "small" -> Gpusim.Config.small
  | Some "a100q" | None -> Gpusim.Config.a100_quarter
  | Some other ->
      Printf.eprintf "unknown OMPSIMD_BENCH_DEVICE %S\n" other;
      exit 2

let scale () = Env.float "OMPSIMD_BENCH_SCALE" ~default:1.0
let quota () = Env.float "OMPSIMD_BENCH_QUOTA" ~default:1.0

let dedup () =
  match Env.var "OMPSIMD_BENCH_DEDUP" with
  | Some "0" -> false
  | Some _ | None -> true

let print_experiments ~pool () =
  let cfg = device () in
  let scale = scale () in
  Printf.printf "device: %s, scale: %.2f, domains: %d, dedup: %b\n\n%!"
    cfg.Gpusim.Config.name scale (Gpusim.Pool.size pool) (dedup ());
  Experiments.Fig9.print
    (Experiments.Fig9.run ~scale ~pool ~dedup:(dedup ()) ~cfg ());
  print_newline ();
  Experiments.Fig10.print (Experiments.Fig10.run ~scale ~pool ~cfg ());
  print_newline ();
  Experiments.Sharing_ablation.print
    (Experiments.Sharing_ablation.run ~scale ~pool ~cfg ());
  print_newline ();
  Experiments.Dispatch_ablation.print
    (Experiments.Dispatch_ablation.run ~scale ~pool ~cfg ());
  print_newline ();
  Experiments.Amd_mode.print
    (Experiments.Amd_mode.run ~scale:(scale /. 4.) ~pool ());
  print_newline ();
  Experiments.Reduction_ablation.print
    (Experiments.Reduction_ablation.run ~scale ~pool ~cfg ());
  print_newline ();
  Experiments.Teams_mode_ablation.print
    (Experiments.Teams_mode_ablation.run ~scale ~pool ~cfg ());
  print_newline ();
  Experiments.Spmdization_ablation.print
    (Experiments.Spmdization_ablation.run ~scale ~pool ~knobs:knobs.Knobs.compile
       ~cfg ());
  print_newline ();
  Experiments.Schedule_ablation.print
    (Experiments.Schedule_ablation.run ~scale ~pool ~cfg ())

(* --- Bechamel: host cost of regenerating each experiment -------------- *)

(* Serve scenario: one compile-heavy trace (the deep-pipeline [chain]
   template at three sizes, so three distinct digests over thirty
   requests) replayed against a warm cache (three host compiles, the
   rest hits) and a cold one (capacity 0 — every request recompiles).
   The ratio of the two rows is the cache-warm speedup the service
   buys on the host. *)
let serve_trace =
  List.init 30 (fun i ->
      {
        Serve.Request.id = i;
        at = float_of_int i *. 1500.0;
        kernel = "chain";
        size = 256 + (256 * (i mod 3));
        teams = 1;
        threads = 32;
        simdlen = 8;
        guardize = false;
        deadline = None;
        priority = 0;
        seed = 1 + (i mod 5);
        tenant = "-";
        device = None;
      })

let serve_conf ~cache =
  {
    Knobs.default.Knobs.fleet.Serve.Fleet.base with
    Serve.Scheduler.cfg = Gpusim.Config.small;
    cache_capacity = cache;
    knobs = knobs.Knobs.compile;
  }

(* The single-device service: one shard, no batching, stealing or
   launch memo. *)
let one_shard base =
  { Knobs.default.Knobs.fleet with Serve.Fleet.base; steal = false; memo = false }

(* Each case is a named thunk: Bechamel stages it for the ms/run
   estimate, and the allocation probe below calls it directly for the
   minor-GC bytes per run. *)
let bench_cases ~pool () =
  let cfg = Gpusim.Config.small in
  let s = 0.25 in
  [
    ( "fig9 (E1)",
      fun () ->
        ignore (Experiments.Fig9.run ~scale:s ~pool ~dedup:(dedup ()) ~cfg ()) );
    ( "fig10 (E2)",
      fun () -> ignore (Experiments.Fig10.run ~scale:s ~pool ~cfg ()) );
    ( "sharing ablation (E3)",
      fun () -> ignore (Experiments.Sharing_ablation.run ~scale:s ~pool ~cfg ()) );
    ( "dispatch ablation (E4)",
      fun () ->
        ignore (Experiments.Dispatch_ablation.run ~scale:s ~pool ~cfg ()) );
    ( "amd mode (E5)",
      fun () -> ignore (Experiments.Amd_mode.run ~scale:0.02 ~pool ()) );
    ( "reduction ablation (E6)",
      fun () ->
        ignore (Experiments.Reduction_ablation.run ~scale:s ~pool ~cfg ()) );
    ( "teams-mode ablation (E7)",
      fun () ->
        ignore (Experiments.Teams_mode_ablation.run ~scale:s ~pool ~cfg ()) );
    ( "spmdization ablation (E8)",
      fun () ->
        ignore
          (Experiments.Spmdization_ablation.run ~scale:s ~pool
             ~knobs:knobs.Knobs.compile ~cfg ()) );
    ( "schedule ablation (E9)",
      fun () ->
        ignore (Experiments.Schedule_ablation.run ~scale:0.1 ~pool ~cfg ()) );
    ( "serve warm cache",
      fun () ->
        ignore (Serve.Fleet.run (one_shard (serve_conf ~cache:32)) ~pool serve_trace) );
    ( "serve cold cache",
      fun () ->
        ignore (Serve.Fleet.run (one_shard (serve_conf ~cache:0)) ~pool serve_trace) );
    (* the same warm-cache trace through the sharded fleet: batching
       merges same-content queue mates into one grid and the content
       memo skips repeat launches entirely, so the delta against "serve
       warm cache" is what the fleet layer buys (fewer real launches)
       net of its placement/stealing bookkeeping *)
    ( "serve fleet warm (4 shards)",
      fun () ->
        let fconf =
          {
            (one_shard (serve_conf ~cache:32)) with
            Serve.Fleet.shards = 4;
            batch = 8;
            steal = true;
            memo = true;
          }
        in
        ignore (Serve.Fleet.run fconf ~pool serve_trace) );
    (* the same trace over four shards carrying four different zoo
       devices with affinity placement on: the delta against the
       homogeneous fleet row is the price of heterogeneity — per-device
       memo partitions (each content/device pair really launches once)
       plus the affinity table and sub-ring bookkeeping *)
    ( "serve fleet warm (hetero 4 shards)",
      fun () ->
        let fconf =
          {
            (one_shard (serve_conf ~cache:32)) with
            Serve.Fleet.shards = 4;
            batch = 8;
            steal = true;
            memo = true;
            devices = Serve.Fleet.parse_devices "w32-hw,w64-hw,w16-sw,w32-l2tiny";
          }
        in
        ignore (Serve.Fleet.run fconf ~pool serve_trace) );
    (* the warm fleet trace under an SLO: telemetry windows close on
       every boundary, the autoscaler evaluates each one, and SLO
       admission watches the windowed p99 — the delta against "serve
       fleet warm (4 shards)" is the operability plane's host cost *)
    ( "serve fleet SLO (4 shards)",
      fun () ->
        let base = { (serve_conf ~cache:32) with Serve.Scheduler.slo = Some 30_000.0 } in
        let fconf =
          {
            (one_shard base) with
            Serve.Fleet.shards = 4;
            batch = 8;
            steal = true;
            memo = true;
            telemetry = true;
            autoscale =
              {
                Serve.Autoscale.enabled = true;
                slo = 30_000.0;
                budget = 8;
                max_extra = 6;
                down = 0.5;
                cooldown = 2;
              };
            decay = 2;
          }
        in
        ignore (Serve.Fleet.run fconf ~pool serve_trace) );
    (* the warm-cache trace compiled through an explicit non-default
       optimization pipeline: the spec lands in the cache key, so the
       first request per kernel recompiles the optimized tier-2 variant
       and the rest serve warm — the delta against "serve warm cache" is
       what the extra passes cost (compile) and buy (run) end to end *)
    ( "serve warm cache (optimized)",
      fun () ->
        let conf = serve_conf ~cache:32 in
        let conf =
          {
            conf with
            Serve.Scheduler.knobs =
              {
                knobs.Knobs.compile with
                Openmp.Offload.passes = "fold,licm,strength,fuse,tile:32,dce";
              };
          }
        in
        ignore (Serve.Fleet.run (one_shard conf) ~pool serve_trace) );
    (* the same warm-cache trace under a 5% per-block abort plan: the
       delta against "serve warm cache" is the recovery overhead
       (relaunch work + backoff bookkeeping) the service pays for fault
       tolerance *)
    ( "serve faulty (5% aborts)",
      fun () ->
        let faults = Some (Gpusim.Fault.parse_spec ~seed:7 "abort=0.05") in
        Knobs.with_installed { knobs with Knobs.faults } (fun () ->
            ignore
              (Serve.Fleet.run (one_shard (serve_conf ~cache:32)) ~pool serve_trace)) );
  ]

(* Minor-GC bytes one run of the case allocates (majors excluded: the
   churn that costs wall clock is the minor-heap traffic).  The
   simulation is deterministic, so a single warmed run measures it
   exactly — this is the number the engine allocation hunts move, and
   tools/bench_compare.sh gates it alongside time. *)
let minor_bytes_per_run fn =
  fn ();
  let before = (Gc.quick_stat ()).Gc.minor_words in
  fn ();
  let after = (Gc.quick_stat ()).Gc.minor_words in
  (after -. before) *. float_of_int (Sys.word_size / 8)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json ~pool path estimates allocs =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"domains\": %d,\n  \"dedup\": %b,\n  \"ms_per_run\": {\n"
    (Gpusim.Pool.size pool) (dedup ());
  List.iteri
    (fun i (name, ms) ->
      Printf.fprintf oc "    \"%s\": %s%s\n" (json_escape name)
        (match ms with Some v -> Printf.sprintf "%.3f" v | None -> "null")
        (if i = List.length estimates - 1 then "" else ","))
    estimates;
  Printf.fprintf oc "  },\n  \"minor_mb_per_run\": {\n";
  List.iteri
    (fun i (name, mb) ->
      Printf.fprintf oc "    \"%s\": %.1f%s\n" (json_escape name) mb
        (if i = List.length allocs - 1 then "" else ","))
    allocs;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let run_bechamel ~pool () =
  print_endline "Bechamel: host milliseconds to regenerate each experiment";
  Printf.printf "(reduced scale, sim-small device, %d domains, dedup %b)\n"
    (Gpusim.Pool.size pool) (dedup ());
  let benchmark_cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second (quota ())) ~kde:None ()
  in
  let cases = bench_cases ~pool () in
  let estimates =
    List.map
      (fun (case_name, fn) ->
        let test = Test.make ~name:case_name (Staged.stage fn) in
        let raw =
          Benchmark.all benchmark_cfg Instance.[ monotonic_clock ] test
        in
        let ols =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false
               ~predictors:[| Measure.run |])
            Instance.monotonic_clock raw
        in
        (* one Test.make = one entry in the OLS table *)
        let acc = ref [] in
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] ->
                Printf.printf "  %-28s %10.1f ms/run\n%!" name (est /. 1e6);
                acc := (name, Some (est /. 1e6)) :: !acc
            | Some _ | None ->
                Printf.printf "  %-28s (no estimate)\n%!" name;
                acc := (name, None) :: !acc)
          ols;
        !acc)
      cases
    |> List.concat
  in
  print_endline "minor-GC megabytes allocated per run";
  let allocs =
    List.map
      (fun (name, fn) ->
        let mb = minor_bytes_per_run fn /. 1e6 in
        Printf.printf "  %-28s %10.1f MB/run\n%!" name mb;
        (name, mb))
      cases
  in
  match Env.var "OMPSIMD_BENCH_JSON" with
  | Some path -> write_json ~pool path estimates allocs
  | None -> ()

let () =
  Knobs.install knobs;
  let pool = Gpusim.Pool.create ~domains:knobs.Knobs.domains () in
  print_experiments ~pool ();
  print_newline ();
  run_bechamel ~pool ()
