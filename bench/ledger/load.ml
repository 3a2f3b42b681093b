(* The ledger's four workloads.

   Each workload builds its inputs from the seed (input generation is
   charged to the workloads layer and counts toward set-up) and hands
   back an iteration function whose every library call goes through the
   meter.  Two layer contrasts drive the choice:
   - omprt + gpusim carry the sim workloads and serve_cold, and little
     of serve_hot;
   - the serve control plane carries serve_hot, and little of
     serve_cold, where IR compiles and member launches dominate. *)

module Harness = Workloads.Harness
module Spmv = Workloads.Spmv
module Su3 = Workloads.Su3
module Ideal = Workloads.Ideal
module Fleet = Serve.Fleet
module Request = Serve.Request
module Scheduler = Serve.Scheduler
module Offload = Openmp.Offload
module Prng = Ompsimd_util.Prng

type size = Full | Tiny

let names = [ "sim_sweep"; "sim_reduce"; "serve_hot"; "serve_cold" ]

(* --- simulation workloads ------------------------------------------------- *)

type role = Baseline | Simd of int | Atomic of int | Reduction of int

type launch = {
  kernel : string;
  role : role;
  measured : bool;  (* the run a claim reads; false for an L2-warming pass *)
  run : Harness.run;
  check : float array -> (unit, string) result;
}

type outcome = Sim of launch list | Served of Fleet.result

type serve_setup = {
  conf : Fleet.config;
  specs : Request.spec list;
  limit : float;  (* virtual latency limit, ticks *)
  prefix : int;  (* requests the rate bisection replays *)
}

type prepared = { iterate : unit -> outcome; serve : serve_setup option }

let group_sizes = [ 2; 4; 8; 16; 32 ]

(* A planned launch: the call is made through the meter at iteration
   time; [check] verifies its output against the host reference. *)
type plan = {
  p_kernel : string;
  p_role : role;
  p_measured : bool;
  p_name : string;
  p_call : unit -> Harness.run;
  p_check : float array -> (unit, string) result;
}

let iterate_plans m plans =
  List.mapi
    (fun i p ->
      let run =
        Meter.call m ~layer:"omprt" ~name:p.p_name ~tag:"launch" ~tag_id:i p.p_call
      in
      { kernel = p.p_kernel; role = p.p_role; measured = p.p_measured; run; check = p.p_check })
    plans

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

(* Fig 9's launch set with the geometry of lib/experiments/fig9.ml
   (copied, so the benchmark does not move when the experiment is
   retuned).  spmv and ideal are measured on a warm L2: every measured
   launch follows a cold pass over the same data. *)
let sim_sweep m ~pool ~seed size =
  let cfg = Gpusim.Config.small in
  let scale = match size with Full -> 0.2 | Tiny -> 0.02 in
  let teams = 4 * cfg.Gpusim.Config.num_sms in
  let lanes = teams * 128 in
  let gen name f = Meter.call m ~layer:"workloads" ~name f in
  let spmv_teams = 2 * teams in
  let rows = scaled scale (spmv_teams * 64) in
  let spmv =
    gen "Spmv.generate" (fun () ->
        Spmv.generate
          {
            Spmv.default_shape with
            Spmv.rows;
            cols = rows;
            profile = Spmv.Banded { mean = 24; spread = 16 };
            seed;
          })
  in
  let su3 =
    gen "Su3.generate" (fun () ->
        Su3.generate { Su3.sites = scaled scale (2 * lanes); seed = seed + 1 })
  in
  let ideal =
    gen "Ideal.generate" (fun () ->
        Ideal.generate
          { Ideal.default_shape with Ideal.rows = scaled scale (lanes / 4); seed = seed + 2 })
  in
  let warm kernel role name check call =
    [
      { p_kernel = kernel; p_role = role; p_measured = false; p_name = name;
        p_call = (fun () -> call ~reset_l2:true); p_check = check };
      { p_kernel = kernel; p_role = role; p_measured = true; p_name = name;
        p_call = (fun () -> call ~reset_l2:false); p_check = check };
    ]
  in
  let cold kernel role name check call =
    [ { p_kernel = kernel; p_role = role; p_measured = true; p_name = name;
        p_call = call; p_check = check } ]
  in
  let spmv_check = Spmv.verify spmv and su3_check = Su3.verify su3 in
  let ideal_check = Ideal.verify ideal in
  let plans =
    List.concat
      [
        warm "spmv" Baseline "Spmv.run_two_level" spmv_check (fun ~reset_l2 ->
            Spmv.run_two_level ~cfg ~pool ~reset_l2 ~num_teams:(min rows (3 * spmv_teams))
              ~threads:32 spmv);
        List.concat_map
          (fun g ->
            warm "spmv" (Simd g) "Spmv.run_simd" spmv_check (fun ~reset_l2 ->
                Spmv.run_simd ~cfg ~pool ~reset_l2 ~num_teams:spmv_teams ~threads:128
                  ~mode3:(Harness.generic_simd ~group_size:g) spmv))
          group_sizes;
        cold "su3" Baseline "Su3.run_two_level" su3_check (fun () ->
            Su3.run_two_level ~cfg ~pool ~num_teams:teams ~threads:128 su3);
        List.concat_map
          (fun g ->
            cold "su3" (Simd g) "Su3.run" su3_check (fun () ->
                Su3.run ~cfg ~pool ~num_teams:teams ~threads:128
                  ~mode3:(Harness.spmd_simd ~group_size:g) su3))
          group_sizes;
        warm "ideal" Baseline "Ideal.run" ideal_check (fun ~reset_l2 ->
            Ideal.run ~cfg ~pool ~reset_l2 ~num_teams:teams ~threads:128
              ~mode3:(Harness.spmd_simd ~group_size:1) ideal);
        List.concat_map
          (fun g ->
            warm "ideal" (Simd g) "Ideal.run" ideal_check (fun ~reset_l2 ->
                Ideal.run ~cfg ~pool ~reset_l2 ~num_teams:teams ~threads:128
                  ~mode3:(Harness.generic_simd ~group_size:g) ideal))
          group_sizes;
      ]
  in
  { iterate = (fun () -> Sim (iterate_plans m plans)); serve = None }

(* E6: the atomic spmv against the warp-shuffle reduction at every group
   size, each launch on a cold L2 (lib/experiments/reduction_ablation.ml
   geometry). *)
let sim_reduce m ~pool ~seed size =
  let cfg = Gpusim.Config.small in
  let scale = match size with Full -> 0.12 | Tiny -> 0.004 in
  let rows = scaled scale 16384 in
  let t =
    Meter.call m ~layer:"workloads" ~name:"Spmv.generate" (fun () ->
        Spmv.generate { Spmv.default_shape with Spmv.rows; cols = rows; seed })
  in
  let num_teams = min 128 rows in
  let check = Spmv.verify t in
  let plans =
    List.concat_map
      (fun g ->
        let mode3 = Harness.generic_simd ~group_size:g in
        [
          { p_kernel = "spmv"; p_role = Atomic g; p_measured = true;
            p_name = "Spmv.run_simd"; p_check = check;
            p_call = (fun () -> Spmv.run_simd ~cfg ~pool ~num_teams ~threads:128 ~mode3 t) };
          { p_kernel = "spmv"; p_role = Reduction g; p_measured = true;
            p_name = "Spmv.run_simd_reduction"; p_check = check;
            p_call =
              (fun () -> Spmv.run_simd_reduction ~cfg ~pool ~num_teams ~threads:128 ~mode3 t) };
        ])
      group_sizes
  in
  { iterate = (fun () -> Sim (iterate_plans m plans)); serve = None }

(* The paper's claims each sim workload checks (EXPERIMENTS.md E1, E6). *)
let claims launches =
  let cycles kernel role =
    List.find_map
      (fun l ->
        if l.kernel = kernel && l.role = role && l.measured then
          Some (Harness.time l.run)
        else None)
      launches
  in
  let sweep kernel ~peak =
    match cycles kernel Baseline with
    | None -> []
    | Some base ->
        let speedups =
          List.filter_map
            (fun g -> Option.map (fun c -> (g, base /. c)) (cycles kernel (Simd g)))
            group_sizes
        in
        let best_g, best =
          List.fold_left
            (fun (bg, b) (g, s) -> if s > b then (g, s) else (bg, b))
            (0, neg_infinity) speedups
        in
        [
          (Printf.sprintf "%s peaks at group %d" kernel peak, best_g = peak);
          (Printf.sprintf "%s best speedup > 1" kernel, best > 1.0);
        ]
  in
  let reduce =
    List.filter_map
      (fun g ->
        match (cycles "spmv" (Atomic g), cycles "spmv" (Reduction g)) with
        | Some a, Some r -> Some (Printf.sprintf "reduction beats atomic at group %d" g, r < a)
        | _ -> None)
      group_sizes
  in
  sweep "spmv" ~peak:8 @ sweep "su3" ~peak:4 @ sweep "ideal" ~peak:32 @ reduce

(* --- serve workloads ------------------------------------------------------- *)

let base_conf ~cache ~slo =
  {
    Scheduler.cfg = Gpusim.Config.small;
    queue_bound = 16;
    servers = 2;
    cache_capacity = cache;
    max_retries = 2;
    backoff = 500.0;
    breaker = 4;
    slo;
    window = 20_000.0;
    knobs = Offload.default_knobs;
  }

let fleet_run m ~pool conf specs =
  Meter.call m ~layer:"serve" ~name:"Fleet.run" (fun () -> Fleet.run conf ~pool specs)

(* Zipf-hot mixed traffic through a homogeneous fleet with the whole
   operability plane armed: the launch memo, batching and the compile
   cache absorb most device work, so the control plane dominates. *)
let serve_hot m ~pool ~seed size =
  let n = match size with Full -> 60_000 | Tiny -> 200 in
  let slo = 30_000.0 in
  let conf =
    {
      Fleet.base = base_conf ~cache:32 ~slo:(Some slo);
      shards = 4;
      batch = 8;
      steal = true;
      memo = true;
      tenants = [];
      devices = [];
      affinity = true;
      telemetry = true;
      shed = true;
      autoscale =
        { Serve.Autoscale.enabled = true; slo; budget = 8; max_extra = 6; down = 0.5; cooldown = 2 };
      decay = 2;
    }
  in
  let specs =
    Meter.call m ~layer:"workloads" ~name:"Traffic.generate" (fun () ->
        Serve.Traffic.(generate (preset "mixed" ~n ~seed)))
  in
  { iterate = (fun () -> Served (fleet_run m ~pool conf specs));
    serve = Some { conf; specs; limit = slo; prefix = min n 10_000 } }

(* serve_cold's trace: 48 chain depths and 38 other (template, size)
   shapes in one fixed order, so the compile keys (the 48 depths plus
   the four other templates, whose IR does not change with size) and
   the affinity placement, and with it each device's simulated work,
   do not move with the seed.  The seed gives every request its own
   data seed, so the launch memo never hits: every member launch is
   simulated. *)
let cold_trace ~seed ~n =
  let chain = List.init 48 (fun k -> ("chain", 8 + (4 * k))) in
  let sizes k = List.init k (fun j -> 16 + (8 * j)) in
  let others =
    List.concat_map
      (fun (t, k) -> List.map (fun s -> (t, s)) (sizes k))
      [ ("rowsum", 10); ("saxpy", 10); ("stencil", 10); ("hist", 8) ]
  in
  let pick pool count =
    let a = Array.of_list pool in
    List.init count (fun i -> a.(i mod Array.length a))
  in
  let n_chain = n * 2 / 5 in
  let shapes = Array.of_list (pick chain n_chain @ pick others (n - n_chain)) in
  Prng.shuffle (Prng.create ~seed:0xc01d) shapes;
  Array.to_list
    (Array.mapi
       (fun id (kernel, size) ->
         {
           Request.default_spec with
           Request.id;
           at = float_of_int id *. 8000.0;
           kernel;
           size;
           teams = 2;
           threads = 64;
           simdlen = 8;
           seed = (seed * 1_000_003) + id;
         })
       shapes)

(* A heterogeneous fleet with no SLO: affinity placement explores every
   device shape, the compile cache holds every key (no evictions), and
   arrivals are spaced so queueing stays light. *)
let serve_cold m ~pool ~seed size =
  let n = match size with Full -> 400 | Tiny -> 40 in
  let conf =
    {
      Fleet.base = base_conf ~cache:128 ~slo:None;
      shards = 4;
      batch = 8;
      steal = true;
      memo = true;
      tenants = [];
      devices = Fleet.parse_devices "w32-hw,w64-hw,w16-sw,w32-l2tiny";
      affinity = true;
      telemetry = false;
      shed = true;
      autoscale = Serve.Autoscale.disabled;
      decay = 0;
    }
  in
  let specs =
    Meter.call m ~layer:"workloads" ~name:"cold_trace" (fun () -> cold_trace ~seed ~n)
  in
  (* the limit sits just above seed 1's p99 (66 446 ticks) *)
  { iterate = (fun () -> Served (fleet_run m ~pool conf specs));
    serve = Some { conf; specs; limit = 70_000.0; prefix = min n 100 } }

let prepare name =
  match name with
  | "sim_sweep" -> sim_sweep
  | "sim_reduce" -> sim_reduce
  | "serve_hot" -> serve_hot
  | "serve_cold" -> serve_cold
  | other ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (known: %s)" other (String.concat ", " names))

(* --- serve: the fleet's real work, replayed outside it --------------------- *)

let device_of (conf : Fleet.config) shard =
  match conf.Fleet.devices with
  | [] -> conf.Fleet.base.Scheduler.cfg
  | ds -> List.nth ds (shard mod List.length ds)

let content (s : Request.spec) = (s.Request.kernel, s.Request.size, s.Request.guardize)

(* The launches the fleet really simulated: one per launch-memo key
   (content, geometry, data seed, device).  Every later request with the
   same key was served a copy of that launch's result. *)
let real_launches conf (res : Fleet.result) =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun (r : Fleet.rq_report) ->
      let s = r.Fleet.spec in
      let key =
        ( content s, s.Request.teams, s.Request.threads, s.Request.simdlen, s.Request.seed,
          (device_of conf r.Fleet.shard).Gpusim.Config.name )
      in
      r.Fleet.batched > 0
      && (not (Hashtbl.mem seen key))
      && (Hashtbl.add seen key ();
          true))
    res.Fleet.reports

type replay = {
  compiles : int;
  ir_nodes : int;
  reports : Gpusim.Device.report list;  (* one per real launch *)
  errors : string list;
}

(* Repeat, outside the fleet, the library work a fleet run did: the
   content and cache keys of every distinct kernel, one compile per
   cache miss, and every real member launch on its shard's device.  Each
   launch must reproduce the fleet's checksum, cycles and counters. *)
let replay m ~pool (conf : Fleet.config) (res : Fleet.result) =
  let knobs (s : Request.spec) =
    { conf.Fleet.base.Scheduler.knobs with Offload.guardize = s.Request.guardize }
  in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun e -> errors := e :: !errors) fmt in
  (* content -> the fleet's content key, which names the compile *)
  let ckeys = Hashtbl.create 64 in
  List.iter
    (fun (r : Fleet.rq_report) ->
      let s = r.Fleet.spec in
      if not (Hashtbl.mem ckeys (content s)) then begin
        Hashtbl.add ckeys (content s)
          (Meter.call m ~layer:"ompir" ~name:"Fleet.content_key" (fun () ->
               Fleet.content_key ~knobs:conf.Fleet.base.Scheduler.knobs s));
        ignore
          (Meter.call m ~layer:"ompir" ~name:"Offload.cache_key" (fun () ->
               Offload.cache_key ~knobs:(knobs s) (Request.kernel_of_spec s)))
      end)
    res.Fleet.reports;
  let ckey s = Hashtbl.find ckeys (content s) in
  let compiled = Hashtbl.create 64 in
  let compiles = ref 0 and ir_nodes = ref 0 in
  List.iter
    (fun (r : Fleet.rq_report) ->
      let s = r.Fleet.spec in
      if r.Fleet.cache = Scheduler.C_miss then begin
        let id = s.Request.id in
        let kernel =
          Meter.call m ~layer:"ompir" ~name:"Request.kernel_of_spec" ~tag:"request"
            ~tag_id:id (fun () -> Request.kernel_of_spec s)
        in
        match
          Meter.call m ~layer:"ompir" ~name:"Offload.compile_with" ~tag:"request" ~tag_id:id
            (fun () -> Offload.compile_with ~knobs:(knobs s) kernel)
        with
        | Ok c ->
            incr compiles;
            ir_nodes := !ir_nodes + Ompir.Kdigest.weight kernel;
            Hashtbl.replace compiled (ckey s) c
        | Error _ -> fail "request %d: kernel %s does not compile" id s.Request.kernel
      end)
    res.Fleet.reports;
  let real = real_launches conf res in
  let expected = res.Fleet.metrics.Serve.Metrics.launches - res.Fleet.fleet.Fleet.memo_hits in
  if List.length real <> expected then
    fail "replay found %d real launches, the fleet reports %d" (List.length real) expected;
  let reports =
    List.filter_map
      (fun (r : Fleet.rq_report) ->
        let s = r.Fleet.spec in
        let id = s.Request.id in
        match Hashtbl.find_opt compiled (ckey s) with
        | None ->
            fail "request %d launched without a compile to replay" id;
            None
        | Some c ->
            let _, bindings, out =
              Meter.call m ~layer:"serve" ~name:"Request.instantiate" ~tag:"request"
                ~tag_id:id (fun () -> Request.instantiate s)
            in
            let clauses =
              Openmp.Clause.(
                none
                |> num_teams s.Request.teams
                |> num_threads s.Request.threads
                |> simdlen s.Request.simdlen)
            in
            let cfg = device_of conf r.Fleet.shard in
            let rep =
              Meter.call m ~layer:"openmp" ~name:"Offload.run" ~tag:"request" ~tag_id:id
                (fun () -> Offload.run ~cfg ~pool ~clauses ~bindings c)
            in
            let sum = Request.checksum out in
            if Int64.bits_of_float sum <> Int64.bits_of_float r.Fleet.checksum then
              fail "request %d: direct Offload.run checksum %h, fleet reported %h" id sum
                r.Fleet.checksum;
            if
              rep.Gpusim.Device.time_cycles <> r.Fleet.exec_ticks
              || not (Gpusim.Counters.equal rep.Gpusim.Device.counters r.Fleet.counters)
            then fail "request %d: direct Offload.run cycles or counters differ from the fleet's" id;
            Some rep)
      real
  in
  { compiles = !compiles; ir_nodes = !ir_nodes; reports; errors = List.rev !errors }

(* Share of requests that did not complete within [limit] ticks: a
   shed, refused, failed or late request misses. *)
let miss_frac ~limit (reports : Fleet.rq_report list) =
  let miss =
    List.length
      (List.filter
         (fun (r : Fleet.rq_report) ->
           r.Fleet.outcome <> Scheduler.Completed || r.Fleet.latency > limit)
         reports)
  in
  float_of_int miss /. float_of_int (max 1 (List.length reports))

(* The highest arrival rate, in requests per 1M virtual ticks, at which
   the trace's first [prefix] requests still meet the latency limit for
   all but 1% of them.  Each of [probes] replays bisects, in log2 space,
   a factor on the trace's own arrival spacing between 1/16 and 8; the
   slowest end is taken as passing, so the answer is never below the
   rate at 8x spacing. *)
let vrate ~pool (s : serve_setup) ~probes =
  let pre = Array.of_list (List.filteri (fun i _ -> i < s.prefix) s.specs) in
  let t0 = pre.(0).Request.at in
  let span = Float.max 1.0 (pre.(Array.length pre - 1).Request.at -. t0) in
  let scaled f =
    Array.to_list
      (Array.map
         (fun (r : Request.spec) ->
           let at = t0 +. ((r.Request.at -. t0) *. f) in
           { r with Request.at; deadline = Option.map (fun d -> at +. (d -. r.Request.at)) r.Request.deadline })
         pre)
  in
  let passes f =
    miss_frac ~limit:s.limit (Fleet.run s.conf ~pool (scaled f)).Fleet.reports <= 0.01
  in
  let rec bisect lo hi k =
    if k = 0 then hi
    else
      let mid = (lo +. hi) /. 2.0 in
      if passes (2.0 ** mid) then bisect lo mid (k - 1) else bisect mid hi (k - 1)
  in
  let f = 2.0 ** bisect (-4.0) 3.0 probes in
  float_of_int (Array.length pre) /. (span *. f) *. 1e6
