(* Unit and property tests for the GPU simulator substrate. *)

module Config = Gpusim.Config
module Counters = Gpusim.Counters
module Linebuf = Gpusim.Linebuf
module Thread = Gpusim.Thread
module Barrier = Gpusim.Barrier
module Engine = Gpusim.Engine
module Memory = Gpusim.Memory
module Shared = Gpusim.Shared
module Occupancy = Gpusim.Occupancy
module Device = Gpusim.Device
module Trace = Gpusim.Trace
module Pool = Gpusim.Pool

let cfg = Config.small
let checkf = Alcotest.check (Alcotest.float 1e-6)
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* --- Config ----------------------------------------------------------- *)

let test_config_presets_valid () =
  List.iter
    (fun c ->
      match Config.validate c with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" c.Config.name msg)
    [ Config.a100; Config.amd_like; Config.small ]

let test_config_validation_catches () =
  let bad = { Config.a100 with Config.num_sms = 0 } in
  check_bool "invalid" true (Result.is_error (Config.validate bad));
  let bad2 = { Config.a100 with Config.max_threads_per_block = 100 } in
  check_bool "non-warp-multiple" true (Result.is_error (Config.validate bad2))

let test_config_amd_flag () =
  check_bool "a100 has warp barrier" true
    (Config.a100.Config.barrier_impl = Config.Hw_barrier);
  check_bool "amd lacks warp barrier" true
    (Config.amd_like.Config.barrier_impl = Config.No_barrier)

(* --- Zoo -------------------------------------------------------------- *)

let zoo_cfg name =
  match Gpusim.Zoo.find name with
  | Some e -> e.Gpusim.Zoo.config
  | None -> Alcotest.failf "zoo entry %s missing" name

let test_zoo_registry () =
  List.iter
    (fun (e : Gpusim.Zoo.entry) ->
      (match Config.validate e.Gpusim.Zoo.config with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "zoo %s invalid: %s" e.Gpusim.Zoo.name msg);
      check_bool
        (e.Gpusim.Zoo.name ^ " findable")
        true
        (Gpusim.Zoo.find e.Gpusim.Zoo.name <> None))
    Gpusim.Zoo.all;
  check_int "names distinct"
    (List.length Gpusim.Zoo.names)
    (List.length (List.sort_uniq compare Gpusim.Zoo.names));
  (* the swept axes are all represented *)
  let sweep_cfgs =
    List.map (fun e -> e.Gpusim.Zoo.config) Gpusim.Zoo.sweep
  in
  List.iter
    (fun w ->
      check_bool
        (Printf.sprintf "warp %d swept" w)
        true
        (List.exists (fun c -> c.Config.warp_size = w) sweep_cfgs))
    [ 8; 16; 32; 64 ];
  List.iter
    (fun (label, impl) ->
      check_bool (label ^ " swept") true
        (List.exists (fun c -> c.Config.barrier_impl = impl) sweep_cfgs))
    [
      ("hw", Config.Hw_barrier);
      ("sw", Config.Sw_barrier);
      ("none", Config.No_barrier);
    ]

let test_zoo_resolve () =
  (match Gpusim.Zoo.resolve "w64-sw" with
  | Ok c ->
      check_int "warp width" 64 c.Config.warp_size;
      check_bool "sw barrier" true (c.Config.barrier_impl = Config.Sw_barrier)
  | Error e -> Alcotest.failf "w64-sw: %s" e);
  (match Gpusim.Zoo.resolve "w64-sw,num_sms=4" with
  | Ok c ->
      check_int "override applied" 4 c.Config.num_sms;
      check_int "name keeps warp" 64 c.Config.warp_size
  | Error e -> Alcotest.failf "w64-sw,num_sms=4: %s" e);
  (match Gpusim.Zoo.resolve "no-such-device" with
  | Ok _ -> Alcotest.fail "unknown device resolved"
  | Error e ->
      check_bool "error names the device" true
        (Astring_like.contains e "no-such-device"))

let test_config_spec_roundtrip () =
  List.iter
    (fun (e : Gpusim.Zoo.entry) ->
      let c = e.Gpusim.Zoo.config in
      match Config.of_spec ~base:c (Config.to_spec c) with
      | Ok c' -> check_bool (e.Gpusim.Zoo.name ^ " roundtrip") true (c' = c)
      | Error msg -> Alcotest.failf "%s roundtrip: %s" e.Gpusim.Zoo.name msg)
    Gpusim.Zoo.all

let test_config_of_spec_errors () =
  let bad spec needle =
    match Config.of_spec ~base:Config.small spec with
    | Ok _ -> Alcotest.failf "accepted %S" spec
    | Error msg ->
        check_bool
          (Printf.sprintf "%S error mentions %S" spec needle)
          true
          (Astring_like.contains msg needle)
  in
  bad "warp_sz=16" "warp_sz";
  bad "warp_size=banana" "warp_size";
  bad "warp_size=0" "warp";
  bad "barrier=quantum" "barrier"

(* qcheck: the device-spec front door.  Random bytes, and zoo names,
   override lists and full [to_spec] renderings with one to three
   edits, each resolve ([Zoo.resolve]) and apply ([Config.of_spec]) to a
   config or an [Error]; neither raises. *)
let device_spec_never_raises =
  let seeds =
    "w64-sw,num_sms=4" :: "num_sms=2,warp_size=16,barrier=sw"
    :: Gpusim.Zoo.names
    @ List.map (fun (e : Gpusim.Zoo.entry) -> Config.to_spec e.Gpusim.Zoo.config)
        Gpusim.Zoo.all
  in
  QCheck.Test.make ~count:300 ~name:"a device spec resolves or errs"
    (QCheck.make ~print:(Printf.sprintf "%S")
       (Fuzz.input ~alphabet:"warp_sizenumbhdlf=,-0123456789.e" ~sep:"," seeds))
    (fun spec ->
      let never_raises what f =
        match f spec with
        | Ok (_ : Config.t) | Error (_ : string) -> true
        | exception e ->
            QCheck.Test.fail_reportf "%s %S raised %s" what spec (Printexc.to_string e)
      in
      never_raises "Zoo.resolve" Gpusim.Zoo.resolve
      && never_raises "Config.of_spec" (Config.of_spec ~base:Config.small))

(* Same kernel, same data, different warp widths and barrier
   implementations: the device-memory results must be bit-identical.
   Warp width moves cycle counts, never values — and that has to hold
   under the product's launch, the reference walker and a pooled run,
   or a heterogeneous fleet could not batch/steal across devices
   safely. *)
let zoo_width_differential =
  QCheck.Test.make ~count:4 ~name:"zoo width differential"
    QCheck.(
      triple
        (oneofl Serve.Request.catalog_names)
        (int_range 16 48) (int_range 1 1000))
    (fun (kernel, size, seed) ->
      let spec =
        {
          Serve.Request.default_spec with
          Serve.Request.kernel;
          size;
          seed;
          teams = 2;
          threads = 64;
          (* a multiple of every swept warp width *)
          simdlen = 8;
        }
      in
      let run_on ?pool ?(launch = Openmp.Offload.run) cfg =
        let k, bindings, out = Serve.Request.instantiate spec in
        match Openmp.Offload.compile k with
        | Error _ -> Alcotest.failf "%s does not compile" kernel
        | Ok compiled ->
            let clauses =
              Openmp.Clause.(
                none
                |> num_teams spec.Serve.Request.teams
                |> num_threads spec.Serve.Request.threads
                |> simdlen spec.Serve.Request.simdlen)
            in
            ignore
              (launch ~cfg ?pool ~clauses ~bindings compiled
                : Device.report);
            Array.init (Memory.flength out) (Memory.host_get out)
      in
      let reference = run_on (zoo_cfg "w32-hw") in
      let pool = Pool.create ~domains:2 () in
      let ok =
        List.for_all
          (fun name ->
            let cfg = zoo_cfg name in
            let seq = run_on cfg in
            let pooled = run_on ~pool ~launch:Reference.Offload_ref.run cfg in
            seq = reference && pooled = reference)
          [ "w8-hw"; "w16-hw"; "w64-hw"; "w16-sw"; "w64-sw"; "w32-none" ]
      in
      Pool.shutdown pool;
      ok)

(* --- Linebuf ---------------------------------------------------------- *)

let test_linebuf_hit_miss () =
  let lb = Linebuf.create ~capacity:8 ~coalesce_window:0.0 in
  check_bool "first is miss" false (Linebuf.is_resident (fst (Linebuf.touch lb ~vtime:0.0 ~lane:0 1)));
  check_bool "repeat is hit" true (Linebuf.is_resident (fst (Linebuf.touch lb ~vtime:1.0 ~lane:0 1)));
  check_bool "second line miss" false (Linebuf.is_resident (fst (Linebuf.touch lb ~vtime:2.0 ~lane:0 2)));
  check_bool "both resident" true (Linebuf.is_resident (fst (Linebuf.touch lb ~vtime:3.0 ~lane:0 2)))

let test_linebuf_window_infinite_below_capacity () =
  (* A small working set never thrashes: re-touches hit at any distance. *)
  let lb = Linebuf.create ~capacity:8 ~coalesce_window:0.0 in
  for l = 0 to 5 do
    ignore (Linebuf.touch lb ~vtime:(float_of_int l) ~lane:0 l)
  done;
  check_bool "infinite window" true (Linebuf.window lb = Float.infinity);
  check_bool "old line still hits" true (Linebuf.is_resident (fst (Linebuf.touch lb ~vtime:1.0e6 ~lane:0 0)))

let test_linebuf_residency_window () =
  (* Stream far more distinct lines than capacity: the window becomes
     finite and stale re-touches miss while fresh ones hit. *)
  let lb = Linebuf.create ~capacity:4 ~coalesce_window:0.0 in
  for l = 0 to 99 do
    ignore (Linebuf.touch lb ~vtime:(float_of_int l) ~lane:0 l)
  done;
  (* rate = 1 line/cycle, so lines stay resident ~capacity cycles *)
  let w = Linebuf.window lb in
  check_bool "finite window" true (w < 10.0);
  check_bool "stale line misses" false (Linebuf.is_resident (fst (Linebuf.touch lb ~vtime:100.0 ~lane:0 3)));
  check_bool "recent line hits" true (Linebuf.is_resident (fst (Linebuf.touch lb ~vtime:100.0 ~lane:0 99)))

let test_linebuf_concurrent_vtimes_overlap () =
  (* Lanes run serially in host order but overlap in virtual time: a
     touch with an *earlier* vtime than the stamp is still a hit. *)
  let lb = Linebuf.create ~capacity:2 ~coalesce_window:0.0 in
  for l = 0 to 49 do
    ignore (Linebuf.touch lb ~vtime:(float_of_int (l * 10)) ~lane:0 l)
  done;
  (* stamp of line 49 is 490; another lane at vtime 100 touching it is
     concurrent, not stale *)
  check_bool "concurrent touch hits" true (Linebuf.is_resident (fst (Linebuf.touch lb ~vtime:100.0 ~lane:0 49)))

(* A 64-lane wavefront touching one line at one instant: the first lane
   opens the transaction and the other 63 join it for free — lanes
   32-63 have bits of their own, not lanes 0-31's.  A second touch by
   every lane is a re-touch of the full 64-lane burst. *)
let test_linebuf_64_lanes () =
  let lb = Linebuf.create ~capacity:8 ~coalesce_window:0.0 in
  let codes () =
    List.init 64 (fun lane -> Linebuf.touch_code lb ~vtime:5.0 ~lane 7)
  in
  let first = codes () in
  check_int "one miss" 2 (List.hd first);
  check_bool "63 coalesced joins" true (List.for_all (( = ) 0) (List.tl first));
  check_bool "then 64 re-touches of a 64-lane burst" true
    (List.for_all (( = ) 66) (codes ()));
  checkf "each weighs 1/64" (1.0 /. 64.0) (Linebuf.code_weight 66)

let test_linebuf_clear () =
  let lb = Linebuf.create ~capacity:4 ~coalesce_window:0.0 in
  ignore (Linebuf.touch lb ~vtime:0.0 ~lane:0 9);
  Linebuf.clear lb;
  check_int "empty" 0 (Linebuf.size lb);
  check_int "misses reset" 0 (Linebuf.misses lb);
  check_bool "miss after clear" false (Linebuf.is_resident (fst (Linebuf.touch lb ~vtime:0.0 ~lane:0 9)))

(* --- Counters --------------------------------------------------------- *)

let test_counters_merge () =
  let a = Counters.create () and b = Counters.create () in
  a.Counters.global_loads <- 3;
  b.Counters.global_loads <- 4;
  Counters.bump a "x" 1.5;
  Counters.bump b "x" 2.5;
  Counters.merge_into ~dst:a b;
  check_int "loads" 7 a.Counters.global_loads;
  checkf "extras" 4.0 (Counters.get_extra a "x")

let test_counters_coalescing_ratio () =
  let c = Counters.create () in
  checkf "no accesses" 1.0 (Counters.coalescing_ratio c);
  c.Counters.line_hits <- 3;
  c.Counters.line_misses <- 1;
  checkf "3/4" 0.75 (Counters.coalescing_ratio c)

let test_counters_equal () =
  let a = Counters.create () and b = Counters.create () in
  check_bool "fresh equal" true (Counters.equal a b);
  a.Counters.global_loads <- 2;
  check_bool "fixed field differs" false (Counters.equal a b);
  b.Counters.global_loads <- 2;
  check_bool "fixed field matches" true (Counters.equal a b);
  Counters.bump a "x" 1.5;
  check_bool "extra differs" false (Counters.equal a b);
  check_bool "extra differs (sym)" false (Counters.equal b a);
  Counters.bump b "x" 1.5;
  check_bool "extras match" true (Counters.equal a b);
  (* an explicit zero entry is the same as no entry *)
  Counters.bump a "zero" 0.0;
  check_bool "absent extra reads as 0" true (Counters.equal a b);
  check_bool "absent extra reads as 0 (sym)" true (Counters.equal b a)

(* --- Engine / Barrier ------------------------------------------------- *)

let run_block ?(threads = 8) body =
  Engine.run_block ~cfg ~block_id:0 ~num_threads:threads body

let test_engine_runs_all_threads () =
  let seen = Array.make 8 false in
  let r = run_block (fun th -> seen.(th.Thread.tid) <- true) in
  Array.iteri (fun i s -> check_bool (Printf.sprintf "thread %d ran" i) true s) seen;
  check_int "threads" 8 r.Engine.num_threads

let test_engine_barrier_aligns_clocks () =
  (* Threads tick different amounts, then all meet a barrier: every clock
     must come out as max(arrivals) + barrier cost. *)
  let bar = Barrier.create ~expected:4 ~cost:10.0 () in
  let finals = Array.make 4 0.0 in
  ignore
    (run_block ~threads:4 (fun th ->
         Thread.tick th (float_of_int (th.Thread.tid * 100));
         Engine.barrier_wait bar th;
         finals.(th.Thread.tid) <- Thread.clock th));
  Array.iter (fun c -> checkf "aligned" 310.0 c) finals

let test_engine_barrier_reusable () =
  let bar = Barrier.create ~expected:4 ~cost:0.0 () in
  let counter = ref 0 in
  ignore
    (run_block ~threads:4 (fun th ->
         Engine.barrier_wait bar th;
         if th.Thread.tid = 0 then incr counter;
         Engine.barrier_wait bar th;
         if th.Thread.tid = 0 then incr counter));
  check_int "two rounds" 2 !counter

let test_engine_barrier_orders_writes () =
  (* Signal pattern used by the runtime: t0 writes, everyone syncs, all
     read.  The barrier must make the write visible in simulated order. *)
  let bar = Barrier.create ~expected:4 ~cost:1.0 () in
  let cell = ref 0 in
  let seen = Array.make 4 0 in
  ignore
    (run_block ~threads:4 (fun th ->
         if th.Thread.tid = 0 then cell := 99;
         Engine.barrier_wait bar th;
         seen.(th.Thread.tid) <- !cell));
  Array.iter (fun v -> check_int "saw write" 99 v) seen

let test_engine_deadlock_detection () =
  let bar = Barrier.create ~expected:5 ~cost:0.0 () in
  (* only 4 threads arrive at a 5-expected barrier *)
  check_bool "deadlock raised" true
    (try
       ignore (run_block ~threads:4 (fun th -> Engine.barrier_wait bar th));
       false
     with Engine.Deadlock _ -> true)

let test_engine_rejects_bad_sizes () =
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Engine.run_block: num_threads must be positive")
    (fun () -> ignore (run_block ~threads:0 (fun _ -> ())));
  check_bool "too large" true
    (try
       ignore (run_block ~threads:(cfg.Config.max_threads_per_block + 1) (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_busy_excludes_wait () =
  (* A thread that waits at a barrier for a slow peer gains clock but not
     busy time. *)
  let bar = Barrier.create ~expected:2 ~cost:0.0 () in
  let busy = Array.make 2 0.0 in
  ignore
    (run_block ~threads:2 (fun th ->
         if th.Thread.tid = 1 then Thread.tick th 1000.0;
         Engine.barrier_wait bar th;
         busy.(th.Thread.tid) <- Thread.busy th));
  check_bool "fast thread not busy while waiting" true (busy.(0) < 10.0);
  check_bool "slow thread busy" true (busy.(1) >= 1000.0)

(* --- Memory ----------------------------------------------------------- *)

let with_thread f =
  ignore
    (run_block ~threads:1 (fun th -> f th))

let test_memory_roundtrip () =
  let sp = Memory.space () in
  let a = Memory.falloc sp 16 in
  with_thread (fun th ->
      Memory.fset a th 3 2.5;
      checkf "read back" 2.5 (Memory.fget a th 3));
  checkf "host view" 2.5 (Memory.host_get a 3)

let test_memory_int_roundtrip () =
  let sp = Memory.space () in
  let a = Memory.ialloc sp 8 in
  with_thread (fun th ->
      Memory.iset a th 0 42;
      check_int "read back" 42 (Memory.iget a th 0))

let test_memory_bounds () =
  let sp = Memory.space () in
  let a = Memory.falloc sp 4 in
  with_thread (fun th ->
      check_bool "oob raises" true
        (try
           ignore (Memory.fget a th 4);
           false
         with Invalid_argument _ -> true))

let test_memory_coalescing_consecutive () =
  (* 16 consecutive doubles span four 32-byte sectors: one DRAM fetch per
     sector, the other accesses are resident. *)
  let sp = Memory.space () in
  let a = Memory.falloc sp 16 in
  let r =
    run_block ~threads:1 (fun th ->
        for i = 0 to 15 do
          ignore (Memory.fget a th i)
        done)
  in
  check_int "four sector misses" 4 r.Engine.counters.Counters.line_misses;
  check_int "rest resident" 12 r.Engine.counters.Counters.line_hits

let test_memory_strided_access_uncoalesced () =
  (* Stride 16 (one line each) touches a new line per access. *)
  let sp = Memory.space () in
  let a = Memory.falloc sp (16 * 16) in
  let r =
    run_block ~threads:1 (fun th ->
        for i = 0 to 15 do
          ignore (Memory.fget a th (i * 16))
        done)
  in
  check_int "all misses" 16 r.Engine.counters.Counters.line_misses

let test_memory_warp_lanes_share_lines () =
  (* Lanes of one warp reading consecutive elements coalesce: 32 doubles
     = 8 sectors, one transaction each; the other 24 accesses ride along. *)
  let sp = Memory.space () in
  let a = Memory.falloc sp 32 in
  let r =
    run_block ~threads:32 (fun th ->
        ignore (Memory.fget a th th.Thread.tid))
  in
  check_int "eight sectors" 8 r.Engine.counters.Counters.line_misses;
  check_int "rest coalesced" 24 r.Engine.counters.Counters.line_hits;
  checkf "transactions = misses" 8.0 (Counters.lsu_transactions r.Engine.counters)

let test_memory_dram_bytes_accounting () =
  let sp = Memory.space () in
  let a = Memory.falloc sp 16 in
  let r =
    run_block ~threads:1 (fun th -> ignore (Memory.fget a th 0))
  in
  checkf "one line of traffic"
    (float_of_int cfg.Config.line_bytes)
    (Counters.dram_bytes r.Engine.counters)

let test_memory_atomic_add () =
  let sp = Memory.space () in
  let a = Memory.falloc sp 1 in
  ignore
    (run_block ~threads:8 (fun th ->
         Memory.atomic_fadd a th 0 1.0));
  checkf "all adds landed" 8.0 (Memory.host_get a 0)

let test_memory_atomic_contention_cost () =
  (* Same-line atomics in one epoch cost more than spread-out atomics. *)
  let sp = Memory.space () in
  let hot = Memory.falloc sp 1 in
  let cold = Memory.falloc sp (16 * 8) in
  let time_of target idx_of =
    let r =
      run_block ~threads:8 (fun th ->
          Memory.atomic_fadd target th (idx_of th.Thread.tid) 1.0)
    in
    r.Engine.critical_cycles
  in
  let hot_t = time_of hot (fun _ -> 0) in
  let cold_t = time_of cold (fun tid -> tid * 16) in
  check_bool "contention costs" true (hot_t > cold_t)

let test_memory_of_arrays () =
  let sp = Memory.space () in
  let f = Memory.of_float_array sp [| 1.0; 2.0 |] in
  let i = Memory.of_int_array sp [| 7; 8; 9 |] in
  check_int "flength" 2 (Memory.flength f);
  check_int "ilength" 3 (Memory.ilength i);
  checkf "content" 2.0 (Memory.host_get f 1);
  check_int "icontent" 9 (Memory.host_geti i 2);
  Memory.fill f 5.0;
  checkf "fill" 5.0 (Memory.host_get f 0)

(* --- Shared ----------------------------------------------------------- *)

let test_shared_alloc_and_overflow () =
  let a = Shared.arena_of_capacity 100 in
  (match Shared.alloc a ~bytes:60 with
  | Some off -> check_int "first at 0" 0 off
  | None -> Alcotest.fail "alloc failed");
  check_bool "overflow" true (Shared.alloc a ~bytes:60 = None);
  check_int "used" 60 (Shared.used a)

let test_shared_stack_discipline () =
  let a = Shared.arena_of_capacity 100 in
  let m = Shared.mark a in
  ignore (Shared.alloc a ~bytes:40);
  Shared.release a m;
  check_int "released" 0 (Shared.used a);
  check_int "high water kept" 40 (Shared.high_water a)

let test_shared_release_validation () =
  let a = Shared.arena_of_capacity 10 in
  Alcotest.check_raises "bad mark"
    (Invalid_argument "Shared.release: invalid mark") (fun () ->
      Shared.release a 5)

(* --- Occupancy -------------------------------------------------------- *)

let test_occupancy_thread_limit () =
  check_int "by threads" 4
    (Occupancy.blocks_per_sm cfg ~threads_per_block:128 ~smem_per_block:0)

let test_occupancy_smem_limit () =
  let smem = cfg.Config.shared_mem_per_sm / 2 in
  check_int "by smem" 2
    (Occupancy.blocks_per_sm cfg ~threads_per_block:32 ~smem_per_block:smem)

let test_occupancy_unlaunchable () =
  check_int "too big" 0
    (Occupancy.blocks_per_sm cfg
       ~threads_per_block:(cfg.Config.max_threads_per_block + 32)
       ~smem_per_block:0)

let block_cost ?(critical = 100.0) ?(busy = 1000.0) ?(dram = 0.0)
    ?(lsu = 0.0) ?(active = 32) ?(threads = 32) ?(smem = 0) () =
  {
    Occupancy.critical;
    busy;
    dram_bytes = dram;
    lsu_transactions = lsu;
    active_lanes = active;
    threads;
    smem_bytes = smem;
  }

let test_occupancy_latency_hiding () =
  (* With many resident blocks, total time approaches max(critical), not
     sum(critical). *)
  let small_blocks = Array.init 8 (fun _ -> block_cost ~busy:0.0 ()) in
  let bd = Occupancy.kernel_time cfg small_blocks in
  let launch = cfg.Config.cost.Config.launch_overhead in
  check_bool "latency hidden" true (bd.Occupancy.time -. launch < 250.0)

let test_occupancy_throughput_bound () =
  (* Huge busy time must dominate; a single block whose average issuing
     parallelism (busy/critical) is 32 lanes retires 32/dep_stall
     lane-ops per cycle, not full width. *)
  let blocks = [| block_cost ~busy:1.0e6 ~critical:(1.0e6 /. 32.0) () |] in
  let bd = Occupancy.kernel_time cfg blocks in
  checkf "compute bound"
    (1.0e6 /. (32.0 /. cfg.Config.issue_dep_stall))
    bd.Occupancy.compute_bound

let test_occupancy_full_fill_reaches_issue_width () =
  (* Enough concurrently-issuing lanes: the classic busy/issue bound. *)
  let blocks =
    Array.init 16 (fun _ ->
        block_cost ~busy:1.0e6 ~critical:(1.0e6 /. 128.0) ~threads:128 ())
  in
  let bd = Occupancy.kernel_time cfg blocks in
  let per_sm_busy = 4.0e6 (* 16 blocks over 4 SMs *) in
  checkf "issue-width bound"
    (per_sm_busy /. float_of_int cfg.Config.issue_lanes_per_sm)
    bd.Occupancy.compute_bound

let test_occupancy_memory_bound () =
  let blocks = [| block_cost ~dram:1.0e7 () |] in
  let bd = Occupancy.kernel_time cfg blocks in
  check_bool "memory dominates" true
    (bd.Occupancy.memory_bound >= bd.Occupancy.compute_bound)

let test_occupancy_more_blocks_longer () =
  let mk n = Array.init n (fun _ -> block_cost ~busy:50_000.0 ()) in
  let t1 = (Occupancy.kernel_time cfg (mk 4)).Occupancy.time in
  let t2 = (Occupancy.kernel_time cfg (mk 64)).Occupancy.time in
  check_bool "monotone in blocks" true (t2 > t1)

(* --- Device ----------------------------------------------------------- *)

let test_device_launch_end_to_end () =
  let sp = Memory.space () in
  let out = Memory.falloc sp 64 in
  let report =
    Device.launch ~cfg ~grid:4 ~block:16
      ~init:(fun ~block_id _arena -> block_id)
      ~body:(fun block_id th ->
        let i = (block_id * 16) + th.Thread.tid in
        Memory.fset out th i (float_of_int i))
      ()
  in
  check_int "grid" 4 report.Device.grid;
  for i = 0 to 63 do
    checkf "output" (float_of_int i) (Memory.host_get out i)
  done;
  check_bool "time positive" true (report.Device.time_cycles > 0.0)

let test_device_counters_merged () =
  let sp = Memory.space () in
  let a = Memory.falloc sp 128 in
  let report =
    Device.launch ~cfg ~grid:2 ~block:32
      ~init:(fun ~block_id _ -> block_id)
      ~body:(fun b th -> ignore (Memory.fget a th ((b * 32) + th.Thread.tid)))
      ()
  in
  check_int "loads from both blocks" 64
    report.Device.counters.Counters.global_loads

let test_device_trace_records () =
  let trace = Trace.create () in
  ignore
    (Device.launch ~cfg ~trace ~grid:1 ~block:1
       ~init:(fun ~block_id _ -> block_id)
       ~body:(fun _ th -> Thread.trace th ~tag:"hello" "world")
       ());
  check_int "one event" 1 (Trace.count trace ~tag:"hello")

let test_device_validates () =
  check_bool "bad grid" true
    (try
       ignore
         (Device.launch ~cfg ~grid:0 ~block:32
            ~init:(fun ~block_id _ -> block_id)
            ~body:(fun _ _ -> ())
            ());
       false
     with Invalid_argument _ -> true)

let test_engine_non_warp_multiple () =
  (* the raw engine accepts ragged blocks (the runtime layers add their
     own warp-multiple constraints) *)
  let seen = ref 0 in
  let r =
    Engine.run_block ~cfg ~block_id:0 ~num_threads:40 (fun _ -> incr seen)
  in
  check_int "ran 40" 40 !seen;
  check_int "active" 0 r.Engine.active_lanes
  (* no busy work -> no active lanes *)

(* --- Trace export ------------------------------------------------------ *)

let test_trace_export_json () =
  let trace = Trace.create () in
  ignore
    (Device.launch ~cfg ~trace ~grid:2 ~block:4
       ~init:(fun ~block_id _ -> block_id)
       ~body:(fun _ th ->
         Thread.trace th ~tag:"evt" "a \"quoted\" detail\nline2")
       ());
  let json = Gpusim.Trace_export.to_json trace in
  check_bool "array" true
    (String.length json > 2 && json.[0] = '[');
  check_bool "escaped quote" true (Astring_like.contains json "\\\"quoted\\\"");
  check_bool "escaped newline" true (Astring_like.contains json "\\n");
  check_bool "pid field" true (Astring_like.contains json "\"pid\":1");
  (* 8 threads, one event each *)
  check_int "count" 8 (Trace.count trace ~tag:"evt")

let test_trace_export_file () =
  let trace = Trace.create () in
  Trace.record (Some trace) ~time:1.0 ~block:0 ~tid:0 ~tag:"x" "y";
  let path = Filename.temp_file "ompsimd" ".json" in
  Gpusim.Trace_export.write_file trace ~path;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  check_bool "non-empty" true (len > 10)

(* --- Engine stress ------------------------------------------------------ *)

let test_engine_many_barrier_rounds () =
  (* 64 threads through 100 rounds of interleaved warp/block barriers:
     exercises barrier reuse and the run queue at depth *)
  let bar_block = Barrier.create ~expected:64 ~cost:1.0 () in
  let bar_warps =
    Array.init 2 (fun w ->
        Barrier.create ~name:(Printf.sprintf "w%d" w) ~expected:32 ~cost:1.0 ())
  in
  let r =
    Engine.run_block ~cfg ~block_id:0 ~num_threads:64 (fun th ->
        for _ = 1 to 100 do
          Engine.barrier_wait bar_warps.(th.Thread.tid / 32) th;
          Engine.barrier_wait bar_block th
        done)
  in
  check_int "all finished" 64 r.Engine.num_threads;
  check_bool "time accumulated" true (r.Engine.critical_cycles >= 200.0)

let count_substring s sub =
  let n = String.length sub in
  let rec go i acc =
    if n = 0 || i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_deadlock_reports_same_name_barriers () =
  (* Two live barriers sharing a display name (per-warp barriers made in
     a loop): the deadlock report must list both, which requires keying
     the live set by unique id, not name. *)
  let b0 = Barrier.create ~name:"w" ~expected:2 ~cost:0.0 () in
  let b1 = Barrier.create ~name:"w" ~expected:2 ~cost:0.0 () in
  check_bool "ids distinct" true (Barrier.id b0 <> Barrier.id b1);
  match
    Engine.run_block ~cfg ~block_id:0 ~num_threads:4 (fun th ->
        if th.Thread.tid = 0 then Engine.barrier_wait b0 th
        else if th.Thread.tid = 2 then Engine.barrier_wait b1 th)
  with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
      (* the report numbers each barrier by its order of first park in
         the block (name#n), so two same-name barriers stay
         distinguishable *)
      check_int "first stuck barrier reported" 1
        (count_substring msg "[w#0 1/2]");
      check_int "second stuck barrier reported" 1
        (count_substring msg "[w#1 1/2]")

(* --- Pool / parallel determinism -------------------------------------- *)

let test_pool_parallel_init () =
  check_bool "the pool knob keeps its name" true
    (List.mem "OMPSIMD_DOMAINS" Knobs.names);
  let seq = Pool.create () in
  check_int "default is sequential" 0 (Pool.size seq);
  let r = Pool.parallel_init seq 10 (fun i -> 2 * i) in
  Array.iteri (fun i v -> check_int "inline slot" (2 * i) v) r;
  Pool.shutdown seq;
  let pool = Pool.create ~domains:3 () in
  check_int "workers" 3 (Pool.size pool);
  let r = Pool.parallel_init pool 100 (fun i -> i * i) in
  Array.iteri (fun i v -> check_int "slot" (i * i) v) r;
  (* repeated jobs reuse the same workers *)
  let r2 = Pool.parallel_init pool 5 string_of_int in
  Alcotest.(check (array string))
    "second job" [| "0"; "1"; "2"; "3"; "4" |] r2;
  (* the lowest-index exception is the one re-raised, as in a
     left-to-right sequential run *)
  check_bool "lowest-index exception" true
    (try
       ignore
         (Pool.parallel_init pool 10 (fun i ->
              if i >= 4 then failwith (string_of_int i) else i));
       false
     with Failure msg -> msg = "4");
  (* the pool survives a failed job *)
  let r3 = Pool.parallel_init pool 8 (fun i -> i + 1) in
  check_int "after failure" 8 r3.(7);
  Pool.shutdown pool

let check_reports_identical label (a : Device.report) (b : Device.report) =
  check_int (label ^ ": grid") a.Device.grid b.Device.grid;
  check_bool
    (label ^ ": time bit-identical")
    true
    (Float.equal a.Device.time_cycles b.Device.time_cycles);
  check_bool (label ^ ": breakdown identical") true
    (a.Device.breakdown = b.Device.breakdown);
  check_bool (label ^ ": merged counters identical") true
    (Counters.equal a.Device.counters b.Device.counters);
  check_bool (label ^ ": block costs identical") true
    (a.Device.block_costs = b.Device.block_costs)

(* Uniform grid (the ideal kernel: every row costs the same), 7 teams so
   the trailing team gets a short chunk. *)
let test_determinism_uniform_grid () =
  let t =
    Workloads.Ideal.generate
      { Workloads.Ideal.rows = 100; inner = 32; flops_per_elem = 16; seed = 3 }
  in
  let mode3 = Workloads.Harness.spmd_simd ~group_size:4 in
  let run ?pool () =
    (Workloads.Ideal.run ~cfg ?pool ~num_teams:7 ~threads:32 ~mode3 t)
      .Workloads.Harness.report
  in
  let seq = run () in
  let pool0 = Pool.create ~domains:0 () in
  let r0 = run ~pool:pool0 () in
  Pool.shutdown pool0;
  let pool4 = Pool.create ~domains:4 () in
  let r4 = run ~pool:pool4 () in
  Pool.shutdown pool4;
  check_reports_identical "no pool vs domains=0" seq r0;
  check_reports_identical "no pool vs domains=4" seq r4

(* Irregular grid (banded spmv: data-dependent row lengths): pooled
   simulation must still match bit-for-bit. *)
let test_determinism_irregular_grid () =
  let t =
    Workloads.Spmv.generate
      {
        Workloads.Spmv.rows = 80;
        cols = 80;
        profile = Workloads.Spmv.Banded { mean = 8; spread = 6 };
        band = 16;
        seed = 1;
      }
  in
  let mode3 = Workloads.Harness.generic_simd ~group_size:4 in
  let run ?pool () =
    (Workloads.Spmv.run_simd ~cfg ?pool ~num_teams:7 ~threads:32 ~mode3 t)
      .Workloads.Harness.report
  in
  let seq = run () in
  let pool0 = Pool.create ~domains:0 () in
  let r0 = run ~pool:pool0 () in
  Pool.shutdown pool0;
  let pool4 = Pool.create ~domains:4 () in
  let r4 = run ~pool:pool4 () in
  Pool.shutdown pool4;
  check_reports_identical "no pool vs domains=0" seq r0;
  check_reports_identical "no pool vs domains=4" seq r4

(* Warm launches fork an L2 whose previous commits are still queued:
   the first fork of each launch replays them, and on a pool the blocks
   of several domains race to make that first fork.  A cold launch and
   two warm ones over a 40-sector L2 (so replay order decides which
   lines stay resident) must match the sequential chain bit-for-bit. *)
let test_determinism_warm_chain () =
  let cfg = Result.get_ok (Config.of_spec ~base:cfg "l2_sectors=40") in
  let shape =
    {
      Workloads.Spmv.rows = 80;
      cols = 80;
      profile = Workloads.Spmv.Banded { mean = 8; spread = 6 };
      band = 16;
      seed = 2;
    }
  in
  let mode3 = Workloads.Harness.generic_simd ~group_size:4 in
  let chain ?pool () =
    let t = Workloads.Spmv.generate shape in
    List.map
      (fun reset_l2 ->
        (Workloads.Spmv.run_simd ~cfg ?pool ~reset_l2 ~num_teams:16
           ~threads:32 ~mode3 t)
          .Workloads.Harness.report)
      [ true; false; false ]
  in
  let seq = chain () in
  let pool4 = Pool.create ~domains:4 () in
  let r4 = chain ~pool:pool4 () in
  Pool.shutdown pool4;
  List.iteri
    (fun i (a, b) ->
      check_reports_identical (Printf.sprintf "launch %d: no pool vs domains=4" i) a b)
    (List.combine seq r4);
  check_bool "warm launches read the cold launch's L2" true
    ((List.nth seq 1).Device.counters.Counters.l2_hits
    > (List.nth seq 0).Device.counters.Counters.l2_hits)

let test_pool_trace_stays_sequential () =
  (* A trace forces the sequential path even when a pool is supplied: the
     full grid is simulated and every event lands in the one log. *)
  let pool = Pool.create ~domains:4 () in
  let trace = Trace.create () in
  ignore
    (Device.launch ~cfg ~pool ~trace ~grid:3 ~block:4
       ~init:(fun ~block_id _ -> block_id)
       ~body:(fun _ th -> Thread.trace th ~tag:"evt" "x")
       ());
  Pool.shutdown pool;
  check_int "all threads traced" 12 (Trace.count trace ~tag:"evt")

(* --- qcheck properties ------------------------------------------------ *)

(* The coalescing-key memo in Memory.line_of is exact: over bursts of
   strided accesses cycling through up to eight array bases (twice the
   memo's four slots, so entries are evicted and refilled), every
   memoized line equals the plain division. *)
let line_memo_exact =
  QCheck.Test.make ~count:200 ~name:"line memo = plain division"
    QCheck.(
      pair
        (int_range 1 8)
        (list_of_size Gen.(int_range 1 40)
           (quad (int_range 0 7) (int_range 0 5000) (int_range 0 40)
              (int_range 1 32))))
    (fun (nbases, bursts) ->
      let warp =
        Thread.make_warp ~cfg ~launch:Thread.default_launch ~warp_index:0
      in
      let counters = Counters.create () in
      let th = Thread.create ~cfg ~counters ~block_id:0 ~tid:0 ~warp () in
      (* element-aligned bases, deliberately not line-aligned *)
      let base k = (k mod nbases * 1_000_003) * Memory.element_bytes in
      let lb = cfg.Config.line_bytes in
      List.for_all
        (fun (k, start, stride, len) ->
          List.for_all
            (fun i ->
              let index = start + (i * stride) in
              let base = base k in
              Memory.line_of th ~base ~index
              = (base + (index * Memory.element_bytes)) / lb)
            (List.init len Fun.id))
        bursts)

(* A naive reference for Linebuf's classification: per line, the latest
   vtime and the list of lanes in the open burst; a burst's size is the
   list's length.  A fork reads its parent's entries (frozen) under its
   own, and the residency window and compaction rule are Linebuf's, so
   the codes must agree exactly. *)
module Linebuf_ref = struct
  type entry = { vt : float; lanes : int list }

  type t = {
    capacity : int;
    coalesce_window : float;
    base : (int, entry) Hashtbl.t option;
    own : (int, entry) Hashtbl.t;
    mutable misses : int;
    mutable max_vtime : float;
  }

  let create ~capacity ~coalesce_window =
    {
      capacity;
      coalesce_window;
      base = None;
      own = Hashtbl.create 16;
      misses = 0;
      max_vtime = 0.0;
    }

  let fork p = { p with base = Some p.own; own = Hashtbl.create 16 }

  let window m =
    if m.misses <= m.capacity || m.max_vtime <= 0.0 then Float.infinity
    else float_of_int m.capacity *. m.max_vtime /. float_of_int m.misses

  let touch m ~vtime ~lane line =
    if vtime > m.max_vtime then m.max_vtime <- vtime;
    let prior =
      match Hashtbl.find_opt m.own line with
      | Some e -> Some e
      | None -> Option.bind m.base (fun b -> Hashtbl.find_opt b line)
    in
    let code, e =
      match prior with
      | None -> (2, { vt = vtime; lanes = [ lane ] })
      | Some p ->
          let gap = vtime -. p.vt in
          let vt = Float.max p.vt vtime in
          if Float.abs gap <= m.coalesce_window then
            if List.mem lane p.lanes then (List.length p.lanes + 2, { p with vt })
            else (0, { vt; lanes = lane :: p.lanes })
          else ((if gap <= window m then 1 else 2), { vt; lanes = [ lane ] })
    in
    Hashtbl.replace m.own line e;
    if code = 2 then begin
      m.misses <- m.misses + 1;
      if Hashtbl.length m.own > 8 * m.capacity then begin
        let horizon = m.max_vtime -. window m in
        Hashtbl.filter_map_inplace
          (fun _ e -> if e.vt >= horizon then Some e else None)
          m.own
      end
    end;
    code

  let clear m =
    Hashtbl.reset m.own;
    m.misses <- 0;
    m.max_vtime <- 0.0
end

(* Linebuf.touch_code against the reference, at several warp widths,
   over fresh, demand-sized, forked and recycled tables: a random
   prefix warms the parent the forks read through, and every buffer is
   cleared and replayed once more. *)
let linebuf_ref_widths = [ 8; 16; 32; 64 ]

let linebuf_matches_reference =
  let open QCheck in
  let stream width lines =
    Gen.(
      list_size (int_range 0 300)
        (triple (int_range 0 lines) (int_range 0 (width - 1)) (int_range (-3) 12)))
  in
  let gen =
    Gen.(
      oneofl linebuf_ref_widths >>= fun width ->
      int_range 4 160 >>= fun lines ->
      map
        (fun (capacity, window, demand, (prefix, main)) ->
          (width, capacity, window, demand, prefix, main))
        (quad (int_range 1 8) (oneofl [ 0.0; 2.0; 8.0 ]) (int_range 0 400)
           (pair (stream width lines) (stream width lines))))
  in
  let print (width, capacity, window, demand, prefix, main) =
    Printf.sprintf "width %d capacity %d window %g demand %d prefix %d main %d"
      width capacity window demand (List.length prefix) (List.length main)
  in
  Test.make ~name:"linebuf codes = reference model" ~count:300
    (make ~print gen)
    (fun (_, capacity, coalesce_window, demand, prefix, main) ->
      let run touch s =
        let now = ref 0.0 in
        List.map
          (fun (line, lane, dt) ->
            now := !now +. float_of_int dt;
            touch ~vtime:!now ~lane line)
          s
      in
      let parent = Linebuf.create ~capacity ~coalesce_window in
      let rparent = Linebuf_ref.create ~capacity ~coalesce_window in
      let warm = run (Linebuf.touch_code parent) prefix in
      let rwarm = run (Linebuf_ref.touch rparent) prefix in
      (* a fork's table that served another fork's stream first *)
      let served = Linebuf.fork parent in
      ignore (run (Linebuf.touch_code served) main);
      let sized = Linebuf.create_sized ~demand ~capacity ~coalesce_window () in
      ignore (run (Linebuf.touch_code sized) prefix);
      let fresh () = Linebuf_ref.create ~capacity ~coalesce_window in
      let pairs =
        [
          (Linebuf.create ~capacity ~coalesce_window, fresh ());
          (Linebuf.create_sized ~demand ~capacity ~coalesce_window (), fresh ());
          ( Linebuf.create_sized ~table:(Linebuf.table sized) ~demand ~capacity
              ~coalesce_window (),
            fresh () );
          (Linebuf.fork parent, Linebuf_ref.fork rparent);
          (Linebuf.fork ~table:(Linebuf.table served) parent, Linebuf_ref.fork rparent);
        ]
      in
      let agree () =
        List.for_all
          (fun (lb, m) ->
            run (Linebuf.touch_code lb) main = run (Linebuf_ref.touch m) main)
          pairs
      in
      warm = rwarm
      && agree ()
      && begin
           List.iter
             (fun (lb, m) ->
               Linebuf.clear lb;
               Linebuf_ref.clear m)
             pairs;
           agree ()
         end)

let qcheck_cases =
  let open QCheck in
  [
    line_memo_exact;
    linebuf_matches_reference;
    Test.make ~name:"barrier release = max arrival + cost" ~count:100
      (pair (int_range 2 32) (list_of_size Gen.(return 8) (float_range 0.0 1000.0)))
      (fun (_, ticks) ->
        let ticks = Array.of_list ticks in
        let bar = Barrier.create ~expected:8 ~cost:5.0 () in
        let finals = Array.make 8 0.0 in
        ignore
          (Engine.run_block ~cfg ~block_id:0 ~num_threads:8 (fun th ->
               Thread.tick th ticks.(th.Thread.tid);
               Engine.barrier_wait bar th;
               finals.(th.Thread.tid) <- Thread.clock th));
        let expected = Array.fold_left Float.max 0.0 ticks +. 5.0 in
        Array.for_all (fun c -> abs_float (c -. expected) < 1e-6) finals);
    Test.make ~name:"linebuf hit implies prior touch" ~count:200
      (pair (int_range 1 16) (list (int_range 0 64)))
      (fun (cap, touches) ->
        let lb = Linebuf.create ~capacity:cap ~coalesce_window:0.0 in
        let seen = Hashtbl.create 16 in
        List.for_all
          (fun l ->
            let vtime = float_of_int (Hashtbl.length seen) in
            let hit = Linebuf.is_resident (fst (Linebuf.touch lb ~vtime ~lane:0 l)) in
            let ok = (not hit) || Hashtbl.mem seen l in
            Hashtbl.replace seen l ();
            ok)
          touches);
    (* A table's size never shows in its answers: device-sized,
       demand-sized (below or above the eventual footprint) and forked
       buffers classify a stream identically, through grows and past the
       compact threshold (8 x capacity entries), and again after [clear]
       empties them in place.  So do a buffer whose table grew far past
       its floor before a [clear], and a fork over a recycled table that
       served another fork's stream. *)
    Test.make ~name:"linebuf codes do not depend on table size" ~count:200
      (quad (int_range 1 8) (int_range 0 600) bool
         (list_of_size
            Gen.(int_range 0 400)
            (triple (int_range 0 200) (int_range 0 63) (int_range (-3) 12))))
      (fun (capacity, demand, wide, stream) ->
        let coalesce_window = if wide then 2.0 else 0.0 in
        (* 300 distinct lines at one instant: the window stays open, so
           compaction keeps them all and the table grows to 1024 slots *)
        let fill lb =
          for line = 0 to 299 do
            ignore (Linebuf.touch_code lb ~vtime:0.0 ~lane:(line land 31) line)
          done
        in
        let grown = Linebuf.create ~capacity ~coalesce_window in
        fill grown;
        Linebuf.clear grown;
        let served = Linebuf.fork (Linebuf.create ~capacity ~coalesce_window) in
        fill served;
        let recycled =
          Linebuf.fork ~table:(Linebuf.table served)
            (Linebuf.create ~capacity ~coalesce_window)
        in
        let bufs =
          [
            Linebuf.create ~capacity ~coalesce_window;
            Linebuf.create_sized ~demand ~capacity ~coalesce_window ();
            Linebuf.create_sized ~demand:0 ~capacity ~coalesce_window ();
            Linebuf.fork (Linebuf.create ~capacity ~coalesce_window);
            grown;
            recycled;
          ]
        in
        let codes lb =
          let now = ref 0.0 in
          List.map
            (fun (line, lane, dt) ->
              now := !now +. float_of_int dt;
              Linebuf.touch_code lb ~vtime:!now ~lane line)
            stream
        in
        let first = List.map codes bufs in
        List.iter Linebuf.clear bufs;
        let again = List.map codes bufs in
        List.for_all (( = ) (List.hd first)) (first @ again));
    Test.make ~name:"occupancy bounded by device caps" ~count:200
      (pair (int_range 1 32) (int_range 0 20_000))
      (fun (warps, smem) ->
        let threads = warps * 32 in
        let r = Occupancy.blocks_per_sm cfg ~threads_per_block:threads ~smem_per_block:smem in
        r <= cfg.Config.max_blocks_per_sm
        && (r = 0 || r * threads <= cfg.Config.max_threads_per_sm));
  ]

(* --- stepped threads --------------------------------------------------

   A random masked barrier program: [rounds] rounds; in each, every
   thread ticks its own cost and arrives at its group's barrier (a random
   partition of the threads, one barrier per group).  Run once with every
   thread a fiber and once with a random subset running as stepped
   threads (Engine.arrive / suspend_stepped): the global arrival order
   and every thread's post-release clock trace must be identical — a
   step runs exactly where the scheduler would have resumed the fiber. *)

type sprog = {
  sthreads : int;
  groups : int array array;  (* round -> tid -> group *)
  ticks : float array array;  (* round -> tid -> cost *)
  costs : float array;  (* round -> barrier cost *)
}

(* one barrier per (round, group), expecting the group's threads *)
let sprog_barriers prog =
  Array.mapi
    (fun r grp ->
      let n = Array.fold_left max 0 grp + 1 in
      Array.init n (fun gi ->
          let expected =
            Array.fold_left (fun a g -> if g = gi then a + 1 else a) 0 grp
          in
          Barrier.create
            ~name:(Printf.sprintf "r%d.g%d" r gi)
            ~expected:(max 1 expected) ~cost:prog.costs.(r) ()))
    prog.groups

let run_sprog ?(launch = Thread.default_launch) prog ~stepped =
  let rounds = Array.length prog.costs in
  let bars = sprog_barriers prog in
  let log = ref [] in
  let pos = Array.make prog.sthreads 0 in
  let suspended = Array.make prog.sthreads false in
  let start th r =
    let tid = th.Thread.tid in
    Thread.tick th prog.ticks.(r).(tid);
    log := `Arrive (tid, r) :: !log;
    bars.(r).(prog.groups.(r).(tid))
  in
  let released th r = log := `Clock (th.Thread.tid, r, Thread.clock th) :: !log in
  let fiber th =
    for r = 0 to rounds - 1 do
      Engine.barrier_wait (start th r) th;
      released th r
    done
  in
  (* the stepped twin: [pos] is the next round to start *)
  let rec from th r =
    if r = rounds then true
    else begin
      pos.(th.Thread.tid) <- r + 1;
      let bar = start th r in
      Engine.arrive bar th && (released th r; from th (r + 1))
    end
  in
  let step th =
    let r = pos.(th.Thread.tid) - 1 in
    released th r;
    from th (r + 1)
  in
  let result =
    match
      Engine.run_block ~cfg ~launch ~block_id:0 ~num_threads:prog.sthreads
        (fun th ->
          if stepped th.Thread.tid then begin
            if not (from th 0) then begin
              suspended.(th.Thread.tid) <- true;
              Engine.suspend_stepped th step
            end
          end
          else fiber th)
    with
    | r -> Ok r.Engine.critical_cycles
    | exception Engine.Deadlock _ -> Error (Engine.take_stall ())
  in
  ((List.rev !log, result), suspended)

let sprog_gen =
  let open QCheck.Gen in
  int_range 2 12 >>= fun sthreads ->
  int_range 1 6 >>= fun rounds ->
  let round =
    int_range 1 4 >>= fun k ->
    pair
      (array_size (return sthreads) (int_range 0 (k - 1)))
      (array_size (return sthreads) (float_range 0.0 50.0))
  in
  pair (array_size (return rounds) round) (array_size (return rounds) (float_range 0.0 8.0))
  >>= fun (rs, costs) ->
  (* renumber each round's groups densely so every barrier has arrivals *)
  let dense grp =
    let ids = Hashtbl.create 4 in
    Array.map
      (fun g ->
        match Hashtbl.find_opt ids g with
        | Some i -> i
        | None ->
            let i = Hashtbl.length ids in
            Hashtbl.add ids g i;
            i)
      grp
  in
  array_size (return sthreads) bool >>= fun mask ->
  return
    ( {
        sthreads;
        groups = Array.map (fun (g, _) -> dense g) rs;
        ticks = Array.map snd rs;
        costs;
      },
      mask )

let stepping_preserves_schedule =
  QCheck.Test.make ~count:300 ~name:"stepped threads keep the fiber schedule"
    (QCheck.make sprog_gen) (fun (prog, mask) ->
      let fibers, _ = run_sprog prog ~stepped:(fun _ -> false) in
      let mixed, _ = run_sprog prog ~stepped:(fun tid -> mask.(tid)) in
      let all, _ = run_sprog prog ~stepped:(fun _ -> true) in
      fibers = mixed && fibers = all)

(* Exit arrivals.  The same programs, where each thread's last-round
   arrival is its last action, run with every thread in one of four
   shapes: a fiber that waits at every round (the reference); a fiber
   whose last arrival is [Engine.arrive_last]; a stepped thread
   ([suspend_stepped]) whose resumed fiber makes that exit arrival; and
   a detached thread ([Engine.detach] at its first parking arrival)
   whose last step makes it.  The last round is optionally one
   block-wide barrier, like the team barrier that closes a region, and
   optionally one thread skips it, so the block hangs with exit
   waiters.  Against the all-fiber run: the same arrival order, the
   same clocks after every release before the last round, the same
   final clock per thread, and the same critical path or stall record
   (finished count and stuck barriers). *)
type exit_shape = Wait_all | Exit_fiber | Exit_stepped | Exit_detached

let run_xprog prog ~shape ~drop =
  let rounds = Array.length prog.costs in
  let last = rounds - 1 in
  let bars = sprog_barriers prog in
  let log = ref [] in
  let pos = Array.make prog.sthreads 0 in
  let threads = Array.make prog.sthreads None in
  let start th r =
    let tid = th.Thread.tid in
    Thread.tick th prog.ticks.(r).(tid);
    log := `Arrive (tid, r) :: !log;
    bars.(r).(prog.groups.(r).(tid))
  in
  let released th r =
    if r < last then log := `Clock (th.Thread.tid, r, Thread.clock th) :: !log
  in
  let wait_rounds th n =
    for r = 0 to n - 1 do
      Engine.barrier_wait (start th r) th;
      released th r
    done
  in
  let exit th = Engine.arrive_last (start th last) th in
  (* stepped: rounds before the last as steps, then the fiber's exit *)
  let rec stepped_from th r =
    r = last
    || begin
         pos.(th.Thread.tid) <- r + 1;
         let bar = start th r in
         Engine.arrive bar th && (released th r; stepped_from th (r + 1))
       end
  in
  let stepped_step th =
    let r = pos.(th.Thread.tid) - 1 in
    released th r;
    stepped_from th (r + 1)
  in
  (* detached: [false] once parked; the last round is the exit *)
  let rec detached_from th r =
    pos.(th.Thread.tid) <- r + 1;
    if r = last then begin
      exit th;
      true
    end
    else
      Engine.arrive (start th r) th && (released th r; detached_from th (r + 1))
  in
  let detached_step th =
    let r = pos.(th.Thread.tid) - 1 in
    released th r;
    ignore (detached_from th (r + 1) : bool);
    false
  in
  let result =
    match
      Engine.run_block ~cfg ~block_id:0 ~num_threads:prog.sthreads (fun th ->
          let tid = th.Thread.tid in
          threads.(tid) <- Some th;
          if drop = Some tid then wait_rounds th last
          else
            match shape.(tid) with
            | Wait_all -> wait_rounds th rounds
            | Exit_fiber ->
                wait_rounds th last;
                exit th
            | Exit_stepped ->
                if not (stepped_from th 0) then
                  Engine.suspend_stepped th stepped_step;
                exit th
            | Exit_detached ->
                if not (detached_from th 0) then Engine.detach th detached_step)
    with
    | r -> Ok r.Engine.critical_cycles
    | exception Engine.Deadlock _ -> Error (Engine.take_stall ())
  in
  let clocks = Array.map (fun th -> Thread.clock (Option.get th)) threads in
  (List.rev !log, clocks, result)

let xprog_gen =
  let open QCheck.Gen in
  sprog_gen >>= fun (prog, _) ->
  let n = prog.sthreads in
  array_size (return n) (oneofl [ Wait_all; Exit_fiber; Exit_stepped; Exit_detached ])
  >>= fun shape ->
  bool >>= fun block_close ->
  opt (int_range 0 (n - 1)) >>= fun drop ->
  let rounds = Array.length prog.costs in
  let groups =
    if block_close then
      Array.mapi (fun r g -> if r = rounds - 1 then Array.make n 0 else g) prog.groups
    else prog.groups
  in
  return ({ prog with groups }, shape, drop)

let exit_arrivals_preserve_schedule =
  QCheck.Test.make ~count:300 ~name:"exit arrivals keep the fiber schedule"
    (QCheck.make xprog_gen) (fun (prog, shape, drop) ->
      let reference =
        run_xprog prog ~shape:(Array.make prog.sthreads Wait_all) ~drop
      in
      reference = run_xprog prog ~shape ~drop
      && reference
         = run_xprog prog ~shape:(Array.make prog.sthreads Exit_detached) ~drop)

(* An injected stall on a stepped thread parks it on the private stall
   barrier under its saved continuation: the block deadlocks with the
   same stall report, and the same recorded failure, as when the victim
   is a fiber. *)
let test_stepped_stall_report () =
  let prog =
    {
      sthreads = 64;
      groups = Array.init 8 (fun _ -> Array.init 64 (fun tid -> tid / 8));
      ticks =
        Array.init 8 (fun r -> Array.init 64 (fun tid -> float_of_int (300 + ((tid * 7 + r) mod 11))));
      costs = Array.make 8 2.0;
    }
  in
  (* this seed stalls tid 32 in round 5: it parked in round 0, so the
     stall hits it as a stepped thread *)
  let plan = Gpusim.Fault.parse_spec ~seed:4 "stall=1" in
  let launch = { Thread.default_launch with Thread.inject = true } in
  let run stepped =
    Gpusim.Fault.block_begin plan ~nonce:0 ~block_id:0 ~num_threads:64
      ~warp_size:cfg.Config.warp_size;
    let (log, result), suspended = run_sprog ~launch prog ~stepped in
    let ev = Gpusim.Fault.block_end () in
    ((log, result, ev.Gpusim.Fault.ev_stall), suspended)
  in
  let ((_, fiber_result, fiber_stall) as fibers), _ = run (fun _ -> false) in
  let stepped, suspended = run (fun _ -> true) in
  (match (fiber_result, fiber_stall) with
  | Error (Some si), Some f ->
      Alcotest.(check bool)
        "the stall barrier is in the report" true
        (List.exists
           (fun s -> s.Engine.stuck_name = "fault.stall")
           si.Engine.stall_stuck);
      Alcotest.(check bool)
        "the victim was a stepped thread" true
        (f.Gpusim.Fault.f_tid >= 0 && suspended.(f.Gpusim.Fault.f_tid))
  | _ -> Alcotest.fail "the stall plan must deadlock the block");
  Alcotest.(check bool) "stepped victim: same log, report and failure" true
    (fibers = stepped)

let suite =
  [
    ( "gpusim.config",
      [
        Alcotest.test_case "presets valid" `Quick test_config_presets_valid;
        Alcotest.test_case "validation" `Quick test_config_validation_catches;
        Alcotest.test_case "amd flag" `Quick test_config_amd_flag;
      ] );
    ( "gpusim.zoo",
      [
        Alcotest.test_case "registry" `Quick test_zoo_registry;
        Alcotest.test_case "resolve" `Quick test_zoo_resolve;
        Alcotest.test_case "spec roundtrip" `Quick test_config_spec_roundtrip;
        Alcotest.test_case "spec errors" `Quick test_config_of_spec_errors;
        QCheck_alcotest.to_alcotest device_spec_never_raises;
        QCheck_alcotest.to_alcotest zoo_width_differential;
      ] );
    ( "gpusim.linebuf",
      [
        Alcotest.test_case "hit/miss" `Quick test_linebuf_hit_miss;
        Alcotest.test_case "infinite window below capacity" `Quick
          test_linebuf_window_infinite_below_capacity;
        Alcotest.test_case "residency window" `Quick test_linebuf_residency_window;
        Alcotest.test_case "concurrent vtimes overlap" `Quick
          test_linebuf_concurrent_vtimes_overlap;
        Alcotest.test_case "clear" `Quick test_linebuf_clear;
        Alcotest.test_case "64 lanes, one burst" `Quick test_linebuf_64_lanes;
      ] );
    ( "gpusim.counters",
      [
        Alcotest.test_case "merge" `Quick test_counters_merge;
        Alcotest.test_case "coalescing ratio" `Quick test_counters_coalescing_ratio;
        Alcotest.test_case "equal" `Quick test_counters_equal;
      ] );
    ( "gpusim.engine",
      [
        Alcotest.test_case "runs all threads" `Quick test_engine_runs_all_threads;
        Alcotest.test_case "barrier aligns clocks" `Quick test_engine_barrier_aligns_clocks;
        Alcotest.test_case "barrier reusable" `Quick test_engine_barrier_reusable;
        Alcotest.test_case "barrier orders writes" `Quick test_engine_barrier_orders_writes;
        Alcotest.test_case "deadlock detection" `Quick test_engine_deadlock_detection;
        Alcotest.test_case "size validation" `Quick test_engine_rejects_bad_sizes;
        Alcotest.test_case "busy excludes wait" `Quick test_engine_busy_excludes_wait;
        QCheck_alcotest.to_alcotest stepping_preserves_schedule;
        QCheck_alcotest.to_alcotest exit_arrivals_preserve_schedule;
        Alcotest.test_case "stepped thread in a stall report" `Quick
          test_stepped_stall_report;
      ] );
    ( "gpusim.memory",
      [
        Alcotest.test_case "float roundtrip" `Quick test_memory_roundtrip;
        Alcotest.test_case "int roundtrip" `Quick test_memory_int_roundtrip;
        Alcotest.test_case "bounds" `Quick test_memory_bounds;
        Alcotest.test_case "consecutive coalesce" `Quick test_memory_coalescing_consecutive;
        Alcotest.test_case "strided uncoalesced" `Quick test_memory_strided_access_uncoalesced;
        Alcotest.test_case "warp lanes share lines" `Quick test_memory_warp_lanes_share_lines;
        Alcotest.test_case "dram byte accounting" `Quick test_memory_dram_bytes_accounting;
        Alcotest.test_case "atomic add" `Quick test_memory_atomic_add;
        Alcotest.test_case "atomic contention" `Quick test_memory_atomic_contention_cost;
        Alcotest.test_case "of arrays" `Quick test_memory_of_arrays;
      ] );
    ( "gpusim.shared",
      [
        Alcotest.test_case "alloc/overflow" `Quick test_shared_alloc_and_overflow;
        Alcotest.test_case "stack discipline" `Quick test_shared_stack_discipline;
        Alcotest.test_case "release validation" `Quick test_shared_release_validation;
      ] );
    ( "gpusim.occupancy",
      [
        Alcotest.test_case "thread limit" `Quick test_occupancy_thread_limit;
        Alcotest.test_case "smem limit" `Quick test_occupancy_smem_limit;
        Alcotest.test_case "unlaunchable" `Quick test_occupancy_unlaunchable;
        Alcotest.test_case "latency hiding" `Quick test_occupancy_latency_hiding;
        Alcotest.test_case "throughput bound" `Quick test_occupancy_throughput_bound;
        Alcotest.test_case "full fill reaches issue width" `Quick
          test_occupancy_full_fill_reaches_issue_width;
        Alcotest.test_case "memory bound" `Quick test_occupancy_memory_bound;
        Alcotest.test_case "monotone in blocks" `Quick test_occupancy_more_blocks_longer;
      ] );
    ( "gpusim.device",
      [
        Alcotest.test_case "end to end" `Quick test_device_launch_end_to_end;
        Alcotest.test_case "counters merged" `Quick test_device_counters_merged;
        Alcotest.test_case "trace" `Quick test_device_trace_records;
        Alcotest.test_case "validation" `Quick test_device_validates;
        Alcotest.test_case "trace export json" `Quick test_trace_export_json;
        Alcotest.test_case "trace export file" `Quick test_trace_export_file;
        Alcotest.test_case "barrier stress" `Quick test_engine_many_barrier_rounds;
        Alcotest.test_case "non-warp-multiple block" `Quick
          test_engine_non_warp_multiple;
        Alcotest.test_case "same-name barriers in deadlock report" `Quick
          test_deadlock_reports_same_name_barriers;
      ] );
    ( "gpusim.pool",
      [
        Alcotest.test_case "parallel_init" `Quick test_pool_parallel_init;
        Alcotest.test_case "uniform grid determinism" `Quick
          test_determinism_uniform_grid;
        Alcotest.test_case "irregular grid determinism" `Quick
          test_determinism_irregular_grid;
        Alcotest.test_case "warm L2 chain determinism" `Quick
          test_determinism_warm_chain;
        Alcotest.test_case "trace stays sequential" `Quick
          test_pool_trace_stays_sequential;
      ] );
    ("gpusim.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
