(* Unit, integration and property tests for the OpenMP device runtime —
   the paper's core contribution. *)

module Config = Gpusim.Config
module Memory = Gpusim.Memory
module Counters = Gpusim.Counters
module Thread = Gpusim.Thread
module Shared = Gpusim.Shared
module Trace = Gpusim.Trace
module Mode = Omprt.Mode
module Payload = Omprt.Payload
module Simd_group = Omprt.Simd_group
module Sharing = Omprt.Sharing
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target
module Reduction = Omprt.Reduction

let cfg = Config.small
let checkf = Alcotest.check (Alcotest.float 1e-9)
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* --- Simd_group geometry ---------------------------------------------- *)

let test_geometry_paper_example () =
  (* §5.3.1: 128 threads across 4 warps -> between 4 and 64 groups. *)
  let g2 = Simd_group.make ~warp_size:32 ~num_workers:128 ~group_size:2 in
  check_int "64 groups at size 2" 64 g2.Simd_group.num_groups;
  let g32 = Simd_group.make ~warp_size:32 ~num_workers:128 ~group_size:32 in
  check_int "4 groups at size 32" 4 g32.Simd_group.num_groups

let test_geometry_ids () =
  let g = Simd_group.make ~warp_size:32 ~num_workers:64 ~group_size:8 in
  check_int "group of tid 19" 2 (Simd_group.get_simd_group g ~tid:19);
  check_int "lane of tid 19" 3 (Simd_group.get_simd_group_id g ~tid:19);
  check_bool "tid 16 leads" true (Simd_group.is_simd_group_leader g ~tid:16);
  check_bool "tid 19 follows" false (Simd_group.is_simd_group_leader g ~tid:19);
  check_int "leader of group 5" 40 (Simd_group.leader_tid g ~group:5)

let test_geometry_mask_stays_in_warp () =
  List.iter
    (fun gs ->
      let g = Simd_group.make ~warp_size:32 ~num_workers:128 ~group_size:gs in
      for tid = 0 to 127 do
        let mask = Simd_group.simdmask g ~tid in
        check_int "mask covers the group" gs (Ompsimd_util.Mask.popcount mask);
        check_bool "thread in own mask" true
          (Ompsimd_util.Mask.mem mask (tid mod 32))
      done)
    [ 1; 2; 4; 8; 16; 32 ]

let test_geometry_validation () =
  check_bool "size 3 rejected" true
    (try
       ignore (Simd_group.make ~warp_size:32 ~num_workers:32 ~group_size:3);
       false
     with Invalid_argument _ -> true);
  check_bool "multi-warp group rejected" true
    (try
       ignore (Simd_group.make ~warp_size:32 ~num_workers:64 ~group_size:64);
       false
     with Invalid_argument _ -> true)

let test_geometry_valid_sizes () =
  check_int "six legal simdlens" 6
    (List.length (Simd_group.valid_group_sizes ~warp_size:32))

(* --- Payload ----------------------------------------------------------- *)

let test_payload_typed_access () =
  let sp = Memory.space () in
  let arr = Memory.falloc sp 4 in
  let p =
    Payload.of_list [ Payload.Int (ref 7); Payload.Float (ref 2.5); Payload.Farr arr ]
  in
  check_int "int slot" 7 !(Payload.int_ref p 0);
  checkf "float slot" 2.5 !(Payload.float_ref p 1);
  check_int "farr slot" 4 (Memory.flength (Payload.farr p 2));
  check_int "bytes" 24 (Payload.bytes p)

let test_payload_type_errors () =
  let p = Payload.of_list [ Payload.Int (ref 1) ] in
  check_bool "wrong type" true
    (try
       ignore (Payload.float_ref p 0);
       false
     with Payload.Type_error _ -> true);
  check_bool "out of range" true
    (try
       ignore (Payload.int_ref p 3);
       false
     with Payload.Type_error _ -> true)

(* --- Sharing ------------------------------------------------------------ *)

let test_sharing_reservation () =
  let arena = Shared.arena_of_capacity 4096 in
  let s = Sharing.create ~arena ~bytes:2048 in
  check_int "arena consumed" 2048 (Shared.used arena);
  check_int "total" 2048 (Sharing.total_bytes s)

let test_sharing_overflow_reservation () =
  let arena = Shared.arena_of_capacity 1024 in
  check_bool "too big" true
    (try
       ignore (Sharing.create ~arena ~bytes:2048);
       false
     with Invalid_argument _ -> true)

let test_sharing_slices () =
  let arena = Shared.arena_of_capacity 4096 in
  let s = Sharing.create ~arena ~bytes:2048 in
  Sharing.configure s ~num_groups:15;
  check_int "slice = total/(groups+1)" 128 (Sharing.slice_bytes s)

let run_single_thread f =
  ignore
    (Gpusim.Engine.run_block ~cfg ~block_id:0 ~num_threads:1 (fun th -> f th))

let is_shared = function Sharing.Shared_space _ -> true | _ -> false
let is_fallback = function Sharing.Global_fallback _ -> true | _ -> false

let test_sharing_acquire_paths () =
  let arena = Shared.arena_of_capacity 4096 in
  let s = Sharing.create ~arena ~bytes:2048 in
  Sharing.configure s ~num_groups:3;
  run_single_thread (fun th ->
      check_bool "fits" true (is_shared (Sharing.acquire s th ~bytes:1536));
      (* 1536 live + 1024 > 2048: the slab is genuinely out of room *)
      check_bool "overflows" true
        (is_fallback (Sharing.acquire s th ~bytes:1024)));
  check_int "one fallback" 1 (Sharing.global_fallbacks s);
  check_int "one grant" 1 (Sharing.shared_grants s)

let test_sharing_paper_sizing () =
  (* The paper's 1024 -> 2048 growth: with 16 concurrent publishers of an
     80-byte payload the old reservation runs out, the new one never
     does. *)
  let mk bytes =
    let arena = Shared.arena_of_capacity 8192 in
    let s = Sharing.create ~arena ~bytes in
    Sharing.configure s ~num_groups:15;
    s
  in
  let old_s = mk 1024 and new_s = mk 2048 in
  run_single_thread (fun th ->
      for _ = 1 to 16 do
        ignore (Sharing.acquire old_s th ~bytes:80);
        ignore (Sharing.acquire new_s th ~bytes:80)
      done);
  check_bool "old runs out at 16 x 80B" true
    (Sharing.global_fallbacks old_s > 0);
  check_int "new fits all publishers" 0 (Sharing.global_fallbacks new_s);
  check_int "new granted all" 16 (Sharing.shared_grants new_s)

let test_sharing_lifo_discipline () =
  let arena = Shared.arena_of_capacity 4096 in
  let s = Sharing.create ~arena ~bytes:2048 in
  Sharing.configure s ~num_groups:0;
  run_single_thread (fun th ->
      let a = Sharing.acquire s th ~bytes:512 in
      let b = Sharing.acquire s th ~bytes:512 in
      let c = Sharing.acquire s th ~bytes:512 in
      check_int "stacked" 1536 (Sharing.used_bytes s);
      check_int "three live" 3 (Sharing.live_slices s);
      Sharing.release s c;
      Sharing.release s b;
      Sharing.release s a;
      check_int "stack drained" 0 (Sharing.used_bytes s);
      check_int "none live" 0 (Sharing.live_slices s);
      (* a fresh acquire reuses the bottom of the slab *)
      match Sharing.acquire s th ~bytes:2048 with
      | Sharing.Shared_space { offset; _ } ->
          check_int "whole slab reusable" 0 offset
      | Sharing.Global_fallback _ -> Alcotest.fail "expected a shared grant")

let test_sharing_out_of_order_release () =
  let arena = Shared.arena_of_capacity 4096 in
  let s = Sharing.create ~arena ~bytes:2048 in
  Sharing.configure s ~num_groups:0;
  run_single_thread (fun th ->
      (* concurrent SIMD mains do not release in stack order *)
      let a = Sharing.acquire s th ~bytes:512 in
      let b = Sharing.acquire s th ~bytes:512 in
      let c = Sharing.acquire s th ~bytes:512 in
      Sharing.release s a;
      (* the freed inner hole is recycled before the stack grows *)
      (match Sharing.acquire s th ~bytes:256 with
      | Sharing.Shared_space { offset; _ } -> check_int "first fit" 0 offset
      | Sharing.Global_fallback _ -> Alcotest.fail "expected a shared grant");
      check_int "no new stack growth" 1536 (Sharing.high_water s);
      Sharing.release s b;
      Sharing.release s c;
      check_int "only the recycled slice lives" 256 (Sharing.used_bytes s);
      check_int "no fallbacks" 0 (Sharing.global_fallbacks s))

let test_sharing_pool_reuse () =
  let arena = Shared.arena_of_capacity 4096 in
  let s = Sharing.create ~arena ~bytes:1024 in
  Sharing.configure s ~num_groups:0;
  run_single_thread (fun th ->
      let hold = Sharing.acquire s th ~bytes:1024 in
      let t0 = Gpusim.Thread.clock th in
      let f1 = Sharing.acquire s th ~bytes:512 in
      let fresh_cost = Gpusim.Thread.clock th -. t0 in
      check_bool "first overflow is a fallback" true (is_fallback f1);
      check_int "one pool buffer" 1 (Sharing.pool_slots s);
      Sharing.release s f1;
      let t1 = Gpusim.Thread.clock th in
      let f2 = Sharing.acquire s th ~bytes:512 in
      let reuse_cost = Gpusim.Thread.clock th -. t1 in
      check_bool "second overflow is a fallback" true (is_fallback f2);
      check_int "pool buffer reused, not grown" 1 (Sharing.pool_slots s);
      check_int "reuse counted" 1 (Sharing.pool_reuses s);
      check_bool "reuse skips the malloc round-trip" true
        (reuse_cost < fresh_cost);
      Sharing.release s f2;
      Sharing.release s hold)

let test_sharing_configure_reset () =
  let arena = Shared.arena_of_capacity 4096 in
  let s = Sharing.create ~arena ~bytes:2048 in
  Sharing.configure s ~num_groups:0;
  run_single_thread (fun th ->
      let a = Sharing.acquire s th ~bytes:512 in
      (* a reconfigure must not clobber a slice a faster sibling already
         holds in the next region *)
      Sharing.configure s ~num_groups:4;
      check_int "live slice survives reconfigure" 512 (Sharing.used_bytes s);
      Sharing.release s a;
      Sharing.configure s ~num_groups:4;
      check_int "idle reconfigure resets" 0 (Sharing.used_bytes s))

(* --- Team --------------------------------------------------------------- *)

let params ?(num_teams = 2) ?(num_threads = 64) ?(teams_mode = Mode.Spmd)
    ?(sharing_bytes = Sharing.default_bytes) () =
  { Team.num_teams; num_threads; teams_mode; sharing_bytes }

let test_team_block_threads () =
  check_int "spmd block" 64
    (Team.block_threads ~cfg (params ~teams_mode:Mode.Spmd ()));
  (* generic mode adds the extra main warp (Fig 2) *)
  check_int "generic block" 96
    (Team.block_threads ~cfg (params ~teams_mode:Mode.Generic ()))

let test_team_roles () =
  let arena = Shared.arena_of_capacity 8192 in
  let t =
    Team.create ~cfg ~arena ~params:(params ~teams_mode:Mode.Generic ())
      ~block_id:0
  in
  check_bool "tid 0 works" true (Team.role t ~tid:0 = Team.Worker);
  check_bool "tid 63 works" true (Team.role t ~tid:63 = Team.Worker);
  check_bool "tid 64 is main" true (Team.role t ~tid:64 = Team.Team_main);
  check_bool "tid 65 inactive" true (Team.role t ~tid:65 = Team.Inactive_main_lane)

let test_team_validation () =
  let arena = Shared.arena_of_capacity 8192 in
  check_bool "non warp multiple" true
    (try
       ignore (Team.create ~cfg ~arena ~params:(params ~num_threads:48 ()) ~block_id:0);
       false
     with Invalid_argument _ -> true)

let test_team_geometry_requires_region () =
  let arena = Shared.arena_of_capacity 8192 in
  let t = Team.create ~cfg ~arena ~params:(params ()) ~block_id:0 in
  check_bool "no region" true
    (try
       ignore (Team.geometry t);
       false
     with Failure _ -> true)

(* --- Workshare: pure iteration sets ------------------------------------ *)

let test_workshare_static_partition () =
  let trip = 37 and num = 5 in
  let all =
    List.concat_map
      (fun id -> Workshare.iterations Workshare.Static ~id ~num ~trip)
      (List.init num Fun.id)
  in
  check_int "covers exactly" trip (List.length all);
  check_bool "is a permutation" true
    (List.sort compare all = List.init trip Fun.id)

let test_workshare_chunked_partition () =
  let trip = 103 and num = 4 and chunk = 7 in
  let all =
    List.concat_map
      (fun id -> Workshare.iterations (Workshare.Chunked chunk) ~id ~num ~trip)
      (List.init num Fun.id)
  in
  check_bool "partition" true (List.sort compare all = List.init trip Fun.id)

let test_workshare_empty_trip () =
  check_int "empty" 0
    (List.length (Workshare.iterations Workshare.Static ~id:0 ~num:4 ~trip:0))

(* --- End-to-end kernels ------------------------------------------------- *)

(* A 2-D kernel: [rows] outer iterations each with [len] inner iterations;
   out[r*len + j] = 2*x[r*len + j] + r.  Exercises distribute-parallel-for
   over rows and simd over the inner loop. *)
let run_scale_kernel ~teams_mode ~parallel_mode ~simd_len ~rows ~len
    ?(cfg = cfg) ?(sharing_bytes = Sharing.default_bytes) () =
  let sp = Memory.space () in
  let n = rows * len in
  let x = Memory.of_float_array sp (Array.init n (fun i -> float_of_int i)) in
  let out = Memory.falloc sp n in
  let p =
    params ~num_teams:2 ~num_threads:64 ~teams_mode ~sharing_bytes ()
  in
  let report =
    Target.launch ~cfg ~params:p ~dispatch_table_size:4 (fun ctx ->
        Parallel.parallel ctx ~mode:parallel_mode ~simd_len ~fn_id:0
          (fun ctx _ ->
            Workshare.distribute_parallel_for ctx ~trip:rows (fun r ->
                Simd.simd ctx ~fn_id:1 ~trip:len (fun ctx j _ ->
                    let i = (r * len) + j in
                    let v = Memory.fget x ctx.Team.th i in
                    Team.charge_flops ctx 2;
                    Memory.fset out ctx.Team.th i
                      ((2.0 *. v) +. float_of_int r)))))
  in
  (report, Memory.to_float_array out)

let reference_scale ~rows ~len =
  Array.init (rows * len) (fun i ->
      let r = i / len in
      (2.0 *. float_of_int i) +. float_of_int r)

let check_scale_result ~rows ~len out =
  let expected = reference_scale ~rows ~len in
  Array.iteri
    (fun i v ->
      if abs_float (v -. expected.(i)) > 1e-9 then
        Alcotest.failf "out[%d] = %f, expected %f" i v expected.(i))
    out

let test_kernel_spmd_spmd () =
  let _, out =
    run_scale_kernel ~teams_mode:Mode.Spmd ~parallel_mode:Mode.Spmd ~simd_len:8
      ~rows:13 ~len:23 ()
  in
  check_scale_result ~rows:13 ~len:23 out

let test_kernel_spmd_generic () =
  let report, out =
    run_scale_kernel ~teams_mode:Mode.Spmd ~parallel_mode:Mode.Generic
      ~simd_len:8 ~rows:13 ~len:23 ()
  in
  check_scale_result ~rows:13 ~len:23 out;
  check_bool "state machine ran" true
    (Counters.get_extra report.Gpusim.Device.counters "simd.state_machine_rounds"
    > 0.0)

let test_kernel_generic_teams () =
  let report, out =
    run_scale_kernel ~teams_mode:Mode.Generic ~parallel_mode:Mode.Spmd
      ~simd_len:8 ~rows:13 ~len:23 ()
  in
  check_scale_result ~rows:13 ~len:23 out;
  check_bool "team state machine ran" true
    (Counters.get_extra report.Gpusim.Device.counters
       "target.state_machine_wakeups"
    > 0.0)

let test_kernel_generic_generic () =
  let _, out =
    run_scale_kernel ~teams_mode:Mode.Generic ~parallel_mode:Mode.Generic
      ~simd_len:4 ~rows:7 ~len:9 ()
  in
  check_scale_result ~rows:7 ~len:9 out

let test_kernel_all_group_sizes () =
  List.iter
    (fun simd_len ->
      List.iter
        (fun parallel_mode ->
          let _, out =
            run_scale_kernel ~teams_mode:Mode.Spmd ~parallel_mode ~simd_len
              ~rows:11 ~len:17 ()
          in
          check_scale_result ~rows:11 ~len:17 out)
        [ Mode.Spmd; Mode.Generic ])
    [ 1; 2; 4; 8; 16; 32 ]

let test_kernel_amd_degradation () =
  (* Without warp barriers, generic-mode simd must degrade to sequential
     execution but still compute the right answer. *)
  let report, out =
    run_scale_kernel ~cfg:Config.amd_like ~teams_mode:Mode.Spmd
      ~parallel_mode:Mode.Generic ~simd_len:8 ~rows:9 ~len:14 ()
  in
  check_scale_result ~rows:9 ~len:14 out;
  check_bool "sequential fallback used" true
    (Counters.get_extra report.Gpusim.Device.counters "simd.sequential" > 0.0);
  checkf "no warp barriers on amd" 0.0
    (float_of_int report.Gpusim.Device.counters.Counters.warp_barriers)

let test_kernel_empty_simd_loop () =
  let _, out =
    run_scale_kernel ~teams_mode:Mode.Spmd ~parallel_mode:Mode.Generic
      ~simd_len:8 ~rows:3 ~len:0 ()
  in
  check_int "nothing written" 0 (Array.length out)

let test_kernel_trip_smaller_than_group () =
  let _, out =
    run_scale_kernel ~teams_mode:Mode.Spmd ~parallel_mode:Mode.Generic
      ~simd_len:32 ~rows:5 ~len:3 ()
  in
  check_scale_result ~rows:5 ~len:3 out

(* Coverage: every (row, j) iteration must be executed exactly once, in
   every mode, because stores live inside the simd body. *)
let coverage_counts ~teams_mode ~parallel_mode ~simd_len ~rows ~len =
  let sp = Memory.space () in
  let counts = Memory.ialloc sp (rows * len) in
  let p = params ~num_teams:3 ~num_threads:32 ~teams_mode () in
  ignore
    (Target.launch ~cfg ~params:p (fun ctx ->
         Parallel.parallel ctx ~mode:parallel_mode ~simd_len (fun ctx _ ->
             Workshare.distribute_parallel_for ctx ~trip:rows (fun r ->
                 Simd.simd ctx ~trip:len (fun ctx j _ ->
                     ignore
                       (Memory.atomic_iadd counts ctx.Team.th ((r * len) + j) 1))))));
  Memory.to_int_array counts

let test_kernel_exactly_once () =
  List.iter
    (fun (teams_mode, parallel_mode, simd_len) ->
      let counts =
        coverage_counts ~teams_mode ~parallel_mode ~simd_len ~rows:10 ~len:13
      in
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "iteration %d ran %d times" i c)
        counts)
    [
      (Mode.Spmd, Mode.Spmd, 4);
      (Mode.Spmd, Mode.Generic, 4);
      (Mode.Generic, Mode.Spmd, 16);
      (Mode.Generic, Mode.Generic, 16);
      (Mode.Spmd, Mode.Spmd, 1);
      (Mode.Generic, Mode.Generic, 1);
    ]

(* Successive parallel regions in one kernel may use different SIMD group
   sizes (§5.3.1: "the size of a SIMD group can differ among different
   parallel regions"). *)
let test_kernel_varying_group_sizes () =
  let sp = Memory.space () in
  let n = 96 in
  let out1 = Memory.falloc sp n and out2 = Memory.falloc sp n in
  let p = params ~num_teams:2 ~num_threads:32 ~teams_mode:Mode.Generic () in
  ignore
    (Target.launch ~cfg ~params:p (fun ctx ->
         Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:4 (fun ctx _ ->
             Workshare.distribute_parallel_for ctx ~trip:(n / 8) (fun b ->
                 Simd.simd ctx ~trip:8 (fun ctx j _ ->
                     Memory.fset out1 ctx.Team.th ((b * 8) + j) 1.0)));
         Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:16 (fun ctx _ ->
             Workshare.distribute_parallel_for ctx ~trip:(n / 16) (fun b ->
                 Simd.simd ctx ~trip:16 (fun ctx j _ ->
                     Memory.fset out2 ctx.Team.th ((b * 16) + j) 2.0)))));
  for idx = 0 to n - 1 do
    checkf "first region" 1.0 (Memory.host_get out1 idx);
    checkf "second region" 2.0 (Memory.host_get out2 idx)
  done

(* A simd loop nested under a sequential For inside the parallel region:
   the leader iterates, the group joins every simd loop (the SpMV
   per-row pattern, repeated). *)
let test_kernel_simd_under_sequential_for () =
  let sp = Memory.space () in
  let rows = 9 and len = 11 in
  let out = Memory.falloc sp (rows * len) in
  let p = params ~num_teams:1 ~num_threads:32 ~teams_mode:Mode.Spmd () in
  ignore
    (Target.launch ~cfg ~params:p (fun ctx ->
         Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:8 (fun ctx _ ->
             Workshare.omp_for ctx ~trip:3 (fun chunk ->
                 for r = chunk * 3 to min rows ((chunk + 1) * 3) - 1 do
                   Simd.simd ctx ~trip:len (fun ctx j _ ->
                       Memory.fset out ctx.Team.th ((r * len) + j)
                         (float_of_int r))
                 done))));
  for r = 0 to rows - 1 do
    for j = 0 to len - 1 do
      checkf "nested" (float_of_int r) (Memory.host_get out ((r * len) + j))
    done
  done

(* Dynamic scheduling: exactly-once coverage regardless of mode/geometry,
   and the counter resets correctly across consecutive loops. *)
let test_dynamic_schedule_coverage () =
  List.iter
    (fun (parallel_mode, simd_len, chunk) ->
      let sp = Memory.space () in
      let trip = 137 in
      let counts = Memory.ialloc sp trip in
      let p = params ~num_teams:3 ~num_threads:64 ~teams_mode:Mode.Spmd () in
      ignore
        (Target.launch ~cfg ~params:p (fun ctx ->
             Parallel.parallel ctx ~mode:parallel_mode ~simd_len (fun ctx _ ->
                 Workshare.distribute_parallel_for ctx
                   ~schedule:(Workshare.Dynamic chunk) ~trip (fun i ->
                     Simd.simd ctx ~trip:1 (fun ctx _ _ ->
                         ignore (Memory.atomic_iadd counts ctx.Team.th i 1)));
                 (* a second dynamic loop reuses the counter *)
                 Workshare.distribute_parallel_for ctx
                   ~schedule:(Workshare.Dynamic chunk) ~trip (fun i ->
                     Simd.simd ctx ~trip:1 (fun ctx _ _ ->
                         ignore (Memory.atomic_iadd counts ctx.Team.th i 1))))));
      Array.iteri
        (fun i c ->
          if c <> 2 then
            Alcotest.failf "dynamic: iteration %d ran %d times (mode %s gs %d)"
              i c (Mode.to_string parallel_mode) simd_len)
        (Memory.to_int_array counts))
    [
      (Mode.Spmd, 1, 1);
      (Mode.Spmd, 8, 3);
      (Mode.Generic, 8, 1);
      (Mode.Generic, 32, 5);
    ]

let test_dynamic_rejects_bad_chunk () =
  let p = params ~num_teams:1 ~num_threads:32 () in
  check_bool "chunk 0" true
    (try
       ignore
         (Target.launch ~cfg ~params:p (fun ctx ->
              Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:1 (fun ctx _ ->
                  Workshare.omp_for ctx ~schedule:(Workshare.Dynamic 0) ~trip:4
                    (fun _ -> ()))));
       false
     with Invalid_argument _ -> true)

let test_nested_parallel_rejected () =
  let p = params ~num_teams:1 ~num_threads:32 () in
  check_bool "nested rejected" true
    (try
       ignore
         (Target.launch ~cfg ~params:p (fun ctx ->
              Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:1 (fun ctx _ ->
                  Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:1
                    (fun _ _ -> ()))));
       false
     with Failure msg -> Astring_like.contains msg "nested");
  (* sequential regions after one another remain fine *)
  ignore
    (Target.launch ~cfg ~params:p (fun ctx ->
         Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:1 (fun _ _ -> ());
         Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:1 (fun _ _ -> ())))

(* --- Mode cost ordering ------------------------------------------------- *)

let test_generic_mode_costs_more () =
  let time (teams_mode, parallel_mode) =
    let report, _ =
      run_scale_kernel ~teams_mode ~parallel_mode ~simd_len:8 ~rows:64 ~len:24
        ()
    in
    report.Gpusim.Device.time_cycles
  in
  let spmd = time (Mode.Spmd, Mode.Spmd) in
  let generic_parallel = time (Mode.Spmd, Mode.Generic) in
  check_bool "generic parallel slower than spmd" true (generic_parallel > spmd)

let test_simd_len1_matches_two_level () =
  (* simdlen 1 must behave as the classic two-level runtime: no simd
     state machine activity at all. *)
  let report, _ =
    run_scale_kernel ~teams_mode:Mode.Spmd ~parallel_mode:Mode.Generic
      ~simd_len:1 ~rows:6 ~len:7 ()
  in
  checkf "no state machine rounds" 0.0
    (Counters.get_extra report.Gpusim.Device.counters "simd.state_machine_rounds")

(* --- Sharing-space integration ----------------------------------------- *)

let test_sharing_fallback_in_kernel () =
  (* Publish a payload too large for the per-group slice: 40 args * 8 B
     with 16 groups (+1 main slice) exceeds 2048/17 = 120 B. *)
  let sp = Memory.space () in
  let arr = Memory.falloc sp 4 in
  let big_payload =
    Payload.of_list (List.init 40 (fun _ -> Payload.Farr arr))
  in
  let p = params ~num_teams:1 ~num_threads:32 ~teams_mode:Mode.Spmd () in
  let report =
    Target.launch ~cfg ~params:p (fun ctx ->
        Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:2 (fun ctx _ ->
            Simd.simd ctx ~payload:big_payload ~trip:4 (fun _ _ _ -> ())))
  in
  check_bool "global fallback triggered" true
    (Counters.get_extra report.Gpusim.Device.counters "sharing.global_fallbacks"
    > 0.0)

(* --- Reductions (extension) --------------------------------------------- *)

let test_simd_reduction () =
  let sp = Memory.space () in
  let out = Memory.falloc sp 8 in
  let p = params ~num_teams:1 ~num_threads:32 ~teams_mode:Mode.Spmd () in
  ignore
    (Target.launch ~cfg ~params:p (fun ctx ->
         Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:4 (fun ctx _ ->
             (* every lane contributes its group-lane id + 1 *)
             let g = Team.geometry ctx.Team.team in
             let tid = ctx.Team.th.Thread.tid in
             let lane = Simd_group.get_simd_group_id g ~tid in
             let v = float_of_int (lane + 1) in
             let total = Reduction.simd_sum ctx v in
             if Simd_group.is_simd_group_leader g ~tid then
               Memory.fset out ctx.Team.th
                 (Simd_group.get_simd_group g ~tid)
                 total)));
  (* 1+2+3+4 = 10 for every group *)
  for gidx = 0 to 7 do
    checkf "group sum" 10.0 (Memory.host_get out gidx)
  done

let test_team_reduction_spmd () =
  let sp = Memory.space () in
  let out = Memory.falloc sp 1 in
  let p = params ~num_teams:1 ~num_threads:32 ~teams_mode:Mode.Spmd () in
  ignore
    (Target.launch ~cfg ~params:p (fun ctx ->
         Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:4 (fun ctx _ ->
             let g = Team.geometry ctx.Team.team in
             let tid = ctx.Team.th.Thread.tid in
             let group = Simd_group.get_simd_group g ~tid in
             (* each OpenMP thread (group) contributes group+1; lanes agree *)
             let total = Reduction.team_reduce ctx Omprt.Redop.sum (float_of_int (group + 1)) in
             if tid = 0 then Memory.fset out ctx.Team.th 0 total)));
  (* 8 groups: 1+2+...+8 = 36 *)
  checkf "team sum" 36.0 (Memory.host_get out 0)

let test_team_reduction_generic () =
  let sp = Memory.space () in
  let out = Memory.falloc sp 1 in
  let p = params ~num_teams:1 ~num_threads:32 ~teams_mode:Mode.Spmd () in
  ignore
    (Target.launch ~cfg ~params:p (fun ctx ->
         Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:8 (fun ctx _ ->
             let g = Team.geometry ctx.Team.team in
             let tid = ctx.Team.th.Thread.tid in
             let group = Simd_group.get_simd_group g ~tid in
             let total = Reduction.team_reduce ctx Omprt.Redop.sum (float_of_int (group + 1)) in
             if group = 0 then Memory.fset out ctx.Team.th 0 total)));
  (* 4 groups: 1+2+3+4 = 10 *)
  checkf "team sum generic" 10.0 (Memory.host_get out 0)

let test_simd_reduce_max_in_loop () =
  (* per-row max via the reducing-loop protocol, generic mode: workers
     must combine with the published operator *)
  let sp = Memory.space () in
  let rows = 6 and len = 37 in
  let data =
    Memory.of_float_array sp
      (Array.init (rows * len) (fun i -> float_of_int ((i * 7919) mod 97)))
  in
  let out = Memory.falloc sp rows in
  let p = params ~num_teams:1 ~num_threads:32 ~teams_mode:Mode.Spmd () in
  ignore
    (Target.launch ~cfg ~params:p (fun ctx ->
         Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:8 (fun ctx _ ->
             Workshare.distribute_parallel_for ctx ~trip:rows (fun r ->
                 let m =
                   Simd.simd_reduce ctx ~op:Omprt.Redop.max ~trip:len
                     (fun ctx j _ ->
                       Memory.fget data ctx.Team.th ((r * len) + j))
                 in
                 Memory.fset out ctx.Team.th r m))));
  for r = 0 to rows - 1 do
    let expected = ref Float.neg_infinity in
    for j = 0 to len - 1 do
      expected := Float.max !expected (float_of_int (((r * len) + j) * 7919 mod 97))
    done;
    checkf "row max" !expected (Memory.host_get out r)
  done

let test_reduction_max () =
  let p = params ~num_teams:1 ~num_threads:32 ~teams_mode:Mode.Spmd () in
  let result = ref 0.0 in
  ignore
    (Target.launch ~cfg ~params:p (fun ctx ->
         Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:32 (fun ctx _ ->
             let tid = ctx.Team.th.Thread.tid in
             let m = Reduction.simd_reduce ctx Omprt.Redop.max (float_of_int tid) in
             if tid = 0 then result := m)));
  checkf "max" 31.0 !result

(* --- Dispatch cost (§5.5) ----------------------------------------------- *)

let test_dispatch_cascade_vs_indirect () =
  let time fn_id table =
    let p = params ~num_teams:1 ~num_threads:32 () in
    let report =
      Target.launch ~cfg ~params:p ~dispatch_table_size:table (fun ctx ->
          Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:1 ~fn_id (fun _ _ -> ()))
    in
    report.Gpusim.Device.time_cycles
  in
  let known = time 0 4 in
  let unknown = time 99 4 in
  check_bool "indirect call costs more" true (unknown > known)

(* --- qcheck properties --------------------------------------------------- *)

let qcheck_cases =
  let open QCheck in
  let modes = [ Mode.Spmd; Mode.Generic ] in
  let group_sizes = [ 1; 2; 4; 8; 16; 32 ] in
  [
    Test.make ~name:"random region sequences complete and cover" ~count:40
      (* a kernel made of N parallel regions with random modes, group
         sizes, trip counts and nested structure: the ultimate deadlock
         hunter for the barrier protocols *)
      (pair (int_range 1 5)
         (list_of_size Gen.(int_range 1 4)
            (quad (int_range 0 1) (int_range 0 5) (int_range 0 40) bool)))
      (fun (teams, regions) ->
        let sp = Memory.space () in
        let sizes = Array.make (List.length regions) 0 in
        let outs =
          List.mapi (fun i (_, _, trip, _) ->
              sizes.(i) <- max 1 trip;
              Memory.ialloc sp (max 1 trip))
            regions
        in
        let p = params ~num_teams:teams ~num_threads:64 ~teams_mode:Mode.Spmd () in
        ignore
          (Target.launch ~cfg ~params:p (fun ctx ->
               List.iteri
                 (fun i (mode_idx, gs_idx, trip, with_simd) ->
                   let out = List.nth outs i in
                   Parallel.parallel ctx
                     ~mode:(List.nth modes mode_idx)
                     ~simd_len:(List.nth group_sizes gs_idx)
                     (fun ctx _ ->
                       Workshare.distribute_parallel_for ctx ~trip (fun r ->
                           if with_simd then
                             Simd.simd ctx ~trip:3 (fun ctx j _ ->
                                 if j = 0 then
                                   ignore (Memory.atomic_iadd out ctx.Team.th r 1))
                           else
                             Simd.simd ctx ~trip:1 (fun ctx _ _ ->
                                 ignore (Memory.atomic_iadd out ctx.Team.th r 1)))))
                 regions));
        List.for_all2
          (fun out (_, _, trip, _) ->
            let arr = Memory.to_int_array out in
            let ok = ref true in
            for r = 0 to trip - 1 do
              if arr.(r) <> 1 then ok := false
            done;
            !ok)
          outs regions);
    Test.make ~name:"workshare schedules partition the space" ~count:300
      (triple (int_range 0 200) (int_range 1 16) (int_range 1 8))
      (fun (trip, num, chunk) ->
        let ids = List.init num Fun.id in
        let static =
          List.concat_map
            (fun id -> Workshare.iterations Workshare.Static ~id ~num ~trip)
            ids
        in
        let chunked =
          List.concat_map
            (fun id ->
              Workshare.iterations (Workshare.Chunked chunk) ~id ~num ~trip)
            ids
        in
        let full = List.init trip Fun.id in
        List.sort compare static = full && List.sort compare chunked = full);
    Test.make ~name:"simd masks partition each warp" ~count:100
      (int_range 0 5)
      (fun k ->
        let gs = 1 lsl k in
        let g = Simd_group.make ~warp_size:32 ~num_workers:64 ~group_size:gs in
        (* union of group masks of warp 0's threads covers the warp *)
        let acc = ref 0 in
        for tid = 0 to 31 do
          if Simd_group.get_simd_group_id g ~tid = 0 then
            acc := Ompsimd_util.Mask.union !acc (Simd_group.simdmask g ~tid)
        done;
        !acc = Ompsimd_util.Mask.full ~warp_size:32);
    Test.make ~name:"scale kernel correct for random shapes/modes" ~count:25
      (quad (int_range 1 20) (int_range 0 40) (int_range 0 1) (int_range 0 5))
      (fun (rows, len, mode_idx, gs_idx) ->
        let parallel_mode = List.nth modes mode_idx in
        let simd_len = List.nth group_sizes gs_idx in
        let _, out =
          run_scale_kernel ~teams_mode:Mode.Spmd ~parallel_mode ~simd_len
            ~rows ~len ()
        in
        let expected = reference_scale ~rows ~len in
        Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) out expected);
    Test.make ~name:"sharing placement never changes results" ~count:25
      (* the allocator decides WHERE a payload lives (stack slice, recycled
         hole, or pooled global fallback) — never WHAT the kernel computes.
         Starve the reservation down to where everything falls back through
         the pool and the results must still match the sequential
         reference bit for bit. *)
      (pair
         (quad (int_range 1 20) (int_range 0 40) (int_range 0 1)
            (int_range 0 5))
         (int_range 0 2))
      (fun ((rows, len, mode_idx, gs_idx), sb_idx) ->
        let parallel_mode = List.nth modes mode_idx in
        let simd_len = List.nth group_sizes gs_idx in
        let sharing_bytes = List.nth [ 64; 256; 2048 ] sb_idx in
        let _, out =
          run_scale_kernel ~teams_mode:Mode.Spmd ~parallel_mode ~simd_len
            ~rows ~len ~sharing_bytes ()
        in
        let expected = reference_scale ~rows ~len in
        Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) out expected);
    Test.make ~name:"sharing slice shrinks with groups" ~count:100
      (int_range 1 64)
      (fun groups ->
        let arena = Shared.arena_of_capacity 8192 in
        let s = Sharing.create ~arena ~bytes:2048 in
        Sharing.configure s ~num_groups:groups;
        Sharing.slice_bytes s = 2048 / (groups + 1));
  ]

(* --- fiber parks --------------------------------------------------------

   An E6-shaped block — teams SPMD, one generic region with SIMD groups
   of 8 as the kernel's last action, rows of the tiny spmv matrix
   distributed over the groups, a simd loop over each row's nonzeros
   with an atomic update — run straight on the engine, whose block
   result carries the park count.  Finishing at the closing barrier and
   detaching the SIMD workers leaves only the SIMD mains' waits at warp
   barriers to park: at most one park per main arrival, which is the
   warp-barrier count over the group size.  The parking path
   ([last:false]) still parks well above that, with the same clocks. *)
let e6_block ~last =
  let lengths =
    Workloads.Spmv.row_lengths
      (Workloads.Spmv.generate
         { Workloads.Spmv.default_shape with rows = 65; cols = 65; seed = 1 })
  in
  let rows = Array.length lengths in
  let starts = Array.make (rows + 1) 0 in
  Array.iteri (fun r n -> starts.(r + 1) <- starts.(r) + n) lengths;
  let space = Memory.space () in
  let values =
    Memory.of_float_array space (Array.init starts.(rows) (fun k -> float_of_int (k mod 7)))
  in
  let y = Memory.falloc space rows in
  let params =
    {
      Team.num_teams = 1;
      num_threads = 128;
      teams_mode = Mode.Spmd;
      sharing_bytes = Sharing.default_bytes;
    }
  in
  let team = Team.create ~cfg ~arena:(Shared.arena cfg) ~params ~block_id:0 in
  let body ctx =
    Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:8 ~fn_id:0 ~last
      (fun ctx _ ->
        Workshare.distribute_parallel_for ctx ~trip:rows (fun row ->
            Simd.simd ctx ~fn_id:1 ~trip:lengths.(row) (fun ctx j _ ->
                let th = ctx.Team.th in
                let v = Memory.fget values th (starts.(row) + j) in
                Team.charge_flops ctx 2;
                Memory.atomic_fadd y th row v)))
  in
  let r =
    Gpusim.Engine.run_block ~cfg ~block_id:0
      ~num_threads:(Team.block_threads ~cfg params)
      (Target.thread_main body team)
  in
  (r, Memory.to_float_array y)

let test_parks_pinned () =
  let r, y = e6_block ~last:true in
  let warp_waits = r.Gpusim.Engine.counters.Counters.warp_barriers in
  check_int "every rendezvous has the whole group" 0 (warp_waits mod 8);
  let main_waits = warp_waits / 8 in
  check_bool
    (Printf.sprintf "parks %d <= SIMD mains' warp-barrier waits %d"
       r.Gpusim.Engine.parks main_waits)
    true
    (r.Gpusim.Engine.parks <= main_waits);
  let parked, parked_y = e6_block ~last:false in
  check_bool "the parking path parks more" true
    (parked.Gpusim.Engine.parks > main_waits);
  check_bool "same clocks and output either way" true
    (parked.Gpusim.Engine.critical_cycles = r.Gpusim.Engine.critical_cycles
    && parked.Gpusim.Engine.busy_cycles = r.Gpusim.Engine.busy_cycles
    && parked_y = y)

(* One block of each shape the golden set pins on the zoo's barrierless
   devices, run straight on the engine like [e6_block], with SIMD groups
   of 8 and the region as the kernel's last action: su3-like (an SPMD
   region, a simd loop of 36 per row), ideal-like (a generic region, a
   simd loop over the row) and the E6 reduction (a generic region, a
   simd sum over the row), on the test device and on the zoo's w32-sw
   and w32-none.  Their park counts are pinned: how a lane waits at a
   rendezvous must not change how often a fiber parks. *)
type shape = Su3_spmd | Ideal_generic | E6_reduction

let shape_parks ~cfg shape =
  let lengths =
    Workloads.Spmv.row_lengths
      (Workloads.Spmv.generate
         { Workloads.Spmv.default_shape with rows = 65; cols = 65; seed = 1 })
  in
  let rows = Array.length lengths in
  let starts = Array.make (rows + 1) 0 in
  Array.iteri (fun r n -> starts.(r + 1) <- starts.(r) + n) lengths;
  let space = Memory.space () in
  let values =
    Memory.of_float_array space
      (Array.init starts.(rows) (fun k -> float_of_int (k mod 7)))
  in
  let out = Memory.falloc space (max starts.(rows) (rows * 36)) in
  let params =
    {
      Team.num_teams = 1;
      num_threads = 128;
      teams_mode = Mode.Spmd;
      sharing_bytes = Sharing.default_bytes;
    }
  in
  let team = Team.create ~cfg ~arena:(Shared.arena cfg) ~params ~block_id:0 in
  let mode = match shape with Su3_spmd -> Mode.Spmd | _ -> Mode.Generic in
  let body ctx =
    Parallel.parallel ctx ~mode ~simd_len:8 ~fn_id:0 ~last:true (fun ctx _ ->
        Workshare.distribute_parallel_for ctx ~trip:rows (fun row ->
            match shape with
            | Su3_spmd ->
                Simd.simd ctx ~fn_id:1 ~trip:36 (fun ctx j _ ->
                    Team.charge_flops ctx 8;
                    Memory.fset out ctx.Team.th ((row * 36) + j) 1.0)
            | Ideal_generic ->
                Simd.simd ctx ~fn_id:1 ~trip:lengths.(row) (fun ctx j _ ->
                    let k = starts.(row) + j in
                    let v = Memory.fget values ctx.Team.th k in
                    Memory.fset out ctx.Team.th k (2.0 *. v))
            | E6_reduction ->
                let dot =
                  Simd.simd_sum ctx ~fn_id:1 ~trip:lengths.(row)
                    (fun ctx j _ ->
                      Team.charge_flops ctx 2;
                      Memory.fget values ctx.Team.th (starts.(row) + j))
                in
                Memory.fset out ctx.Team.th row dot))
  in
  let r =
    Gpusim.Engine.run_block ~cfg ~block_id:0
      ~num_threads:(Team.block_threads ~cfg params)
      (Target.thread_main body team)
  in
  r.Gpusim.Engine.parks

let test_parks_per_shape () =
  let parks cfg =
    List.map (shape_parks ~cfg) [ Su3_spmd; Ideal_generic; E6_reduction ]
  in
  let zoo name = Result.get_ok (Gpusim.Zoo.resolve name) in
  Alcotest.(check (list (list int)))
    "parks of su3 spmd, ideal generic and e6 reduction at g8"
    [ [ 910; 113; 178 ]; [ 910; 113; 178 ]; [ 910; 0; 0 ] ]
    (List.map parks [ cfg; zoo "w32-sw"; zoo "w32-none" ])

(* --- state carried from launch to launch ------------------------------ *)

(* Minor words per block of a launch's second run on a sequential pool:
   the first run builds the frames and buffers the pool then carries.
   What remains is the launch's results (reports, counters, L2 logs),
   its teams, fiber continuations and the kernel's own closures.  Each
   bound is the measured value plus about 20%; the runtime that built
   a task, a context and closures per region and thread, and fresh
   frames per launch, allocated about twice as much (4,316, 13,582 and
   7,964 words). *)
let second_launch_words ~grid launch =
  let pool = Gpusim.Pool.create () in
  ignore (launch pool : Workloads.Harness.run);
  let w0 = Gc.minor_words () in
  ignore (launch pool : Workloads.Harness.run);
  (Gc.minor_words () -. w0) /. float_of_int grid

let pin_words name ~bound words =
  if words > bound then
    Alcotest.failf "%s: %.0f minor words per block, bound %.0f" name words bound

let pin_spmv =
  lazy
    (Workloads.Spmv.generate
       { Workloads.Spmv.default_shape with rows = 512; cols = 512; seed = 1 })

(* measured 2,111 words *)
let test_alloc_e6_reduction () =
  let t = Lazy.force pin_spmv in
  pin_words "E6 reduction, generic simd g8" ~bound:2500.0
    (second_launch_words ~grid:64 (fun pool ->
         Workloads.Spmv.run_simd_reduction ~cfg ~pool ~num_teams:64 ~threads:128
           ~mode3:(Workloads.Harness.generic_simd ~group_size:8) t))

(* measured 7,563 words *)
let test_alloc_su3_spmd () =
  let t = Workloads.Su3.generate { Workloads.Su3.sites = 2048; seed = 2 } in
  pin_words "su3, SPMD simd g4" ~bound:9000.0
    (second_launch_words ~grid:16 (fun pool ->
         Workloads.Su3.run ~cfg ~pool ~num_teams:16 ~threads:128
           ~mode3:(Workloads.Harness.spmd_simd ~group_size:4) t))

(* measured 3,706 words *)
let test_alloc_spmv_two_level () =
  let t = Lazy.force pin_spmv in
  pin_words "spmv two-level, teams-generic" ~bound:4400.0
    (second_launch_words ~grid:64 (fun pool ->
         Workloads.Spmv.run_two_level ~cfg ~pool ~num_teams:64 ~threads:32 t))

(* Two teams whose SIMD groups disagree on a loop's trip count: each
   block deadlocks at its groups' lockstep barriers. *)
let deadlocking ?pool () =
  let params =
    {
      Team.num_teams = 2;
      num_threads = 32;
      teams_mode = Mode.Spmd;
      sharing_bytes = Sharing.default_bytes;
    }
  in
  match
    Target.launch ~cfg ?pool ~params (fun ctx ->
        Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:4 ~last:true (fun ctx _ ->
            let tid = ctx.Team.th.Thread.tid in
            Simd.simd ctx ~trip:(if tid mod 2 = 0 then 9 else 1) (fun ctx _ _ ->
                Team.charge_alu ctx 1)))
  with
  | (_ : Gpusim.Device.report) -> Alcotest.fail "expected a deadlock"
  | exception Gpusim.Engine.Deadlock msg -> msg

let report_text r = Format.asprintf "%a" Gpusim.Device.pp_report r

let healthy ?nonce pool =
  let t = Lazy.force pin_spmv in
  Workloads.Spmv.run_simd_reduction ~cfg ~pool ~num_teams:8 ~threads:128
    ~mode3:(Workloads.Harness.generic_simd ~group_size:8) t
  |> ignore;
  let params =
    {
      Team.num_teams = 4;
      num_threads = 64;
      teams_mode = Mode.Generic;
      sharing_bytes = Sharing.default_bytes;
    }
  in
  let out = Memory.falloc (Memory.space ()) 256 in
  Target.launch ~cfg ~pool ?nonce ~params (fun ctx ->
      Workshare.distribute ctx ~trip:256 (fun i ->
          Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:8 (fun ctx _ ->
              Simd.simd ctx ~trip:8 (fun ctx j _ ->
                  Memory.fset out ctx.Team.th i (float_of_int (i + j))))))
  |> report_text

(* A stall report numbers a block's barriers in order of first park:
   the same text on a fresh pool, after unrelated launches (which
   create barriers of their own, and leave frames on the pool) and on
   a one-worker pool. *)
let test_deadlock_text_per_block () =
  let fresh = deadlocking ~pool:(Gpusim.Pool.create ()) () in
  check_bool "names a numbered barrier" true (String.contains fresh '#');
  let warm =
    let pool = Gpusim.Pool.create () in
    ignore (healthy pool : string);
    ignore (deadlocking ~pool () : string);
    deadlocking ~pool ()
  in
  let pooled =
    let pool = Gpusim.Pool.create ~domains:1 () in
    Fun.protect
      ~finally:(fun () -> Gpusim.Pool.shutdown pool)
      (fun () -> deadlocking ~pool ())
  in
  Alcotest.(check string) "after other launches" fresh warm;
  Alcotest.(check string) "on a one-worker pool" fresh pooled;
  Alcotest.(check string) "without a pool" fresh (deadlocking ())

(* A launch reports what it reports on a fresh pool whatever ran on
   its pool before: a deadlocked launch, or one whose blocks failed
   under a fault plan (nonces pinned, so both pools draw the same
   faults). *)
let test_after_failed_launches () =
  let fresh = healthy (Gpusim.Pool.create ()) in
  let after_deadlock =
    let pool = Gpusim.Pool.create () in
    ignore (deadlocking ~pool () : string);
    healthy pool
  in
  Alcotest.(check string) "after a deadlocked launch" fresh after_deadlock;
  let faults () =
    Gpusim.Pool.create
      ~faults:(Gpusim.Fault.parse_spec ~seed:7 "abort=0.3,stall=0.3")
      ()
  in
  let faulted_fresh = healthy ~nonce:2 (faults ()) in
  let faulted_after =
    let pool = faults () in
    let first = healthy ~nonce:1 pool in
    check_bool "the first launch lost blocks" true
      (Astring_like.contains first "failure:");
    healthy ~nonce:2 pool
  in
  Alcotest.(check string) "after a faulted launch" faulted_fresh faulted_after

let suite =
  [
    ( "omprt.simd_group",
      [
        Alcotest.test_case "paper example" `Quick test_geometry_paper_example;
        Alcotest.test_case "ids" `Quick test_geometry_ids;
        Alcotest.test_case "masks stay in warp" `Quick test_geometry_mask_stays_in_warp;
        Alcotest.test_case "validation" `Quick test_geometry_validation;
        Alcotest.test_case "valid sizes" `Quick test_geometry_valid_sizes;
      ] );
    ( "omprt.payload",
      [
        Alcotest.test_case "typed access" `Quick test_payload_typed_access;
        Alcotest.test_case "type errors" `Quick test_payload_type_errors;
      ] );
    ( "omprt.sharing",
      [
        Alcotest.test_case "reservation" `Quick test_sharing_reservation;
        Alcotest.test_case "reservation overflow" `Quick test_sharing_overflow_reservation;
        Alcotest.test_case "slices" `Quick test_sharing_slices;
        Alcotest.test_case "acquire paths" `Quick test_sharing_acquire_paths;
        Alcotest.test_case "paper sizing 1024 vs 2048" `Quick test_sharing_paper_sizing;
        Alcotest.test_case "lifo discipline" `Quick test_sharing_lifo_discipline;
        Alcotest.test_case "out-of-order release" `Quick
          test_sharing_out_of_order_release;
        Alcotest.test_case "pool reuse" `Quick test_sharing_pool_reuse;
        Alcotest.test_case "configure reset" `Quick test_sharing_configure_reset;
      ] );
    ( "omprt.team",
      [
        Alcotest.test_case "block threads" `Quick test_team_block_threads;
        Alcotest.test_case "roles" `Quick test_team_roles;
        Alcotest.test_case "validation" `Quick test_team_validation;
        Alcotest.test_case "geometry requires region" `Quick test_team_geometry_requires_region;
      ] );
    ( "omprt.workshare",
      [
        Alcotest.test_case "static partition" `Quick test_workshare_static_partition;
        Alcotest.test_case "chunked partition" `Quick test_workshare_chunked_partition;
        Alcotest.test_case "empty trip" `Quick test_workshare_empty_trip;
      ] );
    ( "omprt.kernels",
      [
        Alcotest.test_case "spmd/spmd" `Quick test_kernel_spmd_spmd;
        Alcotest.test_case "spmd/generic" `Quick test_kernel_spmd_generic;
        Alcotest.test_case "generic teams" `Quick test_kernel_generic_teams;
        Alcotest.test_case "generic/generic" `Quick test_kernel_generic_generic;
        Alcotest.test_case "all group sizes" `Quick test_kernel_all_group_sizes;
        Alcotest.test_case "amd degradation" `Quick test_kernel_amd_degradation;
        Alcotest.test_case "empty simd loop" `Quick test_kernel_empty_simd_loop;
        Alcotest.test_case "trip < group" `Quick test_kernel_trip_smaller_than_group;
        Alcotest.test_case "exactly once" `Quick test_kernel_exactly_once;
        Alcotest.test_case "generic costs more" `Quick test_generic_mode_costs_more;
        Alcotest.test_case "simdlen 1 = two-level" `Quick test_simd_len1_matches_two_level;
        Alcotest.test_case "sharing fallback in kernel" `Quick test_sharing_fallback_in_kernel;
        Alcotest.test_case "varying group sizes" `Quick test_kernel_varying_group_sizes;
        Alcotest.test_case "simd under sequential for" `Quick
          test_kernel_simd_under_sequential_for;
        Alcotest.test_case "dynamic schedule coverage" `Quick
          test_dynamic_schedule_coverage;
        Alcotest.test_case "dynamic bad chunk" `Quick test_dynamic_rejects_bad_chunk;
        Alcotest.test_case "nested parallel rejected" `Quick
          test_nested_parallel_rejected;
        Alcotest.test_case "parks: only the SIMD mains' warp waits" `Quick
          test_parks_pinned;
        Alcotest.test_case "parks: pinned per shape" `Quick
          test_parks_per_shape;
      ] );
    ( "omprt.launch_state",
      [
        Alcotest.test_case "alloc: e6 reduction g8 per block" `Quick
          test_alloc_e6_reduction;
        Alcotest.test_case "alloc: su3 spmd g4 per block" `Quick test_alloc_su3_spmd;
        Alcotest.test_case "alloc: spmv two-level per block" `Quick
          test_alloc_spmv_two_level;
        Alcotest.test_case "deadlock text: numbered per block" `Quick
          test_deadlock_text_per_block;
        Alcotest.test_case "after failed launches: as on a fresh pool" `Quick
          test_after_failed_launches;
      ] );
    ( "omprt.reduction",
      [
        Alcotest.test_case "simd sum" `Quick test_simd_reduction;
        Alcotest.test_case "team sum spmd" `Quick test_team_reduction_spmd;
        Alcotest.test_case "team sum generic" `Quick test_team_reduction_generic;
        Alcotest.test_case "simd max" `Quick test_reduction_max;
        Alcotest.test_case "reducing loop with max" `Quick
          test_simd_reduce_max_in_loop;
      ] );
    ( "omprt.dispatch",
      [
        Alcotest.test_case "cascade vs indirect" `Quick test_dispatch_cascade_vs_indirect;
      ] );
    ("omprt.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
