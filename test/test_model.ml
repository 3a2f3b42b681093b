(* Cost-model invariants ("physics tests"): regression net for the
   calibration.  Each asserts a directional property the model must keep
   for the paper's results to mean anything — see docs/COSTMODEL.md. *)

module Config = Gpusim.Config
module Memory = Gpusim.Memory
module Device = Gpusim.Device
module Thread = Gpusim.Thread
module Mode = Omprt.Mode
module Team = Omprt.Team
module Harness = Workloads.Harness
module Spmv = Workloads.Spmv

let cfg = Config.small
let check_bool = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let compute_kernel ~flops ~threads ~grid () =
  Device.launch ~cfg ~grid ~block:threads
    ~init:(fun ~block_id _ -> block_id)
    ~body:(fun _ th -> Thread.tick th (float_of_int flops *. 2.0))
    ()

let test_flops_scale_compute_bound () =
  let t1 = (compute_kernel ~flops:10_000 ~threads:128 ~grid:8 ()).Device.breakdown in
  let t2 = (compute_kernel ~flops:20_000 ~threads:128 ~grid:8 ()).Device.breakdown in
  checkf "2x flops = 2x compute bound"
    (2.0 *. t1.Gpusim.Occupancy.compute_bound)
    t2.Gpusim.Occupancy.compute_bound

let test_more_sms_faster () =
  let time sms =
    let cfg = Config.with_sms Config.a100 sms in
    let r =
      Device.launch ~cfg ~grid:64 ~block:128
        ~init:(fun ~block_id _ -> block_id)
        ~body:(fun _ th -> Thread.tick th 5000.0)
        ()
    in
    r.Device.time_cycles
  in
  check_bool "16 SMs beat 4" true (time 16 < time 4)

let test_determinism () =
  let t = Spmv.generate { Spmv.default_shape with Spmv.rows = 256; cols = 256 } in
  let run () =
    Harness.time
      (Spmv.run_simd ~cfg ~num_teams:4 ~threads:64
         ~mode3:(Harness.generic_simd ~group_size:8) t)
  in
  checkf "identical cycles across runs" (run ()) (run ())

let test_strided_worse_than_sequential () =
  let sp = Memory.space () in
  let a = Memory.falloc sp 4096 in
  let time stride =
    let r =
      Device.launch ~cfg ~grid:1 ~block:32
        ~init:(fun ~block_id _ -> block_id)
        ~body:(fun _ th ->
          for i = 0 to 63 do
            ignore
              (Memory.fget a th
                 (((th.Thread.tid * 64) + (i * stride)) mod 4096))
          done)
        ()
    in
    (Memory.l2_reset sp;
     r.Device.time_cycles)
  in
  let sequential = time 1 in
  let strided = time 16 in
  check_bool "strided access costs more" true (strided > sequential)

let test_warm_l2_not_slower () =
  let t = Spmv.generate { Spmv.default_shape with Spmv.rows = 512; cols = 512 } in
  let mode3 = Harness.generic_simd ~group_size:8 in
  let cold =
    Harness.time (Spmv.run_simd ~cfg ~reset_l2:true ~num_teams:4 ~threads:64 ~mode3 t)
  in
  let warm =
    Harness.time (Spmv.run_simd ~cfg ~reset_l2:false ~num_teams:4 ~threads:64 ~mode3 t)
  in
  check_bool "warm run not slower" true (warm <= cold)

let test_generic_teams_extra_warp_in_block_costs () =
  let params mode =
    { Team.num_teams = 2; num_threads = 64; teams_mode = mode;
      sharing_bytes = Omprt.Sharing.default_bytes }
  in
  let report mode =
    Omprt.Target.launch ~cfg ~params:(params mode) (fun _ -> ())
  in
  let spmd = report Mode.Spmd and generic = report Mode.Generic in
  Alcotest.(check int) "spmd block" 64
    spmd.Device.block_costs.(0).Gpusim.Occupancy.threads;
  Alcotest.(check int) "generic block has the main warp" 96
    generic.Device.block_costs.(0).Gpusim.Occupancy.threads

let test_remainder_waste_grows_busy () =
  (* a 9-trip simd loop wastes most of a 32-wide group's slots *)
  let busy gs =
    let params =
      { Team.num_teams = 1; num_threads = 32; teams_mode = Mode.Spmd;
        sharing_bytes = Omprt.Sharing.default_bytes }
    in
    let r =
      Omprt.Target.launch ~cfg ~params (fun ctx ->
          Omprt.Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:gs
            (fun ctx ->
              Omprt.Workshare.distribute_parallel_for ctx ~trip:(32 / gs)
                (fun _ ->
                  Omprt.Simd.simd ctx ~trip:9 (fun ctx _ ->
                      Team.charge_flops ctx 50))))
    in
    Gpusim.Counters.busy_cycles r.Device.counters
  in
  (* normalize per useful iteration: (32/gs) rows x 9 iterations each *)
  let per_iter gs = busy gs /. float_of_int (32 / gs * 9) in
  check_bool "32-wide group wastes more slots per iteration than 1-wide" true
    (per_iter 32 > per_iter 1 *. 2.0)

let test_barrier_cost_mostly_stall () =
  (* a barrier-heavy kernel's busy must stay far below its clock *)
  let bar = Gpusim.Barrier.create ~expected:32 ~cost:48.0 () in
  let r =
    Gpusim.Engine.run_block ~cfg ~block_id:0 ~num_threads:32 (fun th ->
        for _ = 1 to 50 do
          Gpusim.Engine.barrier_wait bar th
        done)
  in
  let per_lane_busy =
    r.Gpusim.Engine.busy_cycles /. 32.0
  in
  check_bool "stall dominates busy" true
    (per_lane_busy < r.Gpusim.Engine.critical_cycles /. 4.0)

let test_dispatch_depth_costs () =
  (* deeper if-cascade entries take longer (the E4 mechanism, unit level) *)
  let arena = Gpusim.Shared.arena_of_capacity 8192 in
  let team =
    Team.create ~cfg ~arena
      ~params:
        { Team.num_teams = 1; num_threads = 32; teams_mode = Mode.Spmd;
          sharing_bytes = 1024 }
      ~block_id:0
  in
  team.Team.dispatch_table_size <- 16;
  let cost fn_id =
    let clock = ref 0.0 in
    ignore
      (Gpusim.Engine.run_block ~cfg ~block_id:0 ~num_threads:1 (fun th ->
           let ctx = { Team.th; team } in
           Team.charge_microtask ctx ~fn_id;
           clock := Thread.clock th));
    !clock
  in
  check_bool "entry 15 > entry 0" true (cost 15 > cost 0);
  check_bool "indirect > entry 0" true (cost 99 > cost 0)

let suite =
  [
    ( "model.invariants",
      [
        Alcotest.test_case "flops scale compute bound" `Quick
          test_flops_scale_compute_bound;
        Alcotest.test_case "more SMs faster" `Quick test_more_sms_faster;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "strided worse" `Quick test_strided_worse_than_sequential;
        Alcotest.test_case "warm L2 not slower" `Quick test_warm_l2_not_slower;
        Alcotest.test_case "extra main warp" `Quick
          test_generic_teams_extra_warp_in_block_costs;
        Alcotest.test_case "remainder waste" `Quick test_remainder_waste_grows_busy;
        Alcotest.test_case "barriers are stall" `Quick test_barrier_cost_mostly_stall;
        Alcotest.test_case "dispatch depth" `Quick test_dispatch_depth_costs;
      ] );
  ]
