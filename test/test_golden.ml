(* Golden simulated reports.  Each launch below is reduced to one MD5
   over its device report text, [%h] of its time, busy cycles and every
   block cost, and its output array; the expected digests were recorded
   before the SIMD state machine's workers became engine steps and block
   frames became per launch, so any change to the simulated schedule —
   a clock, a counter, a sanitizer finding, a failed block — shows up
   here.  Every launch runs twice, sequentially and on a 1-worker pool,
   against the same digest.

   The set covers the E6 launches (atomic and reduction spmv at every
   group size), the Fig 9 generic and SPMD launches, and the runtime
   paths whose rounds run classic lockstep rather than fused: a
   sanitized launch, a fault plan with stalls and aborts, a dynamic
   schedule, and a non-sum simd reduction. *)

module Device = Gpusim.Device
module Occupancy = Gpusim.Occupancy
module Harness = Workloads.Harness
module Spmv = Workloads.Spmv
module Su3 = Workloads.Su3
module Ideal = Workloads.Ideal
module Team = Omprt.Team

let cfg = Gpusim.Config.small
let groups = [ 2; 4; 8; 16; 32 ]

let digest (r : Device.report) output =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Digest.to_hex
       (Digest.string (Format.asprintf "%a" Device.pp_report r)));
  Printf.bprintf b " %h %h" r.Device.time_cycles
    (Gpusim.Counters.busy_cycles r.Device.counters);
  Array.iter
    (fun (c : Occupancy.block_cost) ->
      Printf.bprintf b " %h %h %h %h %d %d %d" c.Occupancy.critical
        c.Occupancy.busy c.Occupancy.dram_bytes c.Occupancy.lsu_transactions
        c.Occupancy.active_lanes c.Occupancy.threads c.Occupancy.smem_bytes)
    r.Device.block_costs;
  Array.iter (fun v -> Printf.bprintf b " %h" v) output;
  Digest.to_hex (Digest.string (Buffer.contents b))

let of_run (r : Harness.run) = digest r.Harness.report r.Harness.output

(* E6 at the ledger's tiny size *)
let spmv =
  lazy
    (Spmv.generate { Spmv.default_shape with Spmv.rows = 65; cols = 65; seed = 1 })

let e6 ?pool () =
  let t = Lazy.force spmv in
  List.concat_map
    (fun g ->
      let mode3 = Harness.generic_simd ~group_size:g in
      [
        ( Printf.sprintf "e6 atomic g%d" g,
          of_run (Spmv.run_simd ~cfg ?pool ~num_teams:65 ~threads:128 ~mode3 t) );
        ( Printf.sprintf "e6 reduction g%d" g,
          of_run
            (Spmv.run_simd_reduction ~cfg ?pool ~num_teams:65 ~threads:128
               ~mode3 t) );
      ])
    groups

(* Fig 9: su3 in SPMD mode, ideal in generic mode, with their
   group-size-1 baselines *)
let fig9 ?pool () =
  let su3 = Su3.generate { Su3.sites = 96; seed = 2 } in
  let ideal =
    Ideal.generate { Ideal.default_shape with Ideal.rows = 96; seed = 3 }
  in
  let su3_run g =
    ( Printf.sprintf "fig9 su3 spmd g%d" g,
      of_run
        (Su3.run ~cfg ?pool ~num_teams:12 ~threads:128
           ~mode3:(Harness.spmd_simd ~group_size:g) su3) )
  in
  let ideal_run name mode3 =
    (name, of_run (Ideal.run ~cfg ?pool ~num_teams:12 ~threads:128 ~mode3 ideal))
  in
  (su3_run 1 :: List.map su3_run groups)
  @ ideal_run "fig9 ideal g1" (Harness.spmd_simd ~group_size:1)
    :: List.map
         (fun g ->
           ideal_run
             (Printf.sprintf "fig9 ideal generic g%d" g)
             (Harness.generic_simd ~group_size:g))
         groups

let sanitized ~domains =
  let pool = Gpusim.Pool.create ~sanitize:true ~domains () in
  let t = Lazy.force spmv in
  let r =
    [
      ( "sanitized atomic g4",
        of_run
          (Spmv.run_simd ~cfg ~pool ~num_teams:16 ~threads:128
             ~mode3:(Harness.generic_simd ~group_size:4) t) );
      ( "sanitized reduction g8",
        of_run
          (Spmv.run_simd_reduction ~cfg ~pool ~num_teams:16 ~threads:128
             ~mode3:(Harness.generic_simd ~group_size:8) t) );
    ]
  in
  Gpusim.Pool.shutdown pool;
  r

(* also returns the summed fault statistics, so the test can check the
   plan really stalled and aborted blocks *)
let faulted ~domains =
  let faults = Gpusim.Fault.parse_spec ~seed:11 "abort=0.15,stall=0.3" in
  let pool = Gpusim.Pool.create ~faults ~domains () in
  let t =
    Spmv.generate { Spmv.default_shape with Spmv.rows = 512; cols = 512; seed = 4 }
  in
  let stats = ref Gpusim.Fault.zero_stats in
  let run name (r : Harness.run) =
    stats := Gpusim.Fault.add_stats !stats r.Harness.report.Device.faults;
    (name, of_run r)
  in
  let r =
    List.concat_map
      (fun g ->
        let mode3 = Harness.generic_simd ~group_size:g in
        [
          run
            (Printf.sprintf "faulted atomic g%d" g)
            (Spmv.run_simd ~cfg ~pool ~num_teams:16 ~threads:128 ~mode3 t);
          run
            (Printf.sprintf "faulted reduction g%d" g)
            (Spmv.run_simd_reduction ~cfg ~pool ~num_teams:16 ~threads:128
               ~mode3 t);
        ])
      [ 4; 16 ]
  in
  Gpusim.Pool.shutdown pool;
  (r, !stats)

let dynamic ?pool () =
  let t =
    Spmv.generate
      {
        Spmv.default_shape with
        Spmv.rows = 96;
        cols = 96;
        profile = Spmv.Banded { mean = 9; spread = 8 };
        seed = 5;
      }
  in
  List.map
    (fun g ->
      ( Printf.sprintf "dynamic g%d" g,
        of_run
          (Spmv.run_simd ~cfg ?pool ~num_teams:4 ~threads:128
             ~schedule:(Omprt.Workshare.Dynamic 2)
             ~mode3:(Harness.generic_simd ~group_size:g) t) ))
    [ 4; 8 ]

(* A max reduction in a generic region: the workers combine through the
   monoid, not the register fold. *)
let max_reduce ?pool () =
  let space = Gpusim.Memory.space () in
  let n = 40 in
  let data =
    Gpusim.Memory.of_float_array space
      (Array.init (n * 24) (fun i -> float_of_int ((i * 37) mod 101)))
  in
  let out = Gpusim.Memory.falloc space n in
  List.map
    (fun g ->
      Gpusim.Memory.l2_reset space;
      Gpusim.Memory.fill out 0.0;
      let params =
        {
          Team.num_teams = 5;
          num_threads = 64;
          teams_mode = Omprt.Mode.Spmd;
          sharing_bytes = Omprt.Sharing.default_bytes;
        }
      in
      let report =
        Omprt.Target.launch ~cfg ?pool ~params ~dispatch_table_size:2
          (fun ctx ->
            Omprt.Parallel.parallel ctx ~mode:Omprt.Mode.Generic ~simd_len:g
              ~fn_id:0 (fun ctx _ ->
                Omprt.Workshare.distribute_parallel_for ctx ~trip:n (fun row ->
                    let m =
                      Omprt.Simd.simd_reduce ctx ~fn_id:1 ~op:Omprt.Redop.max
                        ~trip:(8 + (row mod 17))
                        (fun ctx j _ ->
                          Gpusim.Memory.fget data ctx.Team.th ((row * 24) + j))
                    in
                    let g' = Team.geometry ctx.Team.team in
                    if
                      Omprt.Simd_group.is_simd_group_leader g'
                        ~tid:ctx.Team.th.Gpusim.Thread.tid
                    then Gpusim.Memory.fset out ctx.Team.th row m)))
      in
      ( Printf.sprintf "max reduce g%d" g,
        digest report (Gpusim.Memory.to_float_array out) ))
    [ 2; 8 ]

let all ~domains =
  let pool =
    if domains = 0 then None else Some (Gpusim.Pool.create ~domains ())
  in
  let faults, stats = faulted ~domains in
  let r =
    e6 ?pool () @ fig9 ?pool () @ sanitized ~domains @ faults
    @ dynamic ?pool () @ max_reduce ?pool ()
  in
  Option.iter Gpusim.Pool.shutdown pool;
  (r, stats)

(* recorded with the code before stepped workers and block frames *)
let expected =
  [
    ("e6 atomic g2", "2360daaf62fdc852fd31ced4f18f3ff5");
    ("e6 reduction g2", "7d56c9a50f6e47fcaa82dc4c686765b0");
    ("e6 atomic g4", "f3fcf1ebe2baf6b64b9edffada5062b4");
    ("e6 reduction g4", "42143ddc73e2e4eca240cb397c07a725");
    ("e6 atomic g8", "c930ea4b189e6cbd2a51ad4c5d70a31a");
    ("e6 reduction g8", "420aca83dbd6a6db6a9a90e34e500d47");
    ("e6 atomic g16", "ea9d68d81b1cfb28c225e40ea24e26d0");
    ("e6 reduction g16", "c44a71cb7d7d007c16bd14e09794482a");
    ("e6 atomic g32", "cac43c2ae80d205b9d2bd2739ee7c22c");
    ("e6 reduction g32", "a736cee41cb94924367f44881d3c61f4");
    ("fig9 su3 spmd g1", "4ab6e626b120a35bea3fffec1e2afcc9");
    ("fig9 su3 spmd g2", "917cea3e56f796f2803bc1b1e0141d8a");
    ("fig9 su3 spmd g4", "88b72db8b6df3cf20e645e94f08997ff");
    ("fig9 su3 spmd g8", "2b4b57002fdbbd4e177001e6a8879739");
    ("fig9 su3 spmd g16", "6dbf6af46d7112516911a522a5cd3cca");
    ("fig9 su3 spmd g32", "bc1bad162b9b5199687349f9b5482402");
    ("fig9 ideal g1", "aab2491ab754400698501f3aae501b99");
    ("fig9 ideal generic g2", "5d21d83e65b035a56dbadba197eddc2e");
    ("fig9 ideal generic g4", "ab7fb0a05e5f1a7788274ed4e76c9eaa");
    ("fig9 ideal generic g8", "71c5faaf316e002e751e77704712c37d");
    ("fig9 ideal generic g16", "851e0e7a86a06e26aaa9fe234b1ba06d");
    ("fig9 ideal generic g32", "b583f34b483be84e0aab5cd175f06ae4");
    ("sanitized atomic g4", "75ad01bb7051152435f0e388118fd863");
    ("sanitized reduction g8", "64de79d3d785f24f3b07f1e5db26d02f");
    ("faulted atomic g4", "0898cbae4416d5620cd3ecef17e6540e");
    ("faulted reduction g4", "8a469578890c42c66146a0e1406dba3d");
    ("faulted atomic g16", "557cf42b5352d51809b0d9abf9248343");
    ("faulted reduction g16", "0ffeb10e8c774277793b31717e821229");
    ("dynamic g4", "287a8026d63c4dcd6abfcde10fb366fb");
    ("dynamic g8", "3d0df1e95b7ce7187208f3c79ece4a1a");
    ("max reduce g2", "bde33e848c20fd8ed8bd173f25bb362c");
    ("max reduce g8", "3327662d7e93a4ded572e5ad9d296e5d");
  ]

let check_golden domains () =
  let got, stats = all ~domains in
  Alcotest.(check bool)
    "the fault plan stalls and aborts blocks" true
    (stats.Gpusim.Fault.stalls > 0 && stats.Gpusim.Fault.fatal > 0);
  Alcotest.(check (list (pair string string)))
    "simulated reports match the recorded digests" expected got

let suite =
  [
    ( "golden-sim",
      [
        Alcotest.test_case "sim reports, sequential" `Quick (check_golden 0);
        Alcotest.test_case "sim reports, 1-worker pool" `Quick (check_golden 1);
      ] );
  ]
