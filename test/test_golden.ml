(* Golden simulated reports.  Each launch below is reduced to one MD5
   over its device report text, [%h] of its time, busy cycles and every
   block cost, and its output array; the expected digests were recorded
   before the code paths they cover were last restructured (see
   [expected]), so any change to the simulated schedule —
   a clock, a counter, a sanitizer finding, a failed block — shows up
   here.  Every launch runs twice, sequentially and on a 1-worker pool,
   against the same digest.

   The set covers the E6 launches (atomic and reduction spmv at every
   group size), the Fig 9 generic and SPMD launches and its
   generic-teams two-level baseline, the runtime paths whose rounds run
   classic lockstep rather than fused (sanitized launches, a fault plan
   with stalls and aborts, a dynamic schedule), and sum and max simd
   reductions in both region modes, under both schedules, at group
   sizes 1, 2 and 8, a generic-teams simd reduction (plain, sanitized
   and faulted), chains of launches that run
   on the L2 an earlier launch left warm, launches on the zoo's
   64-lane wavefront, and launches on its 32-lane devices with a
   software-emulated warp barrier and with none. *)

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
  let t = Lazy.force spmv in
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
  let simd =
    (su3_run 1 :: List.map su3_run groups)
    @ ideal_run "fig9 ideal g1" (Harness.spmd_simd ~group_size:1)
      :: List.map
           (fun g ->
             ideal_run
               (Printf.sprintf "fig9 ideal generic g%d" g)
               (Harness.generic_simd ~group_size:g))
           groups
  in
  (* Fig 9's baseline: generic teams, an SPMD region per row *)
  simd
  @ [
      ( "fig9 spmv two-level",
        of_run (Spmv.run_two_level ~cfg ?pool ~num_teams:16 ~threads:32 t) );
    ]

(* teams generic x parallel generic: the team main signals the workers,
   and the SIMD mains publish their loops to the SIMD workers *)
let generic_generic ~group_size =
  { (Harness.generic_simd ~group_size) with Harness.teams_mode = Omprt.Mode.Generic }

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
      ( "sanitized reduction teams-generic g8",
        of_run
          (Spmv.run_simd_reduction ~cfg ~pool ~num_teams:16 ~threads:128
             ~mode3:(generic_generic ~group_size:8) t) );
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
  (* after the others: each launch draws the pool's next fault nonce *)
  let generic =
    run "faulted reduction teams-generic g4"
      (Spmv.run_simd_reduction ~cfg ~pool ~num_teams:16 ~threads:128
         ~mode3:(generic_generic ~group_size:4) t)
  in
  let r = r @ [ generic ] in
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

(* Simd reductions over op (sum, max) x region mode (generic, SPMD) x
   schedule (static, dynamic) x group size (1, 2, 8): singleton groups
   run the sequential loop, SPMD lanes each run the loop on their own
   fiber, generic workers step through the state machine, and a dynamic
   schedule keeps every group's rounds classic. *)
let reduce ?pool () =
  let space = Gpusim.Memory.space () in
  let n = 40 in
  let data =
    Gpusim.Memory.of_float_array space
      (Array.init (n * 24) (fun i -> float_of_int ((i * 37) mod 101)))
  in
  let out = Gpusim.Memory.falloc space n in
  let launch ?(teams_mode = Omprt.Mode.Spmd) (op_name, op) mode schedule g =
    Gpusim.Memory.l2_reset space;
    Gpusim.Memory.fill out 0.0;
    let params =
      {
        Team.num_teams = 5;
        num_threads = 64;
        teams_mode;
        sharing_bytes = Omprt.Sharing.default_bytes;
      }
    in
    let report =
      Omprt.Target.launch ~cfg ?pool ~params ~dispatch_table_size:2
        (fun ctx ->
          Omprt.Parallel.parallel ctx ~mode ~simd_len:g ~fn_id:0 (fun ctx ->
              Omprt.Workshare.distribute_parallel_for ctx ~schedule ~trip:n
                (fun row ->
                  let m =
                    Omprt.Simd.simd_reduce ctx ~fn_id:1 ~op
                      ~trip:(8 + (row mod 17))
                      (fun ctx j ->
                        Omprt.Simd.fold ctx
                          (Gpusim.Memory.fget data ctx.Team.th ((row * 24) + j)))
                  in
                  let g' = Team.geometry ctx.Team.team in
                  if
                    Omprt.Simd_group.is_simd_group_leader g'
                      ~tid:ctx.Team.th.Gpusim.Thread.tid
                  then Gpusim.Memory.fset out ctx.Team.th row m)))
    in
    ( Printf.sprintf "%s reduce%s%s%s g%d" op_name
        (if teams_mode = Omprt.Mode.Generic then " teams-generic" else "")
        (if mode = Omprt.Mode.Spmd then " spmd" else "")
        (if schedule = Omprt.Workshare.Static then "" else " dynamic")
        g,
      digest report (Gpusim.Memory.to_float_array out) )
  in
  let teams_spmd =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun mode ->
            List.concat_map
              (fun schedule ->
                List.map (launch op mode schedule) [ 1; 2; 8 ])
              [ Omprt.Workshare.Static; Omprt.Workshare.Dynamic 2 ])
          [ Omprt.Mode.Generic; Omprt.Mode.Spmd ])
      [ ("max", Omprt.Redop.max); ("sum", Omprt.Redop.sum) ]
  in
  teams_spmd
  @ [
      launch ~teams_mode:Omprt.Mode.Generic ("sum", Omprt.Redop.sum)
        Omprt.Mode.Generic Omprt.Workshare.Static 8;
    ]

(* Warm-L2 chains: launches that keep the committed L2 an earlier
   launch left (reset_l2:false), so the order in which block logs enter
   the L2, and what an [l2_reset] throws away, show in the digests.  A
   space launched cold then warm twice; a warm launch after a launch over
   another space; a reset after warm launches, which must read like the
   cold launch; Fig 9-style cold/warm pairs; and a bare block (no
   session) between launches, which reads and writes the committed L2
   directly.  The L2 holds 40 sectors, so its residency window closes
   and its table compacts within one launch: which lines survive depends
   on the exact replay order. *)
let warm ?pool () =
  let cfg =
    Result.get_ok (Gpusim.Config.of_spec ~base:cfg "l2_sectors=40")
  in
  let spmv seed =
    Spmv.generate { Spmv.default_shape with Spmv.rows = 65; cols = 65; seed }
  in
  let a = spmv 6 and b = spmv 7 in
  let mode3 = Harness.generic_simd ~group_size:4 in
  let atomic ?(reset_l2 = false) name t =
    ( name,
      of_run
        (Spmv.run_simd ~cfg ?pool ~reset_l2 ~num_teams:65 ~threads:128 ~mode3 t)
    )
  in
  let a_cold = atomic ~reset_l2:true "warm a cold" a in
  let a_warm1 = atomic "warm a 1" a in
  let a_warm2 = atomic "warm a 2" a in
  let b_cold = atomic ~reset_l2:true "warm b cold" b in
  let a_after_b = atomic "warm a after b" a in
  let a_warm3 = atomic "warm a 3" a in
  let a_reset = atomic ~reset_l2:true "warm a after reset" a in
  let ideal =
    Ideal.generate { Ideal.default_shape with Ideal.rows = 96; seed = 8 }
  in
  let ideal_run ~reset_l2 name =
    ( name,
      of_run
        (Ideal.run ~cfg ?pool ~reset_l2 ~num_teams:12 ~threads:128
           ~mode3:(Harness.generic_simd ~group_size:8) ideal) )
  in
  let ideal_cold = ideal_run ~reset_l2:true "warm ideal cold" in
  let ideal_warm = ideal_run ~reset_l2:false "warm ideal" in
  let reduction ~reset_l2 name =
    ( name,
      of_run
        (Spmv.run_simd_reduction ~cfg ?pool ~reset_l2 ~num_teams:65
           ~threads:128 ~mode3:(Harness.generic_simd ~group_size:8) b) )
  in
  let red_cold = reduction ~reset_l2:true "warm reduction cold" in
  let red_warm = reduction ~reset_l2:false "warm reduction" in
  (* a bare block between two launches of one space *)
  let space = Gpusim.Memory.space () in
  let n = 700 in
  let data =
    Gpusim.Memory.of_float_array space
      (Array.init n (fun i -> float_of_int ((i * 13) mod 31)))
  in
  let out = Gpusim.Memory.falloc space n in
  let sweep (th : Gpusim.Thread.t) =
    for k = 0 to 5 do
      let i =
        ((th.Gpusim.Thread.block_id * 64) + th.Gpusim.Thread.tid + (k * 97))
        mod n
      in
      Gpusim.Memory.fset out th i (Gpusim.Memory.fget data th i +. 1.0)
    done
  in
  let launch name =
    ( name,
      digest
        (Device.launch ~cfg ?pool ~grid:6 ~block:64
           ~init:(fun ~block_id:_ _ -> ())
           ~body:(fun () th -> sweep th)
           ())
        (Gpusim.Memory.to_float_array out) )
  in
  let sweep_cold = launch "warm sweep cold" in
  let bare =
    let r =
      Gpusim.Engine.run_block ~cfg ~block_id:3 ~num_threads:64 sweep
    in
    ( "warm bare block",
      Digest.to_hex
        (Digest.string
           (Format.asprintf "%a %h %h" Gpusim.Counters.pp
              r.Gpusim.Engine.counters r.Gpusim.Engine.critical_cycles
              r.Gpusim.Engine.busy_cycles)) )
  in
  let sweep_warm = launch "warm sweep after bare" in
  [
    a_cold;
    a_warm1;
    a_warm2;
    b_cold;
    a_after_b;
    a_warm3;
    a_reset;
    ideal_cold;
    ideal_warm;
    red_cold;
    red_warm;
    sweep_cold;
    bare;
    sweep_warm;
  ]

(* The zoo's 64-lane wavefront (w64-hw): SIMD groups up to the whole
   wavefront, so lanes 32-63 share lines with lanes 0-31 inside one
   warp's bursts. *)
let w64 ?pool () =
  let cfg = Result.get_ok (Gpusim.Zoo.resolve "w64-hw") in
  let su3 = Su3.generate { Su3.sites = 96; seed = 2 } in
  let ideal =
    Ideal.generate { Ideal.default_shape with Ideal.rows = 96; seed = 3 }
  in
  let t = Lazy.force spmv in
  List.concat_map
    (fun g ->
      let mode3 = Harness.generic_simd ~group_size:g in
      [
        ( Printf.sprintf "w64 su3 spmd g%d" g,
          of_run
            (Su3.run ~cfg ?pool ~num_teams:12 ~threads:128
               ~mode3:(Harness.spmd_simd ~group_size:g) su3) );
        ( Printf.sprintf "w64 ideal generic g%d" g,
          of_run (Ideal.run ~cfg ?pool ~num_teams:12 ~threads:128 ~mode3 ideal)
        );
        ( Printf.sprintf "w64 e6 atomic g%d" g,
          of_run (Spmv.run_simd ~cfg ?pool ~num_teams:65 ~threads:128 ~mode3 t)
        );
        ( Printf.sprintf "w64 e6 reduction g%d" g,
          of_run
            (Spmv.run_simd_reduction ~cfg ?pool ~num_teams:65 ~threads:128
               ~mode3 t) );
      ])
    [ 8; 64 ]

(* The zoo's 32-lane devices without a hardware masked sync: w32-sw
   emulates it in software (a costlier rendezvous, same protocol), and
   w32-none has none at all, so its SPMD groups rendezvous through the
   implicit-lockstep alignment and its generic regions degrade to
   singleton groups (Sec 5.4.1). *)
let barrierless ?pool () =
  let su3 = Su3.generate { Su3.sites = 96; seed = 2 } in
  let ideal =
    Ideal.generate { Ideal.default_shape with Ideal.rows = 96; seed = 3 }
  in
  let t = Lazy.force spmv in
  let mode3 = Harness.generic_simd ~group_size:8 in
  List.concat_map
    (fun device ->
      let cfg = Result.get_ok (Gpusim.Zoo.resolve device) in
      [
        ( device ^ " su3 spmd g8",
          of_run
            (Su3.run ~cfg ?pool ~num_teams:12 ~threads:128
               ~mode3:(Harness.spmd_simd ~group_size:8) su3) );
        ( device ^ " ideal generic g8",
          of_run (Ideal.run ~cfg ?pool ~num_teams:12 ~threads:128 ~mode3 ideal)
        );
        ( device ^ " e6 reduction g8",
          of_run
            (Spmv.run_simd_reduction ~cfg ?pool ~num_teams:65 ~threads:128
               ~mode3 t) );
      ])
    [ "w32-none"; "w32-sw" ]

let all ~domains =
  let pool =
    if domains = 0 then None else Some (Gpusim.Pool.create ~domains ())
  in
  let faults, stats = faulted ~domains in
  let r =
    e6 ?pool () @ fig9 ?pool () @ sanitized ~domains @ faults
    @ dynamic ?pool () @ reduce ?pool () @ warm ?pool () @ w64 ?pool ()
    @ barrierless ?pool ()
  in
  Option.iter Gpusim.Pool.shutdown pool;
  (r, stats)

(* recorded with the code before stepped workers and block frames; the
   reduce launches other than max g2/g8 with the code before reductions
   became loop bodies; the warm chains with the code that replayed every
   block's L2 log at commit; the w64 launches once lanes 32-63 got lane
   bits of their own (su3 spmd g8 and the two e6 g64 launches moved;
   before, lane 32 shared lane 0's bit); the w32-none and w32-sw
   launches before SIMD mains and SPMD lanes ran the stepped workers'
   simd-loop machine; the generic-teams launches (two-level, teams-generic
   reductions) before the teams-level worker loop ran as steps *)
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
    ("fig9 spmv two-level", "a5fce704543b81b93c8732f7761e0572");
    ("sanitized atomic g4", "75ad01bb7051152435f0e388118fd863");
    ("sanitized reduction g8", "64de79d3d785f24f3b07f1e5db26d02f");
    ("sanitized reduction teams-generic g8", "576720dac03a027ca742279d41722a5c");
    ("faulted atomic g4", "0898cbae4416d5620cd3ecef17e6540e");
    ("faulted reduction g4", "8a469578890c42c66146a0e1406dba3d");
    ("faulted atomic g16", "557cf42b5352d51809b0d9abf9248343");
    ("faulted reduction g16", "0ffeb10e8c774277793b31717e821229");
    ("faulted reduction teams-generic g4", "e0c80bbc822973b86f7e7151258f236d");
    ("dynamic g4", "287a8026d63c4dcd6abfcde10fb366fb");
    ("dynamic g8", "3d0df1e95b7ce7187208f3c79ece4a1a");
    ("max reduce g1", "7507a060756ae829e7ae8509f2e24683");
    ("max reduce g2", "bde33e848c20fd8ed8bd173f25bb362c");
    ("max reduce g8", "3327662d7e93a4ded572e5ad9d296e5d");
    ("max reduce dynamic g1", "5b06cabd176e6bc78e02ca441a59cf46");
    ("max reduce dynamic g2", "1727e8c693057fab721921e27c137551");
    ("max reduce dynamic g8", "78479315ed16a62e293135f3715858d0");
    ("max reduce spmd g1", "7507a060756ae829e7ae8509f2e24683");
    ("max reduce spmd g2", "ea11e1c5714e6565567e7dfa690b0436");
    ("max reduce spmd g8", "921311f2a2b180e3c39a99ab0129b9c8");
    ("max reduce spmd dynamic g1", "5b06cabd176e6bc78e02ca441a59cf46");
    ("max reduce spmd dynamic g2", "cd1b4797b7a6b85a330d828831826df2");
    ("max reduce spmd dynamic g8", "bd9e49391533352a2d67d10f97310696");
    ("sum reduce g1", "880c3b06fcfd3aeb49f1965e29329708");
    ("sum reduce g2", "b387c5c1ae14e8e014c243a940e3343b");
    ("sum reduce g8", "5a37653ebebb9484d5fbde6b3cfb9a11");
    ("sum reduce dynamic g1", "d0a5ea2fed831bfc1c8a6e99e8844741");
    ("sum reduce dynamic g2", "3d3ea1204da446465d8f6ad090cfea46");
    ("sum reduce dynamic g8", "856aa239e913ef3400b0ad915cd49b26");
    ("sum reduce spmd g1", "880c3b06fcfd3aeb49f1965e29329708");
    ("sum reduce spmd g2", "5e1dacb4d62ea1b284668fd09efe9722");
    ("sum reduce spmd g8", "6597f0ce71b0371016da543b086ef564");
    ("sum reduce spmd dynamic g1", "d0a5ea2fed831bfc1c8a6e99e8844741");
    ("sum reduce spmd dynamic g2", "c1ab404646e9867280c91ba7dcf607bb");
    ("sum reduce spmd dynamic g8", "900a1db50fed3ce11296cff1a7f8fc01");
    ("sum reduce teams-generic g8", "5a888b5a734c3f445f8d5846a26d2b86");
    ("warm a cold", "0fa8966f43a0514e920495006a01fb92");
    ("warm a 1", "2e40c6abfc4e07eb410338fd74917998");
    ("warm a 2", "3c7c4f75386c6b6818de3f70ea3f41f5");
    ("warm b cold", "c902ac3f75504eda992ee23fcbcd8dcd");
    ("warm a after b", "3c7c4f75386c6b6818de3f70ea3f41f5");
    ("warm a 3", "3c7c4f75386c6b6818de3f70ea3f41f5");
    ("warm a after reset", "0fa8966f43a0514e920495006a01fb92");
    ("warm ideal cold", "9ba026ca4171efd06fc1b75310b6b871");
    ("warm ideal", "9ba026ca4171efd06fc1b75310b6b871");
    ("warm reduction cold", "cf3f2eb3794ac31682a1555f1fdcc343");
    ("warm reduction", "cc06ac53ab0026391867d65668729d77");
    ("warm sweep cold", "6d0982f0a0f26760813665822f51f654");
    ("warm bare block", "7677f2a9393ca4f2daa29875bd1edee7");
    ("warm sweep after bare", "b4164cc20c70b394838cc8aabecb1908");
    ("w64 su3 spmd g8", "537bdbbcf6d91763d6a560faaa15be16");
    ("w64 ideal generic g8", "e208d2b4d08a1dcfd83c2cd06e5ad9fd");
    ("w64 e6 atomic g8", "a60ac41775c3dcb03e82d53762616575");
    ("w64 e6 reduction g8", "74f9d7acf053d573acf8436dd34bc307");
    ("w64 su3 spmd g64", "f4041cf16f92cc30926875a986a15311");
    ("w64 ideal generic g64", "62b55f986ccad8c7116177a122160e3b");
    ("w64 e6 atomic g64", "4538affde952d1a2719f731c048c256e");
    ("w64 e6 reduction g64", "0bd9f33f7472aac62101db0e20e86035");
    ("w32-none su3 spmd g8", "f3be3c70c3adb83fbacbc21c91fc1eeb");
    ("w32-none ideal generic g8", "5f23a199635784bafbe017732420d606");
    ("w32-none e6 reduction g8", "f28010869765fa53a2b6a3b0545fb8c8");
    ("w32-sw su3 spmd g8", "4a5ceaf04db17cf235e7f7c4d4618e70");
    ("w32-sw ideal generic g8", "8c2d5a420a94a5889a9ab4bcd25b3baa");
    ("w32-sw e6 reduction g8", "5ef292601b396ca6bfc636460a4794df");
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
