(* Structural tests over the experiment harnesses: each experiment must
   produce the right series shape and reproduce the paper's qualitative
   orderings at reduced scale. *)

module Config = Gpusim.Config
module Fig9 = Experiments.Fig9
module Fig10 = Experiments.Fig10
module Sharing_ablation = Experiments.Sharing_ablation
module Dispatch_ablation = Experiments.Dispatch_ablation
module Amd_mode = Experiments.Amd_mode
module Reduction_ablation = Experiments.Reduction_ablation
module Teams_mode_ablation = Experiments.Teams_mode_ablation
module Spmdization_ablation = Experiments.Spmdization_ablation
module Schedule_ablation = Experiments.Schedule_ablation

let cfg = Config.small
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* fig9 at reduced scale: slow but bounded; share one run *)
let fig9_result = lazy (Fig9.run ~scale:0.25 ~cfg ())

let test_fig9_shape () =
  let r = Lazy.force fig9_result in
  check_int "3 kernels x 5 group sizes" 15 (List.length r.Fig9.rows);
  List.iter
    (fun (row : Fig9.row) ->
      check_bool "positive cycles" true
        (row.Fig9.baseline_cycles > 0.0 && row.Fig9.simd_cycles > 0.0))
    r.Fig9.rows

let test_fig9_simd_wins () =
  let r = Lazy.force fig9_result in
  List.iter
    (fun kernel ->
      let best = Fig9.best r ~kernel in
      check_bool
        (Printf.sprintf "%s best simd beats baseline" kernel)
        true (best.Fig9.speedup > 1.0))
    [ "sparse_matvec"; "su3_bench"; "ideal_kernel" ]

let test_fig9_spmv_bell () =
  (* the paper's crossover: mid group sizes beat the extremes *)
  let r = Lazy.force fig9_result in
  let speedup gs =
    let row =
      List.find
        (fun (x : Fig9.row) ->
          x.Fig9.kernel = "sparse_matvec" && x.Fig9.group_size = gs)
        r.Fig9.rows
    in
    row.Fig9.speedup
  in
  check_bool "8 beats 2" true (speedup 8 > speedup 2);
  check_bool "8 beats 32" true (speedup 8 > speedup 32)

let fig10_result = lazy (Fig10.run ~scale:0.5 ~cfg ())

let test_fig10_shape () =
  let r = Lazy.force fig10_result in
  check_int "3 kernels x 3 modes" 9 (List.length r.Fig10.rows);
  List.iter
    (fun kernel ->
      Alcotest.check (Alcotest.float 1e-9) "baseline is 1.0" 1.0
        (Fig10.relative r ~kernel Fig10.No_simd))
    [ "laplace3d"; "muram_transpose"; "muram_interpol" ]

let test_fig10_generic_trails_spmd () =
  let r = Lazy.force fig10_result in
  List.iter
    (fun kernel ->
      let spmd = Fig10.relative r ~kernel Fig10.Spmd_simd in
      let generic = Fig10.relative r ~kernel Fig10.Generic_simd in
      check_bool
        (Printf.sprintf "%s: generic slower than spmd" kernel)
        true
        (generic < spmd))
    [ "laplace3d"; "muram_transpose"; "muram_interpol" ]

let test_sharing_ablation () =
  let r = Sharing_ablation.run ~scale:0.25 ~cfg () in
  check_int "3 sizes x 5 groups" 15 (List.length r.Sharing_ablation.rows);
  (* larger reservations never fall back more often at the same group size *)
  List.iter
    (fun gs ->
      let fallbacks bytes =
        let row =
          List.find
            (fun (x : Sharing_ablation.row) ->
              x.Sharing_ablation.sharing_bytes = bytes
              && x.Sharing_ablation.group_size = gs)
            r.Sharing_ablation.rows
        in
        row.Sharing_ablation.fallbacks
      in
      check_bool "monotone in reservation" true
        (fallbacks 256 >= fallbacks 1024 && fallbacks 1024 >= fallbacks 2048))
    [ 2; 4; 8; 16; 32 ];
  let find bytes gs =
    List.find
      (fun (x : Sharing_ablation.row) ->
        x.Sharing_ablation.sharing_bytes = bytes
        && x.Sharing_ablation.group_size = gs)
      r.Sharing_ablation.rows
  in
  (* a genuinely undersized slab still overflows: the per-block wave of
     96-byte payloads peaks above 256 B *)
  check_bool "256B/gs8 falls back" true
    ((find 256 8).Sharing_ablation.fallbacks > 0.0);
  (* the dynamic allocator's win: a 12-arg payload overflowed the old
     static 1024/17-byte slice, but the live regions fit 1024 B when
     granted on demand *)
  check_bool "1024B/gs8 static slice too small" true
    ((find 1024 8).Sharing_ablation.slice_bytes < 96);
  check_bool "1024B/gs8 fits dynamically" true
    ((find 1024 8).Sharing_ablation.fallbacks = 0.0);
  (* the paper's enlarged reservation is roomy either way *)
  check_bool "2048B/gs8 fits" true
    ((find 2048 8).Sharing_ablation.fallbacks = 0.0)

let test_dispatch_ablation () =
  let r = Dispatch_ablation.run ~scale:0.25 ~cfg () in
  (* within each table size: deeper cascade entries cost more, and the
     indirect fallback costs more than the front entry *)
  List.iter
    (fun table_size ->
      let rows =
        List.filter
          (fun (x : Dispatch_ablation.row) ->
            x.Dispatch_ablation.table_size = table_size)
          r.Dispatch_ablation.rows
      in
      let cycles fn_id =
        (List.find
           (fun (x : Dispatch_ablation.row) -> x.Dispatch_ablation.fn_id = fn_id)
           rows)
          .Dispatch_ablation.cycles
      in
      check_bool "indirect > front entry" true (cycles (-1) > cycles 0);
      if table_size > 1 then
        check_bool "cascade cost grows" true
          (cycles (table_size - 1) > cycles 0))
    [ 1; 8; 32 ]

let test_amd_mode () =
  let r = Amd_mode.run ~scale:0.02 () in
  let speedup device mode kernel =
    (List.find
       (fun (x : Amd_mode.row) ->
         x.Amd_mode.device = device && x.Amd_mode.mode = mode
         && x.Amd_mode.kernel = kernel)
       r.Amd_mode.rows)
      .Amd_mode.speedup
  in
  List.iter
    (fun kernel ->
      (* on AMD the generic mode loses (sequential simd loops) while
         SPMD survives at NVIDIA-like speedups *)
      check_bool "amd generic loses its benefit" true
        (speedup "sim-amd" "generic-SIMD" kernel
        < speedup "sim-amd" "SPMD-SIMD" kernel);
      check_bool "amd spmd close to nvidia spmd" true
        (abs_float
           (speedup "sim-amd" "SPMD-SIMD" kernel
           -. speedup "sim-a100" "SPMD-SIMD" kernel)
        < 0.5))
    [ "sparse_matvec"; "ideal_kernel" ]

let test_reduction_ablation () =
  let r = Reduction_ablation.run ~scale:0.1 ~cfg () in
  check_int "5 group sizes" 5 (List.length r.Reduction_ablation.rows);
  List.iter
    (fun (row : Reduction_ablation.row) ->
      check_bool "reduction never slower" true
        (row.Reduction_ablation.improvement >= 0.95))
    r.Reduction_ablation.rows

let test_teams_mode_ablation () =
  let r = Teams_mode_ablation.run ~scale:0.1 ~cfg () in
  match r.Teams_mode_ablation.rows with
  | [ spmd; generic ] ->
      check_bool "extra warp" true
        (generic.Teams_mode_ablation.block_threads
        = spmd.Teams_mode_ablation.block_threads + 32);
      check_bool "occupancy drops" true
        (generic.Teams_mode_ablation.resident_blocks
        <= spmd.Teams_mode_ablation.resident_blocks)
  | _ -> Alcotest.fail "two rows expected"

let test_spmdization_ablation () =
  let r = Spmdization_ablation.run ~scale:0.25 ~cfg () in
  match r.Spmdization_ablation.rows with
  | [ generic; guarded; tight ] ->
      check_bool "guard inserted" true (guarded.Spmdization_ablation.guards > 0);
      (* §6.5's ordering: tight >= guarded > generic *)
      check_bool "guarded beats generic" true
        (guarded.Spmdization_ablation.cycles < generic.Spmdization_ablation.cycles);
      check_bool "tight at least as good as guarded" true
        (tight.Spmdization_ablation.cycles
        <= guarded.Spmdization_ablation.cycles *. 1.02)
  | _ -> Alcotest.fail "three variants expected"

let test_schedule_ablation () =
  let r = Schedule_ablation.run ~scale:0.25 ~cfg () in
  let rel matrix schedule =
    (List.find
       (fun (x : Schedule_ablation.row) ->
         x.Schedule_ablation.matrix = matrix
         && x.Schedule_ablation.schedule = schedule)
       r.Schedule_ablation.rows)
      .Schedule_ablation.relative
  in
  check_bool "dynamic wins under imbalance" true
    (rel "power-law" "dynamic,1" > 1.0);
  check_bool "dynamic pays on uniform work" true
    (rel "uniform" "dynamic,1" < 1.05)

(* zoo sweep smoke: one swept device at tiny scale must produce a
   verdict per claim, each with per-kernel detail, and inversions must
   agree with the holds flags.  w32-hw is the paper's own shape, so all
   three claims are expected to hold there. *)
let test_zoo_sweep_smoke () =
  let entries =
    List.filter
      (fun (e : Gpusim.Zoo.entry) -> e.Gpusim.Zoo.name = "w32-hw")
      Gpusim.Zoo.sweep
  in
  check_int "w32-hw exists" 1 (List.length entries);
  let t = Experiments.Zoo_sweep.run ~scale:0.1 ~entries () in
  check_int "one row" 1 (List.length t.Experiments.Zoo_sweep.rows);
  let row = List.hd t.Experiments.Zoo_sweep.rows in
  Alcotest.(check (list string))
    "verdict labels follow the claim list" Experiments.Zoo_sweep.claims
    (List.map
       (fun (v : Experiments.Zoo_sweep.verdict) -> v.Experiments.Zoo_sweep.claim)
       row.Experiments.Zoo_sweep.verdicts);
  List.iter
    (fun (v : Experiments.Zoo_sweep.verdict) ->
      check_bool
        (v.Experiments.Zoo_sweep.claim ^ " has detail")
        true
        (String.length v.Experiments.Zoo_sweep.detail > 0);
      check_bool
        (v.Experiments.Zoo_sweep.claim ^ " holds on the paper shape")
        true v.Experiments.Zoo_sweep.holds)
    row.Experiments.Zoo_sweep.verdicts;
  check_int "no inversions on w32-hw" 0
    (List.length (Experiments.Zoo_sweep.inversions t))

let suite =
  [
    ( "experiments.fig9",
      [
        Alcotest.test_case "shape" `Slow test_fig9_shape;
        Alcotest.test_case "simd wins" `Slow test_fig9_simd_wins;
        Alcotest.test_case "spmv bell" `Slow test_fig9_spmv_bell;
      ] );
    ( "experiments.fig10",
      [
        Alcotest.test_case "shape" `Slow test_fig10_shape;
        Alcotest.test_case "generic trails spmd" `Slow
          test_fig10_generic_trails_spmd;
      ] );
    ( "experiments.ablations",
      [
        Alcotest.test_case "sharing (E3)" `Slow test_sharing_ablation;
        Alcotest.test_case "dispatch (E4)" `Slow test_dispatch_ablation;
        Alcotest.test_case "amd (E5)" `Slow test_amd_mode;
        Alcotest.test_case "reduction (E6)" `Slow test_reduction_ablation;
        Alcotest.test_case "teams mode (E7)" `Slow test_teams_mode_ablation;
        Alcotest.test_case "spmdization (E8)" `Slow test_spmdization_ablation;
        Alcotest.test_case "schedule (E9)" `Slow test_schedule_ablation;
      ] );
    ( "experiments.zoo",
      [ Alcotest.test_case "sweep smoke" `Quick test_zoo_sweep_smoke ] );
  ]
