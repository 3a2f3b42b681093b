module Table = Ompsimd_util.Table
module Harness = Workloads.Harness
module Spmv = Workloads.Spmv
module Su3 = Workloads.Su3
module Ideal = Workloads.Ideal

type row = {
  kernel : string;
  group_size : int;
  baseline_cycles : float;
  simd_cycles : float;
  speedup : float;
}

type t = { rows : row list; group_sizes : int list }

let group_sizes = [ 2; 4; 8; 16; 32 ]

(* On non-32-wide zoo devices the paper's sweep keeps its shape but only
   group sizes dividing the warp are legal (a group never spans warps). *)
let group_sizes_for (cfg : Gpusim.Config.t) =
  let ws = cfg.Gpusim.Config.warp_size in
  List.filter (fun g -> g <= ws && ws mod g = 0) [ 2; 4; 8; 16; 32; 64 ]

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

(* Problem sizes derive from the device so the sweep is shape-faithful on
   scaled-down configurations: enough work to fill every SM in the
   three-level variants, and a fixed team count across variants (§6.4's
   methodology applied to Fig 9 as well). *)
let teams_of (cfg : Gpusim.Config.t) = 4 * cfg.Gpusim.Config.num_sms
let lanes_of cfg = teams_of cfg * 128

(* sparse_matvec: two-level baseline is teams-generic distribute +
   32-thread parallel-for per row; the simd variant is teams-SPMD with a
   generic parallel region (§6.3). *)
(* The paper reports the average of 10 runs: caches are warm, so every
   measurement below is the second run over the same data (the first one
   warms the L2). *)
let warm_measure run =
  let (_ : Harness.run) = run ~reset_l2:true in
  Harness.time (run ~reset_l2:false)

let spmv_rows ~pool ~scale ~cfg ~group_sizes =
  (* the simd variants launch 8 blocks per SM (realistic occupancy for
     latency staggering); the 32-thread two-level teams are much smaller,
     so the original code launches proportionally more of them.  The
     matrix is sized to stay L2-resident across the averaged runs. *)
  let num_teams = 2 * teams_of cfg in
  let rows = scaled scale (num_teams * 64) in
  let shape =
    {
      Spmv.default_shape with
      Spmv.rows;
      cols = rows;
      profile = Spmv.Banded { mean = 24; spread = 16 };
    }
  in
  let t = Spmv.generate shape in
  (* the two-level code launches many small teams, as the original
     OpenACC-derived source does: ~32 rows per 32-thread team *)
  let baseline_teams = min rows (3 * num_teams) in
  let baseline_threads = max 32 cfg.Gpusim.Config.warp_size in
  let baseline =
    warm_measure (fun ~reset_l2 ->
        Spmv.run_two_level ~cfg ?pool ~reset_l2 ~num_teams:baseline_teams
          ~threads:baseline_threads t)
  in
  List.map
    (fun group_size ->
      let simd =
        warm_measure (fun ~reset_l2 ->
            Spmv.run_simd ~cfg ?pool ~reset_l2 ~num_teams ~threads:128
              ~mode3:(Harness.generic_simd ~group_size) t)
      in
      {
        kernel = "sparse_matvec";
        group_size;
        baseline_cycles = baseline;
        simd_cycles = simd;
        speedup = baseline /. simd;
      })
    group_sizes

(* su3_bench: teams and parallel both SPMD; baseline is the same kernel
   with the 36-iteration loop serial in each thread (group size 1). *)
let su3_rows ~pool ~scale ~cfg ~group_sizes =
  let t = Su3.generate { Su3.sites = scaled scale (2 * lanes_of cfg); seed = 2 } in
  let num_teams = teams_of cfg in
  let baseline =
    Harness.time (Su3.run_two_level ~cfg ?pool ~num_teams ~threads:128 t)
  in
  List.map
    (fun group_size ->
      let r =
        Su3.run ~cfg ?pool ~num_teams ~threads:128
          ~mode3:(Harness.spmd_simd ~group_size) t
      in
      let simd = Harness.time r in
      {
        kernel = "su3_bench";
        group_size;
        baseline_cycles = baseline;
        simd_cycles = simd;
        speedup = baseline /. simd;
      })
    group_sizes

(* ideal kernel: teams SPMD, parallel generic (§6.3). *)
(* The ideal kernel's outer loop is deliberately too small to fill the
   device two-level (the §1 "thread level does not provide enough
   parallelism" scenario): the third level is what recovers occupancy. *)
let ideal_rows ~pool ~scale ~cfg ~group_sizes =
  let t =
    Ideal.generate
      { Ideal.default_shape with Ideal.rows = scaled scale (lanes_of cfg / 4) }
  in
  let num_teams = teams_of cfg in
  let baseline =
    warm_measure (fun ~reset_l2 ->
        Ideal.run ~cfg ?pool ~reset_l2 ~num_teams ~threads:128
          ~mode3:(Harness.spmd_simd ~group_size:1) t)
  in
  List.map
    (fun group_size ->
      let simd =
        warm_measure (fun ~reset_l2 ->
            Ideal.run ~cfg ?pool ~reset_l2 ~num_teams ~threads:128
              ~mode3:(Harness.generic_simd ~group_size) t)
      in
      {
        kernel = "ideal_kernel";
        group_size;
        baseline_cycles = baseline;
        simd_cycles = simd;
        speedup = baseline /. simd;
      })
    group_sizes

let run ?(scale = 1.0) ?pool ?group_sizes:gs ~cfg () =
  let group_sizes =
    match gs with Some l -> l | None -> group_sizes_for cfg
  in
  {
    rows =
      List.concat
        [
          spmv_rows ~pool ~scale ~cfg ~group_sizes;
          su3_rows ~pool ~scale ~cfg ~group_sizes;
          ideal_rows ~pool ~scale ~cfg ~group_sizes;
        ];
    group_sizes;
  }

let best t ~kernel =
  let candidates = List.filter (fun r -> r.kernel = kernel) t.rows in
  match candidates with
  | [] -> raise Not_found
  | first :: rest ->
      List.fold_left (fun acc r -> if r.speedup > acc.speedup then r else acc)
        first rest

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("kernel", Table.Left);
          ("group", Table.Right);
          ("baseline cyc", Table.Right);
          ("simd cyc", Table.Right);
          ("speedup", Table.Right);
        ]
  in
  let last_kernel = ref "" in
  List.iter
    (fun r ->
      if !last_kernel <> "" && !last_kernel <> r.kernel then
        Table.add_separator table;
      last_kernel := r.kernel;
      Table.add_row table
        [
          r.kernel;
          Table.cell_int r.group_size;
          Table.cell_float ~decimals:0 r.baseline_cycles;
          Table.cell_float ~decimals:0 r.simd_cycles;
          Table.cell_float r.speedup ^ "x";
        ])
    t.rows;
  table

let to_csv t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "kernel,group_size,baseline_cycles,simd_cycles,speedup\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%.0f,%.0f,%.4f\n" r.kernel r.group_size
           r.baseline_cycles r.simd_cycles r.speedup))
    t.rows;
  Buffer.contents buf

let print t =
  print_endline
    "Fig 9: speedup of three-level simd over the two-level baseline";
  Table.print (to_table t)
