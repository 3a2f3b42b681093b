module Table = Ompsimd_util.Table
module Harness = Workloads.Harness
module Laplace3d = Workloads.Laplace3d
module Muram = Workloads.Muram

type mode_kind = No_simd | Spmd_simd | Generic_simd

let mode_name = function
  | No_simd -> "No SIMD"
  | Spmd_simd -> "SPMD SIMD"
  | Generic_simd -> "generic SIMD"

type row = {
  kernel : string;
  mode : mode_kind;
  cycles : float;
  relative : float;
}

type t = { rows : row list }

let scaled scale n = max 3 (int_of_float (float_of_int n *. scale))

(* Keep the grid consistent across modes (§6.4) and sized so that the
   No-SIMD variant fills the device: one (i,j) column per OpenMP thread
   at group size one. *)
let teams_of (cfg : Gpusim.Config.t) = 2 * cfg.Gpusim.Config.num_sms

let mode3_of ~group_size = function
  | No_simd -> Harness.spmd_simd ~group_size:1
  | Spmd_simd -> Harness.spmd_simd ~group_size
  | Generic_simd -> Harness.generic_simd ~group_size

(* Cold-cache measurement: the production fields these kernels sweep are
   far larger than the L2, so the steady-state regime of the real runs is
   the cold (DRAM-streaming) one — unlike sparse_matvec, whose matrix is
   L2-resident across the paper's averaged runs. *)
let kernel_rows ~kernel ~runner ~group_size =
  let modes = [ No_simd; Spmd_simd; Generic_simd ] in
  let cycles =
    List.map
      (fun m -> (m, runner ~reset_l2:true (mode3_of ~group_size m)))
      modes
  in
  let base =
    match List.assoc_opt No_simd cycles with
    | Some c -> c
    | None -> assert false
  in
  List.map
    (fun (mode, c) -> { kernel; mode; cycles = c; relative = base /. c })
    cycles

let default_group_size = 32
let group_sizes_for (_ : Gpusim.Config.t) = [ default_group_size ]

let run ?(scale = 1.0) ?(group_size = default_group_size) ?pool ~cfg () =
  (* The number of teams and threads-per-team is kept consistent across
     modes (§6.4); only the loop structure changes. *)
  let num_teams = teams_of cfg in
  let threads = 128 in
  let columns = scaled scale (num_teams * threads) in
  (* laplace iterates the interior only; muram the full box *)
  let interior = int_of_float (ceil (sqrt (float_of_int columns))) in
  let laplace = Laplace3d.generate { Laplace3d.n = interior + 2; seed = 4 } in
  let muram =
    Muram.generate { Muram.ni = interior; nj = interior; nk = 48; seed = 5 }
  in
  let rows =
    List.concat
      [
        kernel_rows ~kernel:"laplace3d" ~group_size ~runner:(fun ~reset_l2 mode3 ->
            Harness.time
              (Laplace3d.run ~cfg ?pool ~reset_l2 ~num_teams ~threads ~mode3 laplace));
        kernel_rows ~kernel:"muram_transpose" ~group_size
          ~runner:(fun ~reset_l2 mode3 ->
            Harness.time
              (Muram.run_transpose ~cfg ?pool ~reset_l2 ~num_teams ~threads ~mode3 muram));
        kernel_rows ~kernel:"muram_interpol" ~group_size
          ~runner:(fun ~reset_l2 mode3 ->
            Harness.time
              (Muram.run_interpol ~cfg ?pool ~reset_l2 ~num_teams ~threads ~mode3 muram));
      ]
  in
  { rows }

let relative t ~kernel mode =
  match
    List.find_opt (fun r -> r.kernel = kernel && r.mode = mode) t.rows
  with
  | Some r -> r.relative
  | None -> raise Not_found

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("kernel", Table.Left);
          ("mode", Table.Left);
          ("cycles", Table.Right);
          ("relative speedup", Table.Right);
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
          mode_name r.mode;
          Table.cell_float ~decimals:0 r.cycles;
          Table.cell_float ~decimals:3 r.relative;
        ])
    t.rows;
  table

let to_csv t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "kernel,mode,cycles,relative_speedup\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%.0f,%.4f\n" r.kernel (mode_name r.mode)
           r.cycles r.relative))
    t.rows;
  Buffer.contents buf

let print t =
  print_endline
    "Fig 10: relative speedup of simd execution modes vs the No-SIMD \
     two-level configuration (group size 32)";
  Table.print (to_table t)
