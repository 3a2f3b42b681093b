module Table = Ompsimd_util.Table
module Harness = Workloads.Harness
module Spmv = Workloads.Spmv

type row = {
  group_size : int;
  atomic_cycles : float;
  reduction_cycles : float;
  improvement : float;
}

type t = { rows : row list }

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

let group_sizes_for = Fig9.group_sizes_for

let run ?(scale = 1.0) ?pool ?group_sizes ~cfg () =
  let group_sizes =
    match group_sizes with
    | Some l -> l
    | None -> Fig9.group_sizes_for cfg
  in
  let shape =
    {
      Spmv.default_shape with
      Spmv.rows = scaled scale 16384;
      cols = scaled scale 16384;
    }
  in
  let t = Spmv.generate shape in
  let num_teams = min 128 shape.Spmv.rows in
  let rows =
    List.map
      (fun group_size ->
        let mode3 = Harness.generic_simd ~group_size in
        let atomic =
          Harness.time (Spmv.run_simd ~cfg ?pool ~num_teams ~threads:128 ~mode3 t)
        in
        let reduction =
          Harness.time
            (Spmv.run_simd_reduction ~cfg ?pool ~num_teams ~threads:128 ~mode3 t)
        in
        {
          group_size;
          atomic_cycles = atomic;
          reduction_cycles = reduction;
          improvement = atomic /. reduction;
        })
      group_sizes
  in
  { rows }

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("group", Table.Right);
          ("atomic cyc", Table.Right);
          ("reduction cyc", Table.Right);
          ("improvement", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Table.cell_int r.group_size;
          Table.cell_float ~decimals:0 r.atomic_cycles;
          Table.cell_float ~decimals:0 r.reduction_cycles;
          Table.cell_float r.improvement ^ "x";
        ])
    t.rows;
  table

let print t =
  print_endline
    "E6: sparse_matvec inner product — atomic update (paper's workaround) \
     vs simd reduction (extension)";
  Table.print (to_table t)
