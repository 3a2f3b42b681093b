module Table = Ompsimd_util.Table
module Harness = Workloads.Harness
module Spmv = Workloads.Spmv

type row = { matrix : string; schedule : string; cycles : float; relative : float }
type t = { rows : row list }

let schedules =
  [
    ("static", Omprt.Workshare.Static);
    ("static,4", Omprt.Workshare.Chunked 4);
    ("dynamic,1", Omprt.Workshare.Dynamic 1);
    ("dynamic,4", Omprt.Workshare.Dynamic 4);
  ]

let group_size = 8
let group_sizes_for (_ : Gpusim.Config.t) = [ group_size ]

let matrix_rows ~pool ~cfg ~scale ~name ~profile =
  let teams = 4 * cfg.Gpusim.Config.num_sms in
  let rows = max 64 (int_of_float (float_of_int (teams * 128) *. scale)) in
  let t =
    Spmv.generate
      { Spmv.rows; cols = rows; profile; band = 512; seed = 7 }
  in
  let time schedule =
    (* warm L2 measurement, as in E1 *)
    let (_ : Harness.run) =
      Spmv.run_simd ~cfg ?pool ~reset_l2:true ~num_teams:teams ~threads:128 ~schedule
        ~mode3:(Harness.generic_simd ~group_size) t
    in
    Harness.time
      (Spmv.run_simd ~cfg ?pool ~reset_l2:false ~num_teams:teams ~threads:128
         ~schedule ~mode3:(Harness.generic_simd ~group_size) t)
  in
  let static_cycles = time Omprt.Workshare.Static in
  List.map
    (fun (label, schedule) ->
      let cycles =
        if schedule = Omprt.Workshare.Static then static_cycles
        else time schedule
      in
      { matrix = name; schedule = label; cycles; relative = static_cycles /. cycles })
    schedules

let run ?(scale = 1.0) ?pool ~cfg () =
  {
    rows =
      matrix_rows ~pool ~cfg ~scale ~name:"power-law"
        ~profile:(Spmv.Power_law { max_nnz = 256; s = 1.1 })
      @ matrix_rows ~pool ~cfg ~scale ~name:"uniform"
          ~profile:(Spmv.Uniform 24);
  }

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("matrix", Table.Left);
          ("schedule", Table.Left);
          ("cycles", Table.Right);
          ("speedup vs static", Table.Right);
        ]
  in
  let last = ref "" in
  List.iter
    (fun r ->
      if !last <> "" && !last <> r.matrix then Table.add_separator table;
      last := r.matrix;
      Table.add_row table
        [
          r.matrix;
          r.schedule;
          Table.cell_float ~decimals:0 r.cycles;
          Table.cell_float ~decimals:3 r.relative;
        ])
    t.rows;
  table

let print t =
  print_endline
    "E9: loop schedules under row-length imbalance (sparse_matvec, \
     generic-SIMD, group size 8)";
  Table.print (to_table t)
