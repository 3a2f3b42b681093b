module Table = Ompsimd_util.Table
module Mode = Omprt.Mode
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

type row = { table_size : int; fn_id : int; cycles : float }
type t = { rows : row list }

let group_size = 8
let group_sizes_for (_ : Gpusim.Config.t) = [ group_size ]

let run_one ~pool ~cfg ~scale ~table_size ~fn_id =
  let num_teams = max 1 (int_of_float (64.0 *. scale)) in
  let threads = 128 in
  let regions = max 1 (int_of_float (float_of_int (threads * 8) *. scale)) in
  let params =
    {
      Team.num_teams;
      num_threads = threads;
      teams_mode = Mode.Spmd;
      sharing_bytes = Omprt.Sharing.default_bytes;
    }
  in
  let report =
    Target.launch ~cfg ?pool ~params ~dispatch_table_size:table_size (fun ctx ->
        Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:group_size ~fn_id:0
          (fun ctx _ ->
            (* many tiny simd regions: dispatch dominates *)
            Workshare.distribute_parallel_for ctx ~trip:regions (fun _ ->
                Simd.simd ctx ~fn_id ~trip:8 (fun ctx _ _ ->
                    Team.charge_flops ctx 1))))
  in
  { table_size; fn_id; cycles = report.Gpusim.Device.time_cycles }

let run ?(scale = 1.0) ?pool ~cfg () =
  let rows =
    List.concat_map
      (fun table_size ->
        let positions =
          [ 0; table_size / 2; table_size - 1 ]
          |> List.sort_uniq compare
          |> List.filter (fun p -> p >= 0 && p < table_size)
        in
        List.map
          (fun fn_id -> run_one ~pool ~cfg ~scale ~table_size ~fn_id)
          positions
        @ [ run_one ~pool ~cfg ~scale ~table_size ~fn_id:(-1) ])
      [ 1; 8; 32 ]
  in
  { rows }

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("cascade size", Table.Right);
          ("region position", Table.Left);
          ("cycles", Table.Right);
        ]
  in
  let last = ref (-1) in
  List.iter
    (fun r ->
      if !last >= 0 && !last <> r.table_size then Table.add_separator table;
      last := r.table_size;
      Table.add_row table
        [
          Table.cell_int r.table_size;
          (if r.fn_id < 0 then "indirect (not in table)"
           else Printf.sprintf "cascade entry %d" r.fn_id);
          Table.cell_float ~decimals:0 r.cycles;
        ])
    t.rows;
  table

let print t =
  print_endline "E4: outlined-region dispatch — if-cascade vs indirect call";
  Table.print (to_table t)
