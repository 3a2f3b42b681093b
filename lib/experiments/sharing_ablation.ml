module Table = Ompsimd_util.Table
module Memory = Gpusim.Memory
module Counters = Gpusim.Counters
module Mode = Omprt.Mode
module Payload = Omprt.Payload
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

type row = {
  sharing_bytes : int;
  group_size : int;
  num_groups : int;
  slice_bytes : int;
  fallbacks : float;
  cycles : float;
}

type t = { rows : row list; payload_args : int }

let payload_args = 12

let run_one ~pool ~cfg ~scale ~sharing_bytes ~group_size =
  let threads = 128 in
  let num_teams = max 1 (int_of_float (64.0 *. scale)) in
  let rows_trip = max 1 (int_of_float (float_of_int (threads * 4) *. scale)) in
  let space = Memory.space () in
  let data = Memory.falloc space 64 in
  let payload =
    Payload.of_list (List.init payload_args (fun _ -> Payload.Farr data))
  in
  let params =
    { Team.num_teams; num_threads = threads; teams_mode = Mode.Spmd; sharing_bytes }
  in
  let report =
    Target.launch ~cfg ?pool ~params ~dispatch_table_size:2 (fun ctx ->
        Parallel.parallel ctx ~mode:Mode.Generic ~simd_len:group_size ~payload
          ~fn_id:0 (fun ctx _ ->
            Workshare.distribute_parallel_for ctx ~trip:rows_trip (fun i ->
                Simd.simd ctx ~payload ~fn_id:1 ~trip:32 (fun ctx j _ ->
                    (* a real load per element: memory latency makes the
                       SIMD groups genuinely overlap, so region-scoped
                       slices from the sharing space are live
                       concurrently — the regime the reservation has to
                       be sized for *)
                    let (_ : float) =
                      Memory.fget data ctx.Team.th ((i + j) land 63)
                    in
                    Team.charge_flops ctx 4))))
  in
  let num_groups = threads / group_size in
  {
    sharing_bytes;
    group_size;
    num_groups;
    slice_bytes = sharing_bytes / (num_groups + 1);
    fallbacks = Counters.get_extra report.Gpusim.Device.counters "sharing.global_fallbacks";
    cycles = report.Gpusim.Device.time_cycles;
  }

let group_sizes_for (_ : Gpusim.Config.t) = [ 2; 4; 8; 16; 32 ]

let run ?(scale = 1.0) ?pool ~cfg () =
  let rows =
    List.concat_map
      (fun sharing_bytes ->
        List.map
          (fun group_size -> run_one ~pool ~cfg ~scale ~sharing_bytes ~group_size)
          (group_sizes_for cfg))
      (* 256 is genuinely undersized (the per-block wave of 96-byte
         payloads peaks above it); 1024 was too small for the old static
         split (a 12-arg payload overflowed its 1024/17-byte slice) but
         holds every live region under dynamic allocation; 2048 is the
         paper's enlarged reservation *)
      [ 256; 1024; 2048 ]
  in
  { rows; payload_args }

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("reserved B", Table.Right);
          ("group", Table.Right);
          ("groups", Table.Right);
          ("slice B", Table.Right);
          ("fallbacks", Table.Right);
          ("cycles", Table.Right);
        ]
  in
  let last = ref (-1) in
  List.iter
    (fun r ->
      if !last >= 0 && !last <> r.sharing_bytes then Table.add_separator table;
      last := r.sharing_bytes;
      Table.add_row table
        [
          Table.cell_int r.sharing_bytes;
          Table.cell_int r.group_size;
          Table.cell_int r.num_groups;
          Table.cell_int r.slice_bytes;
          Table.cell_float ~decimals:0 r.fallbacks;
          Table.cell_float ~decimals:0 r.cycles;
        ])
    t.rows;
  table

let print t =
  Printf.printf
    "E3: variable-sharing space sizing (payload of %d pointer args)\n"
    t.payload_args;
  Table.print (to_table t)
