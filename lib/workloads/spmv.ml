module Prng = Ompsimd_util.Prng
module Memory = Gpusim.Memory
module Mode = Omprt.Mode
module Payload = Omprt.Payload
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

type profile =
  | Uniform of int
  | Banded of { mean : int; spread : int }
  | Power_law of { max_nnz : int; s : float }

type shape = {
  rows : int;
  cols : int;
  profile : profile;
  band : int;
  seed : int;
}

let default_shape =
  {
    rows = 4096;
    cols = 4096;
    profile = Banded { mean = 24; spread = 16 };
    band = 512;
    seed = 1;
  }

type instance = {
  shape : shape;
  row_ptr : Memory.iarray;
  col_idx : Memory.iarray;
  values : Memory.farray;
  x : Memory.farray;
  y : Memory.farray;
  nnz : int;
  lengths : int array;
}

let row_length g profile =
  match profile with
  | Uniform n -> n
  | Banded { mean; spread } ->
      max 0 (Prng.int_in g ~lo:(mean - spread) ~hi:(mean + spread))
  | Power_law { max_nnz; s } -> Prng.zipf g ~n:max_nnz ~s

let generate shape =
  if shape.rows <= 0 || shape.cols <= 0 then
    invalid_arg "Spmv.generate: rows and cols must be positive";
  let g = Prng.create ~seed:shape.seed in
  let lengths = Array.init shape.rows (fun _ -> row_length g shape.profile) in
  let nnz = Array.fold_left ( + ) 0 lengths in
  let row_ptr = Array.make (shape.rows + 1) 0 in
  for r = 0 to shape.rows - 1 do
    row_ptr.(r + 1) <- row_ptr.(r) + lengths.(r)
  done;
  let col_idx = Array.make (max 1 nnz) 0 in
  let values = Array.make (max 1 nnz) 0.0 in
  for r = 0 to shape.rows - 1 do
    for k = row_ptr.(r) to row_ptr.(r + 1) - 1 do
      (* columns land within a band around the diagonal, scaled to cols *)
      let center = r * shape.cols / shape.rows in
      let lo = max 0 (center - shape.band) in
      let hi = min (shape.cols - 1) (center + shape.band) in
      col_idx.(k) <- Prng.int_in g ~lo ~hi;
      values.(k) <- Prng.float g 2.0 -. 1.0
    done
  done;
  let space = Memory.space () in
  {
    shape;
    row_ptr = Memory.of_int_array space row_ptr;
    col_idx = Memory.of_int_array space col_idx;
    values = Memory.of_float_array space values;
    x = Memory.of_float_array space (Array.init shape.cols (fun i -> sin (float_of_int i)));
    y = Memory.falloc space shape.rows;
    nnz;
    lengths;
  }

let shape_of t = t.shape
let nnz t = t.nnz
let row_lengths t = Array.copy t.lengths

let reference t =
  let row_ptr = Memory.to_int_array t.row_ptr in
  let col_idx = Memory.to_int_array t.col_idx in
  let values = Memory.to_float_array t.values in
  let x = Memory.to_float_array t.x in
  Array.init t.shape.rows (fun r ->
      let acc = ref 0.0 in
      for k = row_ptr.(r) to row_ptr.(r + 1) - 1 do
        acc := !acc +. (values.(k) *. x.(col_idx.(k)))
      done;
      !acc)

(* Every outlined function here declares the five CSR arrays plus four
   scalar slots (the row count and three loop-state slots) — nine
   pointer-sized slots, which is what makes the sharing-space slice size
   matter at large group counts (§5.3.1): at 2 KiB split over 33+
   groups a slice can no longer hold this payload and every simd region
   pays the global fallback.  The model prices the count only; the
   bodies capture what they read by closure. *)
let payload = Payload.slots 9

(* One nonzero: load value and column, gather x, multiply-accumulate. *)
let element ctx ~k ~row t =
  let th = ctx.Team.th in
  let v = Memory.fget t.values th k in
  let c = Memory.iget t.col_idx th k in
  let xv = Memory.fget t.x th c in
  Team.charge_flops ctx 2;
  Memory.atomic_fadd t.y th row (v *. xv)

let result t report =
  { Harness.report; output = Memory.to_float_array t.y }

let run_two_level ~cfg ?pool ?trace ?(reset_l2 = true) ?(num_teams = 256) ?(threads = 32) t =
  if reset_l2 then Memory.l2_reset (Memory.space_of_farray t.y);
  Memory.fill t.y 0.0;
  let params =
    {
      Team.num_teams;
      num_threads = threads;
      teams_mode = Mode.Generic;
      sharing_bytes = Omprt.Sharing.default_bytes;
    }
  in
  let report =
    Target.launch ~cfg ?pool ?trace ~params ~dispatch_table_size:2 (fun ctx ->
        (* teams distribute over rows: the team main walks its rows and
           opens a parallel region per row (generic teams mode). *)
        Workshare.distribute ctx ~trip:t.shape.rows (fun row ->
            let th = ctx.Team.th in
            let lo = Memory.iget t.row_ptr th row in
            let hi = Memory.iget t.row_ptr th (row + 1) in
            Parallel.parallel ctx ~mode:Mode.Spmd ~simd_len:1 ~payload
              ~fn_id:0 (fun ctx ->
                Workshare.omp_for ctx ~trip:(hi - lo) (fun j ->
                    element ctx ~k:(lo + j) ~row t))))
  in
  result t report

let run_simd ~cfg ?pool ?trace ?(reset_l2 = true) ?(num_teams = 256) ?(threads = 128)
    ?(schedule = Workshare.Static) ~(mode3 : Harness.mode3) t =
  if reset_l2 then Memory.l2_reset (Memory.space_of_farray t.y);
  Memory.fill t.y 0.0;
  let params =
    {
      Team.num_teams;
      num_threads = threads;
      teams_mode = mode3.Harness.teams_mode;
      sharing_bytes = Omprt.Sharing.default_bytes;
    }
  in
  let report =
    Target.launch ~cfg ?pool ?trace ~params ~dispatch_table_size:2 (fun ctx ->
        Parallel.parallel ctx ~last:true ~mode:mode3.Harness.parallel_mode
          ~simd_len:mode3.Harness.group_size ~payload ~fn_id:0 (fun ctx ->
            Workshare.distribute_parallel_for ctx ~schedule ~trip:t.shape.rows
              (fun row ->
                let th = ctx.Team.th in
                let lo = Memory.iget t.row_ptr th row in
                let hi = Memory.iget t.row_ptr th (row + 1) in
                Simd.simd ctx ~payload ~fn_id:1 ~trip:(hi - lo)
                  (fun ctx j -> element ctx ~k:(lo + j) ~row t))))
  in
  result t report

let run_simd_reduction ~cfg ?pool ?trace ?(reset_l2 = true) ?(num_teams = 256) ?(threads = 128)
    ~(mode3 : Harness.mode3) t =
  if reset_l2 then Memory.l2_reset (Memory.space_of_farray t.y);
  Memory.fill t.y 0.0;
  let params =
    {
      Team.num_teams;
      num_threads = threads;
      teams_mode = mode3.Harness.teams_mode;
      sharing_bytes = Omprt.Sharing.default_bytes;
    }
  in
  let report =
    Target.launch ~cfg ?pool ?trace ~params ~dispatch_table_size:2 (fun ctx ->
        Parallel.parallel ctx ~last:true ~mode:mode3.Harness.parallel_mode
          ~simd_len:mode3.Harness.group_size ~payload ~fn_id:0 (fun ctx ->
            Workshare.distribute_parallel_for ctx ~trip:t.shape.rows
              (fun row ->
                let th = ctx.Team.th in
                let lo = Memory.iget t.row_ptr th row in
                let hi = Memory.iget t.row_ptr th (row + 1) in
                let dot =
                  Simd.simd_sum ctx ~payload ~fn_id:1 ~trip:(hi - lo)
                    (fun ctx j ->
                      let th = ctx.Team.th in
                      let k = lo + j in
                      let v = Memory.fget t.values th k in
                      let c = Memory.iget t.col_idx th k in
                      let xv = Memory.fget t.x th c in
                      Team.charge_flops ctx 2;
                      Simd.fold ctx (v *. xv))
                in
                (* single store per row: in SPMD mode every lane holds the
                   total, so only the group leader writes *)
                let g = Team.geometry ctx.Team.team in
                if
                  Omprt.Simd_group.is_simd_group_leader g
                    ~tid:th.Gpusim.Thread.tid
                then Memory.fset t.y th row dot)))
  in
  result t report

let verify t output =
  Harness.verify_close ~tolerance:1e-6 ~expected:(reference t) output
