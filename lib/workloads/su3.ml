module Prng = Ompsimd_util.Prng
module Memory = Gpusim.Memory
module Mode = Omprt.Mode
module Payload = Omprt.Payload
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

type shape = { sites : int; seed : int }

let default_shape = { sites = 4096; seed = 2 }
let inner_trip = 36

(* Complex 3x3 matrices stored as interleaved re/im doubles.
   A: sites x 4 x 9 x 2, B: 4 x 9 x 2 (shared across sites), C like A. *)
type instance = {
  shape : shape;
  a : Memory.farray;
  b : Memory.farray;
  c : Memory.farray;
}

let a_floats sites = sites * 4 * 9 * 2
let b_floats = 4 * 9 * 2

let generate shape =
  if shape.sites <= 0 then invalid_arg "Su3.generate: sites must be positive";
  let g = Prng.create ~seed:shape.seed in
  let space = Memory.space () in
  let rand n = Array.init n (fun _ -> Prng.float g 2.0 -. 1.0) in
  {
    shape;
    a = Memory.of_float_array space (rand (a_floats shape.sites));
    b = Memory.of_float_array space (rand b_floats);
    c = Memory.falloc space (a_floats shape.sites);
  }

let shape_of t = t.shape

(* Index helpers over the flattened complex layout. *)
let a_idx ~site ~dir ~i ~k = 2 * ((((site * 4) + dir) * 9) + (i * 3) + k)
let b_idx ~dir ~k ~j = 2 * ((dir * 9) + (k * 3) + j)
let c_idx = a_idx

let reference t =
  let a = Memory.to_float_array t.a in
  let b = Memory.to_float_array t.b in
  let c = Array.make (a_floats t.shape.sites) 0.0 in
  for site = 0 to t.shape.sites - 1 do
    for dir = 0 to 3 do
      for i = 0 to 2 do
        for j = 0 to 2 do
          let re = ref 0.0 and im = ref 0.0 in
          for k = 0 to 2 do
            let ai = a_idx ~site ~dir ~i ~k and bi = b_idx ~dir ~k ~j in
            let ar = a.(ai) and ai' = a.(ai + 1) in
            let br = b.(bi) and bi' = b.(bi + 1) in
            re := !re +. ((ar *. br) -. (ai' *. bi'));
            im := !im +. ((ar *. bi') +. (ai' *. br))
          done;
          let ci = c_idx ~site ~dir ~i ~k:j in
          c.(ci) <- !re;
          c.(ci + 1) <- !im
        done
      done
    done
  done;
  c

(* One of the 36 inner iterations: decode (dir, i, j), do the 3-term
   complex dot product. *)
let element ctx ~site ~e t =
  let th = ctx.Team.th in
  let dir = e / 9 in
  let rem = e mod 9 in
  let i = rem / 3 and j = rem mod 3 in
  Team.charge_alu ctx 4 (* index decode *);
  let re = ref 0.0 and im = ref 0.0 in
  for k = 0 to 2 do
    let ai = a_idx ~site ~dir ~i ~k and bi = b_idx ~dir ~k ~j in
    let ar = Memory.fget t.a th ai and ai' = Memory.fget t.a th (ai + 1) in
    let br = Memory.fget t.b th bi and bi' = Memory.fget t.b th (bi + 1) in
    re := !re +. ((ar *. br) -. (ai' *. bi'));
    im := !im +. ((ar *. bi') +. (ai' *. br));
    Team.charge_flops ctx 8
  done;
  let ci = c_idx ~site ~dir ~i ~k:j in
  Memory.fset t.c th ci !re;
  Memory.fset t.c th (ci + 1) !im

let run ~cfg ?pool ?trace ?(reset_l2 = true) ?(num_teams = 256)
    ?(threads = 128) ~(mode3 : Harness.mode3) t =
  if reset_l2 then Memory.l2_reset (Memory.space_of_farray t.c);
  Memory.fill t.c 0.0;
  let params =
    {
      Team.num_teams;
      num_threads = threads;
      teams_mode = mode3.Harness.teams_mode;
      sharing_bytes = Omprt.Sharing.default_bytes;
    }
  in
  let payload =
    Payload.of_list [ Payload.Farr t.a; Payload.Farr t.b; Payload.Farr t.c ]
  in
  let report =
    Target.launch ~cfg ?pool ?trace ~params
      ~dispatch_table_size:2 (fun ctx ->
        Parallel.parallel ctx ~mode:mode3.Harness.parallel_mode
          ~simd_len:mode3.Harness.group_size ~payload ~fn_id:0 (fun ctx _ ->
            Workshare.distribute_parallel_for ctx ~trip:t.shape.sites
              (fun site ->
                Simd.simd ctx ~payload ~fn_id:1 ~trip:inner_trip
                  (fun ctx e _ -> element ctx ~site ~e t))))
  in
  { Harness.report; output = Memory.to_float_array t.c }

let run_two_level ~cfg ?pool ?num_teams ?threads t =
  run ~cfg ?pool ?num_teams ?threads
    ~mode3:(Harness.spmd_simd ~group_size:1) t

let verify t output =
  Harness.verify_close ~tolerance:1e-6 ~expected:(reference t) output
