module Prng = Ompsimd_util.Prng
module Memory = Gpusim.Memory
module Payload = Omprt.Payload
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

type shape = { n : int; seed : int }

let default_shape = { n = 48; seed = 4 }

type instance = {
  shape : shape;
  u : Memory.farray;
  unew : Memory.farray;
}

let idx ~n ~i ~j ~k = (((i * n) + j) * n) + k

let generate shape =
  if shape.n < 3 then invalid_arg "Laplace3d.generate: n must be >= 3";
  let g = Prng.create ~seed:shape.seed in
  let n3 = shape.n * shape.n * shape.n in
  let space = Memory.space () in
  {
    shape;
    u = Memory.of_float_array space (Array.init n3 (fun _ -> Prng.float g 1.0));
    unew = Memory.falloc space n3;
  }

let shape_of t = t.shape

let reference t =
  let n = t.shape.n in
  let u = Memory.to_float_array t.u in
  let out = Array.copy u in
  for i = 1 to n - 2 do
    for j = 1 to n - 2 do
      for k = 1 to n - 2 do
        out.(idx ~n ~i ~j ~k) <-
          (u.(idx ~n ~i:(i - 1) ~j ~k)
          +. u.(idx ~n ~i:(i + 1) ~j ~k)
          +. u.(idx ~n ~i ~j:(j - 1) ~k)
          +. u.(idx ~n ~i ~j:(j + 1) ~k)
          +. u.(idx ~n ~i ~j ~k:(k - 1))
          +. u.(idx ~n ~i ~j ~k:(k + 1)))
          /. 6.0
      done
    done
  done;
  out

let run ~cfg ?pool ?trace ?(reset_l2 = true) ?(num_teams = 216)
    ?(threads = 128) ~(mode3 : Harness.mode3) t =
  if reset_l2 then Memory.l2_reset (Memory.space_of_farray t.unew);
  let n = t.shape.n in
  (* boundaries are carried over unchanged, as in the reference *)
  let src = Memory.to_float_array t.u in
  Array.iteri (fun i v -> Memory.host_set t.unew i v) src;
  let params =
    {
      Team.num_teams;
      num_threads = threads;
      teams_mode = mode3.Harness.teams_mode;
      sharing_bytes = Omprt.Sharing.default_bytes;
    }
  in
  let payload = Payload.slots 2 (* u, unew *) in
  let interior = n - 2 in
  let report =
    Target.launch ~cfg ?pool ?trace ~params
      ~dispatch_table_size:2 (fun ctx ->
        Parallel.parallel ctx ~last:true ~mode:mode3.Harness.parallel_mode
          ~simd_len:mode3.Harness.group_size ~payload ~fn_id:0 (fun ctx ->
            Workshare.distribute_parallel_for ctx ~trip:(interior * interior)
              (fun ij ->
                Team.charge_alu ctx 4 (* i/j decode *);
                let i = (ij / interior) + 1 and j = (ij mod interior) + 1 in
                Simd.simd ctx ~payload ~fn_id:1 ~trip:interior
                  (fun ctx kk ->
                    let th = ctx.Team.th in
                    let k = kk + 1 in
                    let s =
                      Memory.fget t.u th (idx ~n ~i:(i - 1) ~j ~k)
                      +. Memory.fget t.u th (idx ~n ~i:(i + 1) ~j ~k)
                      +. Memory.fget t.u th (idx ~n ~i ~j:(j - 1) ~k)
                      +. Memory.fget t.u th (idx ~n ~i ~j:(j + 1) ~k)
                      +. Memory.fget t.u th (idx ~n ~i ~j ~k:(k - 1))
                      +. Memory.fget t.u th (idx ~n ~i ~j ~k:(k + 1))
                    in
                    Team.charge_flops ctx 7;
                    Memory.fset t.unew th (idx ~n ~i ~j ~k) (s /. 6.0)))))
  in
  { Harness.report; output = Memory.to_float_array t.unew }

let run_no_simd ~cfg ?pool ?num_teams ?threads t =
  run ~cfg ?pool ?num_teams ?threads
    ~mode3:(Harness.spmd_simd ~group_size:1) t

let verify t output =
  Harness.verify_close ~tolerance:1e-6 ~expected:(reference t) output
