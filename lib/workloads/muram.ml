module Prng = Ompsimd_util.Prng
module Memory = Gpusim.Memory
module Payload = Omprt.Payload
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

type shape = { ni : int; nj : int; nk : int; seed : int }

let default_shape = { ni = 48; nj = 48; nk = 48; seed = 5 }

type instance = {
  shape : shape;
  input : Memory.farray;
  output : Memory.farray;
}

let generate shape =
  if shape.ni <= 0 || shape.nj <= 0 || shape.nk <= 0 then
    invalid_arg "Muram.generate: dimensions must be positive";
  let g = Prng.create ~seed:shape.seed in
  let n = shape.ni * shape.nj * shape.nk in
  let space = Memory.space () in
  {
    shape;
    input = Memory.of_float_array space (Array.init n (fun _ -> Prng.float g 1.0));
    output = Memory.falloc space n;
  }

let shape_of t = t.shape

let in_idx s ~i ~j ~k = (((i * s.nj) + j) * s.nk) + k
let tr_idx s ~i ~j ~k = (((j * s.ni) + i) * s.nk) + k

let reference_transpose t =
  let s = t.shape in
  let input = Memory.to_float_array t.input in
  let out = Array.make (Array.length input) 0.0 in
  for i = 0 to s.ni - 1 do
    for j = 0 to s.nj - 1 do
      for k = 0 to s.nk - 1 do
        out.(tr_idx s ~i ~j ~k) <- input.(in_idx s ~i ~j ~k)
      done
    done
  done;
  out

(* Fourth-order interpolation weights along k (cell-centered to face). *)
let w0 = -0.0625
let w1 = 0.5625
let w2 = 0.5625
let w3 = -0.0625

let clamp lo hi v = max lo (min hi v)

let reference_interpol t =
  let s = t.shape in
  let input = Memory.to_float_array t.input in
  let out = Array.make (Array.length input) 0.0 in
  let at ~i ~j k = input.(in_idx s ~i ~j ~k:(clamp 0 (s.nk - 1) k)) in
  for i = 0 to s.ni - 1 do
    for j = 0 to s.nj - 1 do
      for k = 0 to s.nk - 1 do
        out.(in_idx s ~i ~j ~k) <-
          (w0 *. at ~i ~j (k - 1))
          +. (w1 *. at ~i ~j k)
          +. (w2 *. at ~i ~j (k + 1))
          +. (w3 *. at ~i ~j (k + 2))
      done
    done
  done;
  out

let launch ~cfg ?pool ?trace ~reset_l2 ~num_teams ~threads ~(mode3 : Harness.mode3) t body =
  if reset_l2 then Memory.l2_reset (Memory.space_of_farray t.output);
  Memory.fill t.output 0.0;
  let params =
    {
      Team.num_teams;
      num_threads = threads;
      teams_mode = mode3.Harness.teams_mode;
      sharing_bytes = Omprt.Sharing.default_bytes;
    }
  in
  let payload = Payload.slots 2 (* input, output *) in
  let s = t.shape in
  let report =
    Target.launch ~cfg ?pool ?trace ~params ~dispatch_table_size:2 (fun ctx ->
        Parallel.parallel ctx ~last:true ~mode:mode3.Harness.parallel_mode
          ~simd_len:mode3.Harness.group_size ~payload ~fn_id:0 (fun ctx ->
            Workshare.distribute_parallel_for ctx ~trip:(s.ni * s.nj)
              (fun ij ->
                Team.charge_alu ctx 4;
                let i = ij / s.nj and j = ij mod s.nj in
                Simd.simd ctx ~payload ~fn_id:1 ~trip:s.nk (fun ctx k ->
                    body ctx ~i ~j ~k))))
  in
  { Harness.report; output = Memory.to_float_array t.output }

let run_transpose ~cfg ?pool ?trace ?(reset_l2 = true) ?(num_teams = 216) ?(threads = 128) ~mode3 t =
  let s = t.shape in
  launch ~cfg ?pool ?trace ~reset_l2 ~num_teams ~threads ~mode3 t (fun ctx ~i ~j ~k ->
      let th = ctx.Team.th in
      let v = Memory.fget t.input th (in_idx s ~i ~j ~k) in
      Team.charge_alu ctx 2 (* index arithmetic *);
      Memory.fset t.output th (tr_idx s ~i ~j ~k) v)

let run_interpol ~cfg ?pool ?trace ?(reset_l2 = true) ?(num_teams = 216) ?(threads = 128) ~mode3 t =
  let s = t.shape in
  launch ~cfg ?pool ?trace ~reset_l2 ~num_teams ~threads ~mode3 t (fun ctx ~i ~j ~k ->
      let th = ctx.Team.th in
      let at k' =
        Memory.fget t.input th (in_idx s ~i ~j ~k:(clamp 0 (s.nk - 1) k'))
      in
      let v =
        (w0 *. at (k - 1)) +. (w1 *. at k) +. (w2 *. at (k + 1))
        +. (w3 *. at (k + 2))
      in
      Team.charge_flops ctx 7;
      Memory.fset t.output th (in_idx s ~i ~j ~k) v)

let verify_transpose t output =
  Harness.verify_close ~tolerance:1e-6 ~expected:(reference_transpose t) output

let verify_interpol t output =
  Harness.verify_close ~tolerance:1e-6 ~expected:(reference_interpol t) output
