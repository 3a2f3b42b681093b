module Prng = Ompsimd_util.Prng
module Memory = Gpusim.Memory
module Payload = Omprt.Payload
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

type shape = { rows : int; inner : int; flops_per_elem : int; seed : int }

let default_shape = { rows = 8192; inner = 32; flops_per_elem = 128; seed = 3 }

type instance = {
  shape : shape;
  input : Memory.farray;
  output : Memory.farray;
}

let generate shape =
  if shape.rows <= 0 || shape.inner <= 0 then
    invalid_arg "Ideal.generate: rows and inner must be positive";
  let g = Prng.create ~seed:shape.seed in
  let n = shape.rows * shape.inner in
  let space = Memory.space () in
  {
    shape;
    input = Memory.of_float_array space (Array.init n (fun _ -> Prng.float g 1.0));
    output = Memory.falloc space n;
  }

let shape_of t = t.shape

(* The row-dependent base value: a short chain the compiler cannot fold
   into the inner loop (it depends only on the outer index). *)
let base_of_row r =
  let x = float_of_int (r + 1) in
  1.0 +. (1.0 /. x)

(* Per-element polynomial evaluation: [flops_per_elem]/2 fused steps. *)
let poly ~steps base v =
  let acc = ref v in
  for _ = 1 to steps do
    acc := (!acc *. base) +. 0.5
  done;
  !acc

let reference t =
  let input = Memory.to_float_array t.input in
  let steps = t.shape.flops_per_elem / 2 in
  Array.init
    (t.shape.rows * t.shape.inner)
    (fun idx ->
      let r = idx / t.shape.inner in
      poly ~steps (base_of_row r) input.(idx))

let run ~cfg ?pool ?trace ?(reset_l2 = true) ?(num_teams = 256)
    ?(threads = 128) ~(mode3 : Harness.mode3) t =
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
  let steps = t.shape.flops_per_elem / 2 in
  let report =
    Target.launch ~cfg ?pool ?trace ~params
      ~dispatch_table_size:2 (fun ctx ->
        Parallel.parallel ctx ~last:true ~mode:mode3.Harness.parallel_mode
          ~simd_len:mode3.Harness.group_size ~payload ~fn_id:0 (fun ctx ->
            Workshare.distribute_parallel_for ctx ~trip:t.shape.rows
              (fun r ->
                (* region code: the non-collapsible per-row base value *)
                Team.charge_special ctx 1;
                Team.charge_flops ctx 2;
                let base = base_of_row r in
                Simd.simd ctx ~payload ~fn_id:1 ~trip:t.shape.inner
                  (fun ctx j ->
                    let th = ctx.Team.th in
                    let idx = (r * t.shape.inner) + j in
                    let v = Memory.fget t.input th idx in
                    Team.charge_flops ctx t.shape.flops_per_elem;
                    Memory.fset t.output th idx (poly ~steps base v)))))
  in
  { Harness.report; output = Memory.to_float_array t.output }

let run_two_level ~cfg ?pool ?num_teams ?threads t =
  run ~cfg ?pool ?num_teams ?threads
    ~mode3:(Harness.spmd_simd ~group_size:1) t

let verify t output =
  Harness.verify_close ~tolerance:1e-6 ~expected:(reference t) output
