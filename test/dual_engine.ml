(* Runtest tier for the OMPSIMD_EVAL switch: drive one small kernel
   end-to-end through the compile-and-offload pipeline under both
   evaluator engines — the reference tree walker and the staged
   compiler — selected through the user-facing OMPSIMD_EVAL knob and
   the same parse the CLI runs, and require bit-identical results.  This covers the offload.ml dispatch itself, which the
   in-process differential tests bypass by calling the engines
   directly. *)

module Ir = Ompir.Ir
module Eval = Ompir.Eval
module Memory = Gpusim.Memory
module Offload = Openmp.Offload
module Clause = Openmp.Clause

(* out[r] = sum_j src[r*len + j] *)
let kernel =
  Ir.kernel ~name:"rowsum"
    ~params:
      [
        { Ir.pname = "src"; pty = Ir.P_farray };
        { Ir.pname = "out"; pty = Ir.P_farray };
        { Ir.pname = "rows"; pty = Ir.P_int };
        { Ir.pname = "len"; pty = Ir.P_int };
      ]
    [
      Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "rows")
        [
          Ir.Decl { name = "acc"; ty = Ir.Tfloat; init = Ir.f 0.0 };
          Ir.simd_sum ~acc:"acc" ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.v "len")
            ~value:
              Ir.(Load ("src", Binop (Add, Binop (Mul, v "r", v "len"), v "j")))
            [];
          Ir.Store ("out", Ir.v "r", Ir.v "acc");
        ];
    ]

let rows = 96
let len = 20
let src_val i = float_of_int (i mod 11) *. 0.25

let run_with_engine engine =
  let knobs =
    match Knobs.parse (fun name -> if name = "OMPSIMD_EVAL" then Some engine else None) with
    | Ok k -> k.Knobs.compile
    | Error msg -> failwith msg
  in
  let cfg = Gpusim.Config.small in
  let space = Memory.space () in
  let src =
    Memory.of_float_array space (Array.init (rows * len) src_val)
  in
  let out = Memory.falloc space rows in
  let bindings =
    [
      ("src", Eval.B_farr src);
      ("out", Eval.B_farr out);
      ("rows", Eval.B_int rows);
      ("len", Eval.B_int len);
    ]
  in
  match Offload.compile_with ~knobs kernel with
  | Error _ -> failwith "dual_engine: kernel failed to compile"
  | Ok compiled ->
      let report =
        Offload.run ~cfg
          ~clauses:Clause.(none |> num_threads 64 |> simdlen 4)
          ~bindings compiled
      in
      let result = Array.init rows (fun r -> Memory.host_get out r) in
      (report, result)

let () =
  let walk_report, walk_out = run_with_engine "walk" in
  let staged_report, staged_out = run_with_engine "compile" in
  if walk_out <> staged_out then
    failwith "dual_engine: output arrays differ between engines";
  if
    walk_report.Gpusim.Device.time_cycles
    <> staged_report.Gpusim.Device.time_cycles
  then failwith "dual_engine: time_cycles differ between engines";
  if
    not
      (Gpusim.Counters.equal walk_report.Gpusim.Device.counters
         staged_report.Gpusim.Device.counters)
  then failwith "dual_engine: counters differ between engines";
  (* sanity: the kernel actually computed row sums *)
  Array.iteri
    (fun r got ->
      let expected = ref 0.0 in
      for j = 0 to len - 1 do
        expected := !expected +. src_val ((r * len) + j)
      done;
      if Float.abs (got -. !expected) > 1e-9 then
        failwith "dual_engine: wrong row sum")
    walk_out;
  print_endline
    "dual-engine OK: walk and compile engines bit-identical end-to-end"
