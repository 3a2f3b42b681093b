(* Runtest tier for the offload pipeline against the reference walker:
   drive one small kernel end to end through the knobs the CLI parses,
   [Offload.compile_with] and [Offload.run], then launch the reference
   tree walker on the same artifact with the options [Offload.run]
   resolves ([Offload.options]), and require bit-identical results.
   This covers the clause resolution and sharing sizing in offload.ml,
   which the in-process differential tests bypass by building options
   by hand. *)

module Ir = Ompir.Ir
module Compile = Ompir.Compile
module Memory = Gpusim.Memory
module Offload = Openmp.Offload

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

let clauses = Openmp.Clause.(none |> num_threads 64 |> simdlen 4)

(* Compile through the knobs the CLI parses, then launch with [launch]
   on fresh arrays. *)
let run_with launch =
  let knobs =
    match Knobs.parse (fun _ -> None) with
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
      ("src", Compile.B_farr src);
      ("out", Compile.B_farr out);
      ("rows", Compile.B_int rows);
      ("len", Compile.B_int len);
    ]
  in
  match Offload.compile_with ~knobs kernel with
  | Error _ -> failwith "dual_engine: kernel failed to compile"
  | Ok compiled ->
      let report = launch ~cfg ~bindings compiled in
      let result = Array.init rows (fun r -> Memory.host_get out r) in
      (report, result)

let () =
  let walk_report, walk_out =
    run_with (fun ~cfg ~bindings c -> Reference.Offload_ref.run ~cfg ~clauses ~bindings c)
  in
  let staged_report, staged_out =
    run_with (fun ~cfg ~bindings c -> Offload.run ~cfg ~clauses ~bindings c)
  in
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
    "dual-engine OK: Offload.run and the reference walker bit-identical end-to-end"
