(* Compiler-pipeline demo — the §4 codegen path end to end.

   Run with:  dune exec examples/compiler_demo.exe

   A kernel with a non-trivial shape (per-row scalars captured by the
   simd loop) is written in the IR, type-checked, outlined into loop
   tasks, analyzed for globalization and SPMD-ization, printed back as
   pragma-annotated source, and finally executed on the simulated GPU
   under both execution modes.  The OMPSIMD_* knobs (OMPSIMD_EVAL,
   OMPSIMD_PASSES, OMPSIMD_SANITIZE, ...) are read once, up front. *)

module Memory = Gpusim.Memory
module Ir = Ompir.Ir
module Printer = Ompir.Printer
module Eval = Ompir.Eval
module Clause = Openmp.Clause
module Offload = Openmp.Offload

(* out[r*len + j] = scale[r] * (in[r*len + j] + shift) *)
let kernel =
  Ir.kernel ~name:"row_scale"
    ~params:
      [
        { Ir.pname = "input"; pty = Ir.P_farray };
        { Ir.pname = "scale"; pty = Ir.P_farray };
        { Ir.pname = "out"; pty = Ir.P_farray };
        { Ir.pname = "rows"; pty = Ir.P_int };
        { Ir.pname = "len"; pty = Ir.P_int };
        { Ir.pname = "shift"; pty = Ir.P_float };
      ]
    [
      Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "rows")
        [
          (* a per-row scalar the simd loop captures: globalized in
             generic mode (§4.3) *)
          Ir.Decl
            { name = "s"; ty = Ir.Tfloat; init = Ir.Load ("scale", Ir.v "r") };
          Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.v "len")
            [
              Ir.Decl
                {
                  name = "idx";
                  ty = Ir.Tint;
                  init = Ir.(Binop (Add, Binop (Mul, v "r", v "len"), v "j"));
                };
              Ir.Store
                ( "out",
                  Ir.v "idx",
                  Ir.(
                    Binop
                      ( Mul,
                        v "s",
                        Binop (Add, Load ("input", v "idx"), v "shift") )) );
            ];
        ];
    ]

let () =
  let knobs =
    match Knobs.of_env () with
    | Ok k -> k
    | Error msg ->
        prerr_endline msg;
        exit 2
  in
  Knobs.install knobs;
  let cfg = Gpusim.Config.a100_quarter in
  print_endline "=== source (reconstructed from the IR) ===";
  print_endline (Printer.kernel_to_string kernel);
  print_newline ();
  match Offload.compile_with ~knobs:knobs.Knobs.compile kernel with
  | Error es ->
      List.iter
        (fun e -> Format.printf "error: %a@." Ompir.Check.pp_error e)
        es;
      exit 1
  | Ok compiled ->
      print_endline "=== compiler remarks ===";
      List.iter print_endline (Offload.remarks compiled);
      print_newline ();
      let rows = 512 and len = 24 in
      let space = Memory.space () in
      let input =
        Memory.of_float_array space
          (Array.init (rows * len) (fun i -> float_of_int (i mod 7)))
      in
      let scale =
        Memory.of_float_array space
          (Array.init rows (fun r -> 1.0 +. float_of_int (r mod 3)))
      in
      let out = Memory.falloc space (rows * len) in
      let bindings =
        [
          ("input", Eval.B_farr input);
          ("scale", Eval.B_farr scale);
          ("out", Eval.B_farr out);
          ("rows", Eval.B_int rows);
          ("len", Eval.B_int len);
          ("shift", Eval.B_float 0.5);
        ]
      in
      print_endline "=== execution ===";
      List.iter
        (fun (label, mode) ->
          Memory.fill out 0.0;
          let report =
            Offload.run ~cfg
              ~clauses:
                Clause.(
                  none |> num_threads 128 |> simdlen 8 |> parallel_mode mode)
              ~bindings compiled
          in
          (* verify *)
          let ok = ref true in
          for r = 0 to rows - 1 do
            for j = 0 to len - 1 do
              let idx = (r * len) + j in
              let expected =
                (1.0 +. float_of_int (r mod 3))
                *. (float_of_int (idx mod 7) +. 0.5)
              in
              if abs_float (Memory.host_get out idx -. expected) > 1e-9 then
                ok := false
            done
          done;
          Printf.printf "%-24s %10.0f cycles   %s\n" label
            report.Gpusim.Device.time_cycles
            (if !ok then "VERIFIED" else "WRONG RESULT"))
        [
          ("SPMD parallel region", Omprt.Mode.Spmd);
          ("generic parallel region", Omprt.Mode.Generic);
        ]
