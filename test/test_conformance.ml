(* Conformance suite, libomptarget-style: kernels written as source files
   (test/conformance/*.omp) go through the full pipeline — parse, check,
   optimize, outline — and execute on the device under a matrix of
   execution configurations.  Every run is compared against the
   sequential host interpreter on identical data, so a pass means the
   whole stack agreed with the language semantics. *)

module Memory = Gpusim.Memory
module Mode = Omprt.Mode
module Eval = Ompir.Eval
module Hosteval = Ompir.Hosteval

let cfg = Gpusim.Config.small
let check_bool = Alcotest.check Alcotest.bool

(* Deterministic input data per parameter kind/name. *)
let make_bindings ~sizes (k : Ompir.Ir.kernel) =
  let space = Memory.space () in
  let g = Ompsimd_util.Prng.create ~seed:2024 in
  List.map
    (fun (p : Ompir.Ir.param) ->
      let binding =
        match p.Ompir.Ir.pty with
        | Ompir.Ir.P_farray ->
            let n = List.assoc p.Ompir.Ir.pname sizes in
            Eval.B_farr
              (Memory.of_float_array space
                 (Array.init n (fun _ -> Ompsimd_util.Prng.float g 4.0 -. 2.0)))
        | Ompir.Ir.P_iarray ->
            let n = List.assoc p.Ompir.Ir.pname sizes in
            Eval.B_iarr
              (Memory.of_int_array space
                 (Array.init n (fun _ -> Ompsimd_util.Prng.int g 100)))
        | Ompir.Ir.P_int -> Eval.B_int (List.assoc p.Ompir.Ir.pname sizes)
        | Ompir.Ir.P_float -> Eval.B_float 1.75
      in
      (p.Ompir.Ir.pname, binding))
    k.Ompir.Ir.params

let float_arrays bindings =
  List.filter_map
    (fun (name, b) ->
      match b with
      | Eval.B_farr a -> Some (name, Memory.to_float_array a)
      | _ -> None)
    bindings

let close a b =
  Array.for_all2
    (fun x y ->
      let scale = Float.max 1.0 (Float.max (abs_float x) (abs_float y)) in
      abs_float (x -. y) <= 1e-9 *. scale)
    a b

(* One conformance case: file + per-parameter sizes (scalars get their
   value, arrays their length). *)
type case = { file : string; sizes : (string * int) list }

let cases =
  [
    { file = "saxpy.omp"; sizes = [ ("x", 96); ("y", 96); ("n", 96) ] };
    {
      file = "atomic_histogram.omp";
      sizes = [ ("data", 64); ("bins", 8); ("n", 64) ];
    };
    {
      file = "reduction_dot.omp";
      sizes = [ ("a", 15 * 11); ("b", 15 * 11); ("out", 15); ("rows", 15); ("width", 11) ];
    };
    {
      file = "reduction_local.omp";
      sizes = [ ("a", 15 * 11); ("out", 15); ("rows", 15); ("width", 11) ];
    };
    {
      file = "guarded_rowinit.omp";
      sizes = [ ("marks", 13); ("out", 13 * 6); ("rows", 13); ("width", 6) ];
    };
    {
      file = "schedules.omp";
      sizes = [ ("out", 17 * 9); ("rows", 17); ("width", 9) ];
    };
    { file = "nested_for.omp"; sizes = [ ("x", 40); ("out", 40); ("n", 40) ] };
    {
      file = "conditionals.omp";
      sizes = [ ("x", 50); ("out", 50); ("n", 50) ];
    };
    { file = "intrinsics.omp"; sizes = [ ("x", 30); ("out", 30); ("n", 30) ] };
    { file = "two_regions.omp"; sizes = [ ("a", 60); ("b", 60); ("n", 60) ] };
    {
      file = "collapse_manual.omp";
      sizes = [ ("src", 7 * 9); ("dst", 7 * 9); ("ni", 7); ("nj", 9) ];
    };
  ]

let configurations =
  [
    ("spmd/1", `Force Mode.Spmd, 1, false);
    ("spmd/8", `Force Mode.Spmd, 8, true);
    ("generic/8", `Force Mode.Generic, 8, false);
    ("generic/32", `Force Mode.Generic, 32, false);
    ("auto/4+guards", `Auto, 4, true);
  ]

(* Forcing SPMD is only sound when the kernel has no unguarded sequential
   side effects; guardize repairs that. *)
let sound kernel parallel_mode guardize =
  match parallel_mode with
  | `Force Mode.Spmd -> guardize || Ompir.Spmdize.all_spmd kernel
  | `Force Mode.Generic | `Auto -> true

let conformance_dir = "conformance"

let run_case case () =
  let path = Filename.concat conformance_dir case.file in
  let kernel = Ompir.Parse.kernel_of_file path in
  (match Ompir.Check.kernel kernel with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "%s: check failed: %s" case.file
        (String.concat "; "
           (List.map (fun (e : Ompir.Check.error) -> e.Ompir.Check.what) es)));
  List.iter
    (fun (label, parallel_mode, simd_len, guardize) ->
      if sound kernel parallel_mode guardize then begin
        (* host reference on fresh data *)
        let host_bindings = make_bindings ~sizes:case.sizes kernel in
        Hosteval.run ~bindings:host_bindings kernel;
        (* device on identical fresh data, through the full pipeline *)
        let dev_bindings = make_bindings ~sizes:case.sizes kernel in
        let compiled =
          match Openmp.Offload.compile ~guardize kernel with
          | Ok c -> c
          | Error _ -> Alcotest.failf "%s: compile failed" case.file
        in
        let clauses =
          let base =
            Openmp.Clause.(none |> num_teams 3 |> num_threads 64 |> simdlen simd_len)
          in
          match parallel_mode with
          | `Force m -> Openmp.Clause.parallel_mode m base
          | `Auto -> base
        in
        let (_ : Gpusim.Device.report) =
          Openmp.Offload.run ~cfg ~clauses ~bindings:dev_bindings compiled
        in
        List.iter2
          (fun (name, host) (_, dev) ->
            check_bool
              (Printf.sprintf "%s [%s] array %s" case.file label name)
              true (close host dev))
          (float_arrays host_bindings) (float_arrays dev_bindings)
      end)
    configurations

(* print -> reparse fixpoint: the pretty-printer emits concrete syntax
   the parser accepts, and the reparse evaluates identically *)
let run_roundtrip case () =
  let path = Filename.concat conformance_dir case.file in
  let kernel = Ompir.Parse.kernel_of_file path in
  let printed = Ompir.Printer.kernel_to_string kernel in
  let reparsed =
    try Ompir.Parse.kernel printed
    with Ompir.Parse.Syntax_error { line; message } ->
      Alcotest.failf "%s: reparse failed at line %d: %s\n%s" case.file line
        message printed
  in
  (match Ompir.Check.kernel reparsed with
  | Ok () -> ()
  | Error _ -> Alcotest.failf "%s: reparsed kernel fails check" case.file);
  (* identical behaviour on the host interpreter *)
  let b1 = make_bindings ~sizes:case.sizes kernel in
  Hosteval.run ~bindings:b1 kernel;
  let b2 = make_bindings ~sizes:case.sizes reparsed in
  Hosteval.run ~bindings:b2 reparsed;
  List.iter2
    (fun (name, host) (_, dev) ->
      check_bool (Printf.sprintf "%s roundtrip array %s" case.file name) true
        (close host dev))
    (float_arrays b1) (float_arrays b2)

let suite =
  [
    ( "conformance",
      List.map
        (fun case -> Alcotest.test_case case.file `Quick (run_case case))
        cases );
    ( "conformance.roundtrip",
      List.map
        (fun case ->
          Alcotest.test_case case.file `Quick (run_roundtrip case))
        cases );
  ]
