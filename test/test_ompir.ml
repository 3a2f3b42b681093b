(* Tests for the IR / codegen layer: outlining, globalization,
   SPMD-ization, the checker, and end-to-end evaluation on the runtime. *)

module Memory = Gpusim.Memory
module Mode = Omprt.Mode
module Ir = Ompir.Ir
module Check = Ompir.Check
module Outline = Ompir.Outline
module Globalize = Ompir.Globalize
module Spmdize = Ompir.Spmdize
module Printer = Ompir.Printer
module Compile = Ompir.Compile
module Eval = Reference.Eval

let cfg = Gpusim.Config.small
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* y[r] += values[k] * x[col[k]] over CSR rows — the paper's sparse_matvec
   written in the IR. *)
let spmv_kernel =
  Ir.kernel ~name:"spmv"
    ~params:
      [
        { Ir.pname = "row_ptr"; pty = Ir.P_iarray };
        { Ir.pname = "col"; pty = Ir.P_iarray };
        { Ir.pname = "values"; pty = Ir.P_farray };
        { Ir.pname = "x"; pty = Ir.P_farray };
        { Ir.pname = "y"; pty = Ir.P_farray };
        { Ir.pname = "n"; pty = Ir.P_int };
      ]
    [
      Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
        [
          Ir.Decl { name = "lo"; ty = Ir.Tint; init = Ir.Load_int ("row_ptr", Ir.v "r") };
          Ir.Decl
            {
              name = "hi";
              ty = Ir.Tint;
              init = Ir.Load_int ("row_ptr", Ir.(v "r" + i 1));
            };
          Ir.simd ~var:"k" ~lo:(Ir.v "lo") ~hi:(Ir.v "hi")
            [
              Ir.Atomic_add
                ( "y",
                  Ir.v "r",
                  Ir.(Binop (Mul, Load ("values", v "k"),
                       Load ("x", Load_int ("col", v "k")))) );
            ];
        ];
    ]

(* A vector-scale kernel whose parallel body is tightly nested (SPMD-able). *)
let scale_kernel =
  Ir.kernel ~name:"scale"
    ~params:
      [
        { Ir.pname = "src"; pty = Ir.P_farray };
        { Ir.pname = "dst"; pty = Ir.P_farray };
        { Ir.pname = "n"; pty = Ir.P_int };
        { Ir.pname = "alpha"; pty = Ir.P_float };
      ]
    [
      Ir.distribute_parallel_for ~var:"blk" ~lo:(Ir.i 0)
        ~hi:Ir.(v "n" / i 16)
        [
          Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 16)
            [
              Ir.Decl
                {
                  name = "idx";
                  ty = Ir.Tint;
                  init = Ir.(Binop (Add, Binop (Mul, v "blk", i 16), v "j"));
                };
              Ir.Store
                ("dst", Ir.v "idx",
                 Ir.(Binop (Mul, v "alpha", Load ("src", v "idx"))));
            ];
        ];
    ]

(* A kernel with a side effect in the sequential part of the parallel
   body: must be classified generic. *)
let generic_kernel =
  Ir.kernel ~name:"needs_generic"
    ~params:
      [
        { Ir.pname = "a"; pty = Ir.P_farray };
        { Ir.pname = "marks"; pty = Ir.P_farray };
        { Ir.pname = "n"; pty = Ir.P_int };
      ]
    [
      Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
        [
          (* sequential store outside the simd loop: a side effect *)
          Ir.Store ("marks", Ir.v "r", Ir.f 1.0);
          Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 8)
            [ Ir.Store ("a", Ir.(Binop (Add, Binop (Mul, v "r", i 8), v "j")), Ir.f 2.0) ];
        ];
    ]

(* --- Check ------------------------------------------------------------- *)

let test_check_accepts_good () =
  List.iter
    (fun k ->
      match Check.kernel k with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "unexpected errors: %s"
            (String.concat "; "
               (List.map (fun (e : Check.error) -> e.Check.what) es)))
    [ spmv_kernel; scale_kernel; generic_kernel ]

let expect_error k msg_fragment =
  match Check.kernel k with
  | Ok () -> Alcotest.failf "expected a check error (%s)" msg_fragment
  | Error es ->
      check_bool msg_fragment true
        (List.exists
           (fun (e : Check.error) ->
             Astring_like.contains e.Check.what msg_fragment
             || Astring_like.contains e.Check.where msg_fragment)
           es)

let mk_kernel body =
  Ir.kernel ~name:"t"
    ~params:
      [
        { Ir.pname = "a"; pty = Ir.P_farray };
        { Ir.pname = "n"; pty = Ir.P_int };
      ]
    body

let test_check_unbound_var () =
  expect_error (mk_kernel [ Ir.Assign ("ghost", Ir.i 1) ]) "unbound"

let test_check_type_mismatch () =
  expect_error
    (mk_kernel
       [ Ir.Decl { name = "v"; ty = Ir.Tfloat; init = Ir.i 3 } ])
    "wrong type"

let test_check_simd_position () =
  (* simd directly at region level is illegal *)
  expect_error
    (mk_kernel [ Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 4) [] ])
    "illegal position"

let test_check_simd_captured_assign () =
  expect_error
    (mk_kernel
       [
         Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
           [
             Ir.Decl { name = "acc"; ty = Ir.Tfloat; init = Ir.f 0.0 };
             Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 4)
               [ Ir.Assign ("acc", Ir.f 1.0) ];
           ];
       ])
    "captured scalar"

let test_check_loop_var_assign () =
  expect_error
    (mk_kernel
       [
         Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
           [ Ir.Assign ("r", Ir.i 0) ];
       ])
    "loop variable"

let test_check_array_kind () =
  expect_error
    (mk_kernel [ Ir.Assign ("n", Ir.Unop (Ir.To_int, Ir.Load_int ("a", Ir.i 0))) ])
    "wrong element kind"

(* --- free_vars / outline ------------------------------------------------ *)

let test_free_vars () =
  let body =
    [
      Ir.Decl { name = "t"; ty = Ir.Tint; init = Ir.v "n" };
      Ir.Store ("a", Ir.v "t", Ir.Load ("b", Ir.v "k"));
    ]
  in
  Alcotest.(check (list string)) "free" [ "a"; "b"; "k"; "n" ]
    (Ir.free_vars body);
  (* a simd reduction's summand runs in its body's scope: the body's
     declaration is bound there, the accumulator and arrays are free *)
  let sum =
    [
      Ir.simd_sum ~acc:"total" ~var:"k" ~lo:(Ir.i 0) ~hi:(Ir.v "w")
        ~value:Ir.(v "t" * f 2.0)
        [ Ir.Decl { name = "t"; ty = Ir.Tfloat; init = Ir.Load ("a", Ir.v "k") } ];
    ]
  in
  Alcotest.(check (list string)) "summand sees body decls" [ "a"; "total"; "w" ]
    (Ir.free_vars sum)

let test_outline_ids_and_captures () =
  let p = Outline.run spmv_kernel in
  check_int "two outlined regions" 2 (Outline.dispatch_table_size p);
  let dpf = Outline.find p ~fn_id:0 in
  check_bool "outer kind" true (dpf.Outline.kind = `Distribute_parallel_for);
  let simd = Outline.find p ~fn_id:1 in
  check_bool "inner kind" true (simd.Outline.kind = `Simd);
  (* the simd body captures the arrays and the row's scalars *)
  Alcotest.(check (list string)) "simd captures"
    [ "col"; "hi"; "lo"; "r"; "values"; "x"; "y" ]
    simd.Outline.captures;
  check_bool "loop var not captured" true
    (not (List.mem "k" simd.Outline.captures))

let test_outline_annotates_ast () =
  let p = Outline.run spmv_kernel in
  let ids =
    Ir.fold_directives
      (fun acc s ->
        match s with
        | Ir.Distribute_parallel_for d | Ir.Parallel_for d | Ir.Simd d ->
            d.Ir.fn_id :: acc
        | _ -> acc)
      [] p.Outline.kernel.Ir.body
  in
  Alcotest.(check (list int)) "annotated ids" [ 1; 0 ] ids

(* --- globalize ----------------------------------------------------------- *)

let test_globalize_spmv () =
  let p = Outline.run spmv_kernel in
  match Globalize.run p with
  | [ r ] ->
      check_int "simd region" 1 r.Globalize.fn_id;
      (* lo/hi are region-local scalars that workers must reach *)
      Alcotest.(check (list string)) "globalized" [ "hi"; "lo" ]
        (List.sort compare r.Globalize.globalized);
      check_bool "arrays already global" true
        (List.mem "values" r.Globalize.already_global);
      check_int "total" 2 (Globalize.total_globalized [ r ])
  | rs -> Alcotest.failf "expected one simd report, got %d" (List.length rs)

let test_globalize_none_needed () =
  let p = Outline.run scale_kernel in
  match Globalize.run p with
  | [ r ] -> check_int "nothing local captured" 0 (List.length r.Globalize.globalized)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* --- spmdize -------------------------------------------------------------- *)

let test_spmdize () =
  check_bool "scale kernel is SPMD" true (Spmdize.all_spmd scale_kernel);
  check_bool "spmv body is SPMD too (loads only)" true
    (Spmdize.all_spmd spmv_kernel);
  (match Spmdize.analyze generic_kernel with
  | [ (_, mode) ] -> check_bool "store outside simd -> generic" true (mode = Mode.Generic)
  | _ -> Alcotest.fail "one directive expected");
  (* declarations + assignments to locals stay SPMD *)
  let local_ok =
    mk_kernel
      [
        Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
          [
            Ir.Decl { name = "t"; ty = Ir.Tint; init = Ir.i 0 };
            Ir.Assign ("t", Ir.(v "t" + i 1));
            Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.v "t") [];
          ];
      ]
  in
  check_bool "local assigns are SPMD-safe" true (Spmdize.all_spmd local_ok)

(* --- printer ---------------------------------------------------------------- *)

let test_printer () =
  let s = Printer.kernel_to_string (Outline.run spmv_kernel).Outline.kernel in
  List.iter
    (fun fragment ->
      check_bool fragment true (Astring_like.contains s fragment))
    [
      "void spmv";
      "#pragma omp teams distribute parallel for";
      "#pragma omp simd";
      "#pragma omp atomic";
      "row_ptr[(r + 1)]";
    ]

(* --- host reference interpreter ---------------------------------------- *)

module Hosteval = Reference.Hosteval

let test_hosteval_basics () =
  let src = {src|
kernel h(double* a, int* b, int n) {
  #pragma omp teams distribute parallel for
  for (r = 0; r < n; r++) {
    double acc = 0.0;
    int k = 0;
    while (k < 3) {
      acc = acc + (double)k;
      k = k + 1;
    }
    #pragma omp simd
    for (j = 0; j < 1; j++) {
      a[r] = acc;
      b[r] = r * 2;
    }
  }
}
|src}
  in
  let k = Ompir.Parse.kernel src in
  let space = Memory.space () in
  let a = Memory.falloc space 10 in
  let b = Memory.ialloc space 10 in
  Hosteval.run
    ~bindings:[ ("a", Compile.B_farr a); ("b", Compile.B_iarr b); ("n", Compile.B_int 10) ]
    k;
  for r = 0 to 9 do
    checkf "while sum" 3.0 (Memory.host_get a r);
    check_int "int store" (r * 2) (Memory.host_geti b r)
  done

let test_hosteval_binding_errors () =
  let k = mk_kernel [] in
  check_bool "missing binding" true
    (try
       Hosteval.run ~bindings:[] k;
       false
     with Hosteval.Error _ -> true)

(* --- eval end-to-end -------------------------------------------------------- *)

let spmv_instance rows =
  let g = Ompsimd_util.Prng.create ~seed:5 in
  let space = Memory.space () in
  let lengths = Array.init rows (fun _ -> Ompsimd_util.Prng.int g 12) in
  let row_ptr = Array.make (rows + 1) 0 in
  Array.iteri (fun r l -> row_ptr.(r + 1) <- row_ptr.(r) + l) lengths;
  let nnz = row_ptr.(rows) in
  let col = Array.init (max 1 nnz) (fun _ -> Ompsimd_util.Prng.int g rows) in
  let values =
    Array.init (max 1 nnz) (fun _ -> Ompsimd_util.Prng.float g 2.0 -. 1.0)
  in
  let x = Array.init rows (fun i -> cos (float_of_int i)) in
  let expected =
    Array.init rows (fun r ->
        let acc = ref 0.0 in
        for k = row_ptr.(r) to row_ptr.(r + 1) - 1 do
          acc := !acc +. (values.(k) *. x.(col.(k)))
        done;
        !acc)
  in
  let bindings =
    [
      ("row_ptr", Compile.B_iarr (Memory.of_int_array space row_ptr));
      ("col", Compile.B_iarr (Memory.of_int_array space col));
      ("values", Compile.B_farr (Memory.of_float_array space values));
      ("x", Compile.B_farr (Memory.of_float_array space x));
      ("y", Compile.B_farr (Memory.falloc space rows));
      ("n", Compile.B_int rows);
    ]
  in
  (bindings, expected)

let y_of bindings =
  match List.assoc "y" bindings with
  | Compile.B_farr a -> Memory.to_float_array a
  | _ -> assert false

let run_spmv_ir ~parallel_mode ~simd_len rows =
  let bindings, expected = spmv_instance rows in
  let p = Outline.run spmv_kernel in
  let options =
    {
      Compile.default_options with
      Compile.num_teams = 3;
      num_threads = 64;
      parallel_mode;
      simd_len;
    }
  in
  let (_ : Gpusim.Device.report) = Eval.run ~cfg ~options ~bindings p in
  (y_of bindings, expected)

let test_eval_spmv_modes () =
  List.iter
    (fun (parallel_mode, simd_len) ->
      let got, expected = run_spmv_ir ~parallel_mode ~simd_len 100 in
      Array.iteri
        (fun r e ->
          if abs_float (got.(r) -. e) > 1e-9 then
            Alcotest.failf "row %d: got %f want %f" r got.(r) e)
        expected)
    [
      (`Auto, 8);
      (`Force Mode.Generic, 8);
      (`Force Mode.Spmd, 4);
      (`Force Mode.Generic, 1);
      (`Auto, 32);
    ]

let test_eval_scale_kernel () =
  let n = 256 in
  let space = Memory.space () in
  let src = Memory.of_float_array space (Array.init n float_of_int) in
  let dst = Memory.falloc space n in
  let p = Outline.run scale_kernel in
  let bindings =
    [
      ("src", Compile.B_farr src);
      ("dst", Compile.B_farr dst);
      ("n", Compile.B_int n);
      ("alpha", Compile.B_float 2.5);
    ]
  in
  let (_ : Gpusim.Device.report) =
    Eval.run ~cfg ~options:Compile.default_options ~bindings p
  in
  for idx = 0 to n - 1 do
    checkf "scaled" (2.5 *. float_of_int idx) (Memory.host_get dst idx)
  done

let test_eval_generic_kernel_auto () =
  (* the side-effecting kernel must still be correct under `Auto (which
     classifies it generic): marks written once per row despite 64
     threads. *)
  let n = 40 in
  let space = Memory.space () in
  let a = Memory.falloc space (n * 8) in
  let marks = Memory.falloc space n in
  let p = Outline.run generic_kernel in
  let bindings =
    [
      ("a", Compile.B_farr a);
      ("marks", Compile.B_farr marks);
      ("n", Compile.B_int n);
    ]
  in
  let (_ : Gpusim.Device.report) =
    Eval.run ~cfg
      ~options:{ Compile.default_options with Compile.num_teams = 2; simd_len = 8 }
      ~bindings p
  in
  for r = 0 to n - 1 do
    checkf "marked" 1.0 (Memory.host_get marks r)
  done;
  for i = 0 to (n * 8) - 1 do
    checkf "a filled" 2.0 (Memory.host_get a i)
  done

let test_eval_binding_errors () =
  let p = Outline.run scale_kernel in
  check_bool "missing binding" true
    (try
       ignore (Eval.run ~cfg ~options:Compile.default_options ~bindings:[] p);
       false
     with Compile.Error _ -> true)

let test_eval_costs_differ_by_mode () =
  (* generic mode must cost more than SPMD on the same IR kernel *)
  let time parallel_mode =
    let bindings, _ = spmv_instance 300 in
    let p = Outline.run spmv_kernel in
    let r =
      Eval.run ~cfg
        ~options:
          {
            Compile.default_options with
            Compile.num_teams = 2;
            num_threads = 64;
            parallel_mode;
            simd_len = 8;
          }
        ~bindings p
    in
    r.Gpusim.Device.time_cycles
  in
  check_bool "generic costs more" true
    (time (`Force Mode.Generic) > time (`Force Mode.Spmd))

(* --- new constructs: reduction, collapse, schedule -------------------- *)

(* spmv with a reduction clause instead of the atomic workaround *)
let spmv_reduce_kernel =
  Ir.kernel ~name:"spmv_reduce"
    ~params:
      [
        { Ir.pname = "row_ptr"; pty = Ir.P_iarray };
        { Ir.pname = "col"; pty = Ir.P_iarray };
        { Ir.pname = "values"; pty = Ir.P_farray };
        { Ir.pname = "x"; pty = Ir.P_farray };
        { Ir.pname = "y"; pty = Ir.P_farray };
        { Ir.pname = "n"; pty = Ir.P_int };
      ]
    [
      Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
        [
          Ir.Decl { name = "lo"; ty = Ir.Tint; init = Ir.Load_int ("row_ptr", Ir.v "r") };
          Ir.Decl
            { name = "hi"; ty = Ir.Tint; init = Ir.Load_int ("row_ptr", Ir.(v "r" + i 1)) };
          Ir.Decl { name = "dot"; ty = Ir.Tfloat; init = Ir.f 0.0 };
          Ir.simd_sum ~acc:"dot" ~var:"k" ~lo:(Ir.v "lo") ~hi:(Ir.v "hi")
            ~value:
              Ir.(
                Binop
                  (Mul, Load ("values", v "k"), Load ("x", Load_int ("col", v "k"))))
            [];
          Ir.Store ("y", Ir.v "r", Ir.v "dot");
        ];
    ]

let test_simd_sum_eval () =
  let bindings, expected = spmv_instance 120 in
  let p = Outline.run spmv_reduce_kernel in
  List.iter
    (fun (parallel_mode, simd_len) ->
      (* reset y *)
      (match List.assoc "y" bindings with
      | Compile.B_farr a -> Memory.fill a 0.0
      | _ -> assert false);
      let options =
        {
          Compile.default_options with
          Compile.num_teams = 3;
          num_threads = 64;
          parallel_mode;
          simd_len;
        }
      in
      let (_ : Gpusim.Device.report) = Eval.run ~cfg ~options ~bindings p in
      let got = y_of bindings in
      Array.iteri
        (fun r e ->
          if abs_float (got.(r) -. e) > 1e-9 then
            Alcotest.failf "reduce row %d: got %f want %f" r got.(r) e)
        expected)
    [ (`Force Mode.Spmd, 8); (`Force Mode.Generic, 8); (`Auto, 32); (`Auto, 1) ]

let test_simd_sum_outline_and_check () =
  (match Check.kernel spmv_reduce_kernel with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "check: %s"
        (String.concat "; " (List.map (fun (e : Check.error) -> e.Check.what) es)));
  let p = Outline.run spmv_reduce_kernel in
  let o = Outline.find p ~fn_id:1 in
  check_bool "reduction kind" true (o.Outline.kind = `Simd_sum);
  check_bool "acc not captured" true (not (List.mem "dot" o.Outline.captures));
  check_bool "value vars captured" true (List.mem "values" o.Outline.captures)

let test_simd_sum_check_rejects_int_acc () =
  let bad =
    mk_kernel
      [
        Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
          [
            Ir.Decl { name = "acc"; ty = Ir.Tint; init = Ir.i 0 };
            Ir.simd_sum ~acc:"acc" ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 4)
              ~value:(Ir.f 1.0) [];
          ];
      ]
  in
  expect_error bad "must be a float"

let test_collapse_desugar () =
  let k =
    Ir.kernel ~name:"transpose"
      ~params:
        [
          { Ir.pname = "src"; pty = Ir.P_farray };
          { Ir.pname = "dst"; pty = Ir.P_farray };
          { Ir.pname = "ni"; pty = Ir.P_int };
          { Ir.pname = "nj"; pty = Ir.P_int };
        ]
      [
        Ir.collapsed_distribute_parallel_for
          ~vars:[ ("ii", Ir.v "ni"); ("jj", Ir.v "nj") ]
          [
            Ir.simd ~var:"z" ~lo:(Ir.i 0) ~hi:(Ir.i 1)
              [
                Ir.Store
                  ( "dst",
                    Ir.(Binop (Add, Binop (Mul, v "jj", v "ni"), v "ii")),
                    Ir.Load
                      ("src", Ir.(Binop (Add, Binop (Mul, v "ii", v "nj"), v "jj")))
                  );
              ];
          ];
      ]
  in
  (match Check.kernel k with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "collapse check: %s"
        (String.concat "; " (List.map (fun (e : Check.error) -> e.Check.what) es)));
  let ni = 13 and nj = 17 in
  let space = Memory.space () in
  let src =
    Memory.of_float_array space (Array.init (ni * nj) float_of_int)
  in
  let dst = Memory.falloc space (ni * nj) in
  let p = Outline.run k in
  let (_ : Gpusim.Device.report) =
    Eval.run ~cfg ~options:Compile.default_options
      ~bindings:
        [
          ("src", Compile.B_farr src);
          ("dst", Compile.B_farr dst);
          ("ni", Compile.B_int ni);
          ("nj", Compile.B_int nj);
        ]
      p
  in
  for ii = 0 to ni - 1 do
    for jj = 0 to nj - 1 do
      checkf "transposed"
        (float_of_int ((ii * nj) + jj))
        (Memory.host_get dst ((jj * ni) + ii))
    done
  done

let test_collapse_requires_two () =
  check_bool "one loop rejected" true
    (try
       ignore
         (Ir.collapsed_distribute_parallel_for ~vars:[ ("i", Ir.i 4) ] []);
       false
     with Invalid_argument _ -> true)

let test_schedule_printed_and_used () =
  let k =
    mk_kernel
      [
        Ir.distribute_parallel_for ~sched:(Ir.Sched_chunked 4) ~var:"r"
          ~lo:(Ir.i 0) ~hi:(Ir.v "n")
          [
            Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 2)
              [ Ir.Store ("a", Ir.(Binop (Add, Binop (Mul, v "r", i 2), v "j")), Ir.f 1.0) ];
          ];
      ]
  in
  let p = Outline.run k in
  let src = Printer.kernel_to_string p.Outline.kernel in
  check_bool "schedule rendered" true
    (Astring_like.contains src "schedule(static,4)");
  let space = Memory.space () in
  let n = 50 in
  let a = Memory.falloc space (n * 2) in
  let (_ : Gpusim.Device.report) =
    Eval.run ~cfg ~options:Compile.default_options
      ~bindings:[ ("a", Compile.B_farr a); ("n", Compile.B_int n) ]
      p
  in
  for idx = 0 to (n * 2) - 1 do
    checkf "chunked coverage" 1.0 (Memory.host_get a idx)
  done

(* --- parser ---------------------------------------------------------------- *)

module Parse = Ompir.Parse

let spmv_source = {src|
// sparse matrix-vector product, as the paper writes it
kernel spmv(int* row_ptr, int* col, double* values, double* x, double* y, int n) {
  #pragma omp teams distribute parallel for
  for (r = 0; r < n; r++) {
    int lo = row_ptr[r];
    int hi = row_ptr[r + 1];
    #pragma omp simd
    for (k = lo; k < hi; k++) {
      #pragma omp atomic
      y[r] += values[k] * x[col[k]];
    }
  }
}
|src}

let test_parse_spmv_runs () =
  let k = Parse.kernel spmv_source in
  (match Check.kernel k with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "parsed spmv fails check: %s"
        (String.concat "; " (List.map (fun (e : Check.error) -> e.Check.what) es)));
  let bindings, expected = spmv_instance 90 in
  let p = Outline.run k in
  let (_ : Gpusim.Device.report) =
    Eval.run ~cfg
      ~options:{ Compile.default_options with Compile.simd_len = 8; parallel_mode = `Force Mode.Generic }
      ~bindings p
  in
  let got = y_of bindings in
  Array.iteri
    (fun r e ->
      if abs_float (got.(r) -. e) > 1e-9 then
        Alcotest.failf "parsed spmv row %d: got %f want %f" r got.(r) e)
    expected

let test_parse_reduction_and_clauses () =
  let src = {src|
kernel dots(double* a, double* out, int n) {
  #pragma omp teams distribute parallel for schedule(dynamic,2)
  for (r = 0; r < n; r++) {
    double total = 0.0;
    #pragma omp simd reduction(+:total)
    for (k = 0; k < 8; k++) {
      total += a[(r * 8) + k];
    }
    out[r] = total;
  }
}
|src}
  in
  let k = Parse.kernel src in
  (match Check.kernel k with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "reduction kernel must check");
  (* find the directive forms *)
  let found_dyn = ref false and found_red = ref false in
  ignore
    (Ir.fold_directives
       (fun () s ->
         match s with
         | Ir.Distribute_parallel_for d when d.Ir.sched = Ir.Sched_dynamic 2 ->
             found_dyn := true
         | Ir.Simd_sum { acc = "total"; _ } -> found_red := true
         | _ -> ())
       () k.Ir.body);
  (* Simd_sum is not visited as a directive by fold_directives? it is; but
     double-check by scanning the body shape *)
  (match k.Ir.body with
  | [ Ir.Distribute_parallel_for d ] ->
      check_bool "dynamic schedule parsed" true (d.Ir.sched = Ir.Sched_dynamic 2);
      (match d.Ir.body with
      | [ Ir.Decl _; Ir.Simd_sum { acc = "total"; _ }; Ir.Store _ ] -> ()
      | _ -> Alcotest.fail "unexpected parsed body shape")
  | _ -> Alcotest.fail "unexpected parsed kernel shape");
  ignore (!found_dyn, !found_red);
  (* run it *)
  let n = 24 in
  let space = Memory.space () in
  let a = Memory.of_float_array space (Array.init (n * 8) float_of_int) in
  let out = Memory.falloc space n in
  let (_ : Gpusim.Device.report) =
    Eval.run ~cfg ~options:Compile.default_options
      ~bindings:
        [ ("a", Compile.B_farr a); ("out", Compile.B_farr out); ("n", Compile.B_int n) ]
      (Outline.run k)
  in
  for r = 0 to n - 1 do
    let expected = float_of_int ((r * 8 * 8) + (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7)) in
    checkf "dot" expected (Memory.host_get out r)
  done

let test_parse_expressions () =
  let src = {src|
kernel e(double* a, int n, double alpha) {
  #pragma omp teams distribute parallel for
  for (r = 0; r < n; r++) {
    #pragma omp simd
    for (j = 0; j < 1; j++) {
      double t = sqrt(fabs(alpha)) + min(1.0, alpha) * 2.0;
      int idx = (r * 3 + 1) % n;
      a[idx] = t - (double)(idx == 0);
    }
  }
}
|src}
  in
  let k = Parse.kernel src in
  match Check.kernel k with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "expr kernel fails check: %s"
        (String.concat "; " (List.map (fun (e : Check.error) -> e.Check.what) es))

let test_parse_errors () =
  let expect_syntax src fragment =
    match Parse.kernel src with
    | exception Parse.Syntax_error { message; _ } ->
        check_bool fragment true (Astring_like.contains message fragment)
    | _ -> Alcotest.failf "expected a syntax error (%s)" fragment
  in
  expect_syntax "kernel f() { x = 1 }" "expected";
  expect_syntax "kernel f(float z) { }" "parameter type";
  expect_syntax
    "kernel f(int n) { #pragma omp simd reduction(+:t)
for (j = 0; j < 1; j++) { } }"
    "+=";
  expect_syntax "kernel f(int n) { for (i = 0; j < n; i++) { } }"
    "loop condition"

let test_parse_guarded () =
  let src = {src|
kernel g(double* marks, int n) {
  #pragma omp teams distribute parallel for
  for (r = 0; r < n; r++) {
    guarded {
      marks[r] = 1.0;
    }
    #pragma omp simd
    for (j = 0; j < 4; j++) {
      marks[r] = marks[r];
    }
  }
}
|src}
  in
  let k = Parse.kernel src in
  let guards =
    Ir.fold_directives (fun acc _ -> acc) 0 k.Ir.body |> fun _ ->
    let rec count stmts =
      List.fold_left
        (fun acc s ->
          match s with
          | Ir.Guarded _ -> acc + 1
          | Ir.Distribute_parallel_for d | Ir.Parallel_for d | Ir.Simd d ->
              acc + count d.Ir.body
          | _ -> acc)
        0 stmts
    in
    count k.Ir.body
  in
  check_int "one guarded block" 1 guards

(* --- constant folding ---------------------------------------------------- *)

module Fold = Ompir.Fold

let test_fold_exprs () =
  let cases =
    [
      (Ir.(i 2 + i 3), Ir.Int_lit 5);
      (Ir.(i 10 / i 3), Ir.Int_lit 3);
      (Ir.(Binop (Mod, i 10, i 3)), Ir.Int_lit 1);
      (Ir.(f 1.5 * f 2.0), Ir.Float_lit 3.0);
      (Ir.(v "x" + i 0), Ir.Var "x");
      (Ir.(i 0 + v "x"), Ir.Var "x");
      (Ir.(v "x" * i 1), Ir.Var "x");
      (Ir.(v "x" * i 0), Ir.Int_lit 0);
      (Ir.(Unop (Neg, i 4)), Ir.Int_lit (-4));
      (Ir.(Unop (Sqrt, f 9.0)), Ir.Float_lit 3.0);
      (Ir.(Binop (Max, i 3, i 7)), Ir.Int_lit 7);
      (* nested folding *)
      (Ir.((i 1 + i 1) * (v "y" + i 0)), Ir.(i 2 * v "y"));
    ]
  in
  List.iter
    (fun (input, expected) ->
      check_bool "fold" true (Fold.expr input = expected))
    cases

let test_fold_keeps_effectful_mul_zero () =
  (* a load must survive x*0 (bounds trap) *)
  let e = Ir.(Binop (Mul, Load ("a", v "k"), i 0)) in
  check_bool "load kept" true (Fold.expr e = e)

let test_fold_division_by_zero_kept () =
  let e = Ir.(i 1 / i 0) in
  check_bool "div by zero kept" true (Fold.expr e = e)

let test_fold_stmts () =
  let k =
    mk_kernel
      [
        Ir.If (Ir.(i 1 < i 2), [ Ir.Store ("a", Ir.i 0, Ir.f 1.0) ], []);
        Ir.If (Ir.(i 2 < i 1), [ Ir.Store ("a", Ir.i 1, Ir.f 1.0) ], []);
        Ir.For { var = "z"; lo = Ir.i 5; hi = Ir.i 5; body = [] };
        Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.i 0) [];
      ]
  in
  match (Fold.kernel k).Ir.body with
  | [ Ir.Store ("a", Ir.Int_lit 0, Ir.Float_lit 1.0) ] -> ()
  | body -> Alcotest.failf "unexpected folded body (%d stmts)" (List.length body)

let test_fold_preserves_semantics () =
  (* folded and unfolded spmv agree *)
  let bindings, expected = spmv_instance 80 in
  let folded = Fold.kernel spmv_kernel in
  let p = Outline.run folded in
  let (_ : Gpusim.Device.report) =
    Eval.run ~cfg ~options:Compile.default_options ~bindings p
  in
  Array.iteri
    (fun r e ->
      let got = y_of bindings in
      if abs_float (got.(r) -. e) > 1e-9 then Alcotest.failf "row %d" r)
    expected

(* --- passes: dce / unroll / subst ---------------------------------------- *)

module Passes = Ompir.Passes
module Subst = Ompir.Subst

let test_subst () =
  let body =
    [
      Ir.Decl { name = "t"; ty = Ir.Tint; init = Ir.(v "j" + i 1) };
      Ir.Store ("a", Ir.v "t", Ir.Unop (Ir.To_float, Ir.v "j"));
      Ir.For { var = "j"; lo = Ir.i 0; hi = Ir.i 2;
               body = [ Ir.Store ("a", Ir.v "j", Ir.f 0.0) ] };
    ]
  in
  match Subst.stmts ~var:"j" ~by:(Ir.i 7) body with
  | [
      Ir.Decl { init = Ir.Binop (Ir.Add, Ir.Int_lit 7, Ir.Int_lit 1); _ };
      Ir.Store (_, _, Ir.Unop (Ir.To_float, Ir.Int_lit 7));
      Ir.For { body = [ Ir.Store (_, Ir.Var "j", _) ]; _ };
    ] ->
      () (* the inner for rebinds j: untouched *)
  | _ -> Alcotest.fail "substitution shape"

let test_subst_shadowing_decl () =
  let body =
    [
      Ir.Assign ("x", Ir.v "j");
      Ir.Decl { name = "j"; ty = Ir.Tint; init = Ir.i 0 };
      Ir.Assign ("x", Ir.v "j");
    ]
  in
  match Subst.stmts ~var:"j" ~by:(Ir.i 5) body with
  | [ Ir.Assign (_, Ir.Int_lit 5); Ir.Decl _; Ir.Assign (_, Ir.Var "j") ] -> ()
  | _ -> Alcotest.fail "decl shadowing"

let test_dce () =
  let k =
    mk_kernel
      [
        Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
          [
            Ir.Decl { name = "dead"; ty = Ir.Tint; init = Ir.i 1 };
            Ir.Decl { name = "live"; ty = Ir.Tint; init = Ir.i 2 };
            (* a decl whose init loads must survive even if unread *)
            Ir.Decl { name = "trapping"; ty = Ir.Tfloat; init = Ir.Load ("a", Ir.i 0) };
            Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 4)
              [ Ir.Store ("a", Ir.(v "r" + v "j" + v "live"), Ir.f 1.0) ];
          ];
      ]
  in
  let k' = Passes.dce.Passes.transform k in
  match k'.Ir.body with
  | [ Ir.Distribute_parallel_for d ] -> (
      match d.Ir.body with
      | [ Ir.Decl { name = "live"; _ }; Ir.Decl { name = "trapping"; _ }; Ir.Simd _ ] -> ()
      | body -> Alcotest.failf "dce left %d stmts" (List.length body))
  | _ -> Alcotest.fail "dce kernel shape"

let test_unroll () =
  let k =
    mk_kernel
      [
        Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
          [
            Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 4)
              [
                Ir.Decl { name = "t"; ty = Ir.Tint; init = Ir.(v "r" * i 4 + v "j") };
                Ir.Store ("a", Ir.v "t", Ir.Unop (Ir.To_float, Ir.v "j"));
              ];
          ];
      ]
  in
  let k' = (Passes.unroll ()).Passes.transform k in
  (* still checks (fresh decl names per replica) *)
  (match Check.kernel k' with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "unrolled kernel fails check: %s"
        (String.concat "; " (List.map (fun (e : Check.error) -> e.Check.what) es)));
  (match k'.Ir.body with
  | [ Ir.Distribute_parallel_for d ] ->
      check_int "8 replica stmts" 8 (List.length d.Ir.body)
  | _ -> Alcotest.fail "unroll shape");
  (* and computes the same thing *)
  let n = 20 in
  let run kernel =
    let space = Memory.space () in
    let a = Memory.falloc space (n * 4) in
    let (_ : Gpusim.Device.report) =
      Eval.run ~cfg ~options:Compile.default_options
        ~bindings:[ ("a", Compile.B_farr a); ("n", Compile.B_int n) ]
        (Outline.run kernel)
    in
    Memory.to_float_array a
  in
  Alcotest.(check (array (float 1e-9))) "same results" (run k) (run k')

let test_unroll_skips_atomics_and_big_trips () =
  let with_atomic =
    mk_kernel
      [
        Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
          [
            Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 2)
              [ Ir.Atomic_add ("a", Ir.i 0, Ir.f 1.0) ];
          ];
      ]
  in
  let k' = (Passes.unroll ()).Passes.transform with_atomic in
  check_bool "atomic body kept as a loop" true
    (Ir.fold_directives
       (fun acc s -> acc || match s with Ir.Simd _ -> true | _ -> false)
       false k'.Ir.body);
  let big =
    mk_kernel
      [
        Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
          [ Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 100) [] ];
      ]
  in
  let k'' = (Passes.unroll ()).Passes.transform big in
  check_bool "big trip kept as a loop" true
    (Ir.fold_directives
       (fun acc s -> acc || match s with Ir.Simd _ -> true | _ -> false)
       false k''.Ir.body)

let test_run_verified () =
  match Passes.run_verified Passes.default_pipeline spmv_kernel with
  | Ok _ -> ()
  | Error (name, _) -> Alcotest.failf "pipeline broke at %s" name

(* Random kernels from the printable subset, for the printer ↔ parser
   round-trip property.  Purely syntactic — the kernels are never run —
   but literals stay quarter-valued and non-negative so their decimal
   rendering re-reads to the same bits, and array loads/stores use the
   declared parameter arrays so the parser can re-type them. *)
let roundtrip_arbitrary =
  let open QCheck in
  let int_leaf st =
    List.nth
      [ Ir.Int_lit (Gen.int_range 0 9 st); Ir.Var "n"; Ir.Var "i"; Ir.Var "j" ]
      (Gen.int_range 0 3 st)
  in
  let rec gen_iexpr depth st =
    if depth = 0 then int_leaf st
    else
      match Gen.int_range 0 4 st with
      | 0 -> int_leaf st
      | 1 -> Ir.Binop (Ir.Add, gen_iexpr (depth - 1) st, gen_iexpr (depth - 1) st)
      | 2 -> Ir.Binop (Ir.Mul, gen_iexpr (depth - 1) st, gen_iexpr (depth - 1) st)
      | 3 -> Ir.Binop (Ir.Mod, gen_iexpr (depth - 1) st, Ir.Var "n")
      | _ -> Ir.Binop (Ir.Min, gen_iexpr (depth - 1) st, gen_iexpr (depth - 1) st)
  in
  let float_leaf st =
    match Gen.int_range 0 2 st with
    | 0 -> Ir.Float_lit (float_of_int (Gen.int_range 0 12 st) /. 4.0)
    | 1 -> Ir.Var "x"
    | _ -> Ir.Load ("src", Ir.Binop (Ir.Mod, Ir.Var "i", Ir.Var "n"))
  in
  let rec gen_fexpr depth st =
    if depth = 0 then float_leaf st
    else
      match Gen.int_range 0 5 st with
      | 0 -> float_leaf st
      | 1 -> Ir.Binop (Ir.Add, gen_fexpr (depth - 1) st, gen_fexpr (depth - 1) st)
      | 2 -> Ir.Binop (Ir.Mul, gen_fexpr (depth - 1) st, gen_fexpr (depth - 1) st)
      | 3 -> Ir.Unop (Ir.Abs, gen_fexpr (depth - 1) st)
      | 4 -> Ir.Unop (Ir.Sqrt, gen_fexpr (depth - 1) st)
      | _ -> Ir.Binop (Ir.Max, gen_fexpr (depth - 1) st, gen_fexpr (depth - 1) st)
  in
  let gen_cond st =
    Ir.Binop
      ( List.nth [ Ir.Lt; Ir.Le; Ir.Eq; Ir.Ne ] (Gen.int_range 0 3 st),
        gen_iexpr 1 st,
        gen_iexpr 1 st )
  in
  let gen_sched st =
    List.nth
      [ Ir.Sched_static; Ir.Sched_chunked 4; Ir.Sched_dynamic 2 ]
      (Gen.int_range 0 2 st)
  in
  let rec gen_stmt depth st =
    match Gen.int_range 0 (if depth = 0 then 4 else 9) st with
    | 0 ->
        Ir.Decl
          {
            name = Printf.sprintf "d%d" (Gen.int_range 0 3 st);
            ty = Ir.Tfloat;
            init = gen_fexpr 2 st;
          }
    | 1 -> Ir.Store ("out", gen_iexpr 2 st, gen_fexpr 2 st)
    | 2 -> Ir.Atomic_add ("out", gen_iexpr 1 st, gen_fexpr 1 st)
    | 3 -> Ir.Assign ("t", gen_fexpr 2 st)
    | 4 -> Ir.Sync
    | 5 ->
        Ir.If
          ( gen_cond st,
            gen_block (depth - 1) st,
            if Gen.bool st then gen_block (depth - 1) st else [] )
    | 6 ->
        Ir.For
          {
            var = "w";
            lo = Ir.Int_lit 0;
            hi = gen_iexpr 1 st;
            body = gen_block (depth - 1) st;
          }
    | 7 ->
        Ir.simd ~var:"j" ~lo:(Ir.Int_lit 0) ~hi:(Ir.Var "n")
          (gen_block (depth - 1) st)
    | 8 ->
        Ir.simd_sum ~acc:"t" ~var:"j" ~lo:(Ir.Int_lit 0) ~hi:(Ir.Var "n")
          ~value:(gen_fexpr 1 st)
          (gen_block (depth - 1) st)
    | _ -> Ir.Guarded (gen_block (depth - 1) st)
  and gen_block depth st =
    let k = Gen.int_range 1 3 st in
    List.init k (fun _ -> gen_stmt depth st)
  in
  let gen_kernel st =
    let body =
      [
        Ir.Decl { name = "t"; ty = Ir.Tfloat; init = Ir.Float_lit 0.0 };
        Ir.distribute_parallel_for ~sched:(gen_sched st) ~var:"i"
          ~lo:(Ir.Int_lit 0) ~hi:(Ir.Var "n") (gen_block 2 st);
      ]
    in
    Ir.kernel ~name:"roundtrip"
      ~params:
        [
          { Ir.pname = "src"; pty = Ir.P_farray };
          { Ir.pname = "out"; pty = Ir.P_farray };
          { Ir.pname = "n"; pty = Ir.P_int };
          { Ir.pname = "x"; pty = Ir.P_float };
        ]
      body
  in
  QCheck.make
    ~print:(fun k -> Ompir.Printer.kernel_to_string k)
    gen_kernel

let qcheck_cases =
  let open QCheck in
  (* random well-typed float expression over a small environment; Div/Mod
     denominators are nonzero literals so evaluation cannot trap *)
  let rec gen_fexpr depth st =
    if depth = 0 then
      match Gen.int_range 0 2 st with
      | 0 -> Ir.Float_lit (float_of_int (Gen.int_range (-8) 8 st) /. 4.0)
      | 1 -> Ir.Var "x"
      | _ -> Ir.Var "y"
    else
      match Gen.int_range 0 5 st with
      | 0 ->
          Ir.Binop (Ir.Add, gen_fexpr (depth - 1) st, gen_fexpr (depth - 1) st)
      | 1 ->
          Ir.Binop (Ir.Sub, gen_fexpr (depth - 1) st, gen_fexpr (depth - 1) st)
      | 2 ->
          Ir.Binop (Ir.Mul, gen_fexpr (depth - 1) st, gen_fexpr (depth - 1) st)
      | 3 ->
          Ir.Binop
            ( Ir.Div,
              gen_fexpr (depth - 1) st,
              Ir.Float_lit (float_of_int (Gen.int_range 1 4 st)) )
      | 4 -> Ir.Unop (Ir.Abs, gen_fexpr (depth - 1) st)
      | _ ->
          Ir.Binop (Ir.Max, gen_fexpr (depth - 1) st, gen_fexpr (depth - 1) st)
  in
  let fexpr_arbitrary =
    QCheck.make
      ~print:(fun e -> Format.asprintf "%a" Ompir.Printer.pp_expr e)
      (gen_fexpr 4)
  in
  [
    Test.make ~name:"fold preserves expression values" ~count:300
      fexpr_arbitrary
      (fun e ->
        (* evaluate folded and unfolded via the host interpreter on a
           one-store kernel *)
        let mk expr =
          Ir.kernel ~name:"probe"
            ~params:
              [
                { Ir.pname = "out"; pty = Ir.P_farray };
                { Ir.pname = "x"; pty = Ir.P_float };
                { Ir.pname = "y"; pty = Ir.P_float };
              ]
            [ Ir.Store ("out", Ir.Int_lit 0, expr) ]
        in
        let eval_with kernel =
          let space = Memory.space () in
          let out = Memory.falloc space 1 in
          Hosteval.run
            ~bindings:
              [
                ("out", Compile.B_farr out);
                ("x", Compile.B_float 1.25);
                ("y", Compile.B_float (-0.5));
              ]
            kernel;
          Memory.host_get out 0
        in
        let plain = eval_with (mk e) in
        let folded = eval_with (mk (Ompir.Fold.expr e)) in
        plain = folded
        || (Float.is_nan plain && Float.is_nan folded)
        || abs_float (plain -. folded)
           <= 1e-9 *. Float.max 1.0 (abs_float plain));
    Test.make ~name:"IR spmv matches reference for random sizes" ~count:10
      (pair (int_range 8 120) (int_range 0 4))
      (fun (rows, gs_idx) ->
        let simd_len = List.nth [ 1; 2; 8; 16; 32 ] gs_idx in
        let got, expected = run_spmv_ir ~parallel_mode:`Auto ~simd_len rows in
        Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) got expected);
    Test.make ~name:"printer/parser round-trip" ~count:200 roundtrip_arbitrary
      (fun k -> Ompir.Parse.kernel (Ompir.Printer.kernel_to_string k) = k);
    Test.make ~name:"digest survives printer/parser round-trip" ~count:200
      roundtrip_arbitrary
      (fun k ->
        Ompir.Kdigest.hex (Ompir.Parse.kernel (Ompir.Printer.kernel_to_string k))
        = Ompir.Kdigest.hex k);
  ]

let suite =
  [
    ( "ompir.check",
      [
        Alcotest.test_case "accepts good kernels" `Quick test_check_accepts_good;
        Alcotest.test_case "unbound var" `Quick test_check_unbound_var;
        Alcotest.test_case "type mismatch" `Quick test_check_type_mismatch;
        Alcotest.test_case "simd position" `Quick test_check_simd_position;
        Alcotest.test_case "captured assign in simd" `Quick
          test_check_simd_captured_assign;
        Alcotest.test_case "loop var assign" `Quick test_check_loop_var_assign;
        Alcotest.test_case "array kind" `Quick test_check_array_kind;
      ] );
    ( "ompir.outline",
      [
        Alcotest.test_case "free vars" `Quick test_free_vars;
        Alcotest.test_case "ids and captures" `Quick test_outline_ids_and_captures;
        Alcotest.test_case "annotates ast" `Quick test_outline_annotates_ast;
      ] );
    ( "ompir.globalize",
      [
        Alcotest.test_case "spmv locals" `Quick test_globalize_spmv;
        Alcotest.test_case "none needed" `Quick test_globalize_none_needed;
      ] );
    ("ompir.spmdize", [ Alcotest.test_case "tight nesting" `Quick test_spmdize ]);
    ("ompir.printer", [ Alcotest.test_case "renders pragmas" `Quick test_printer ]);
    ( "ompir.extensions",
      [
        Alcotest.test_case "simd reduction eval" `Quick test_simd_sum_eval;
        Alcotest.test_case "simd reduction outline/check" `Quick
          test_simd_sum_outline_and_check;
        Alcotest.test_case "reduction acc type" `Quick
          test_simd_sum_check_rejects_int_acc;
        Alcotest.test_case "collapse desugar" `Quick test_collapse_desugar;
        Alcotest.test_case "collapse arity" `Quick test_collapse_requires_two;
        Alcotest.test_case "schedule clause" `Quick test_schedule_printed_and_used;
      ] );
    ( "ompir.parse",
      [
        Alcotest.test_case "spmv source runs" `Quick test_parse_spmv_runs;
        Alcotest.test_case "reduction and clauses" `Quick
          test_parse_reduction_and_clauses;
        Alcotest.test_case "expressions" `Quick test_parse_expressions;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "guarded" `Quick test_parse_guarded;
      ] );
    ( "ompir.fold",
      [
        Alcotest.test_case "expressions" `Quick test_fold_exprs;
        Alcotest.test_case "effectful mul zero" `Quick test_fold_keeps_effectful_mul_zero;
        Alcotest.test_case "div by zero kept" `Quick test_fold_division_by_zero_kept;
        Alcotest.test_case "statements" `Quick test_fold_stmts;
        Alcotest.test_case "semantics preserved" `Quick test_fold_preserves_semantics;
      ] );
    ( "ompir.hosteval",
      [
        Alcotest.test_case "basics" `Quick test_hosteval_basics;
        Alcotest.test_case "binding errors" `Quick test_hosteval_binding_errors;
      ] );
    ( "ompir.eval",
      [
        Alcotest.test_case "spmv all modes" `Quick test_eval_spmv_modes;
        Alcotest.test_case "scale kernel" `Quick test_eval_scale_kernel;
        Alcotest.test_case "generic auto" `Quick test_eval_generic_kernel_auto;
        Alcotest.test_case "binding errors" `Quick test_eval_binding_errors;
        Alcotest.test_case "mode cost ordering" `Quick test_eval_costs_differ_by_mode;
      ] );
    ( "ompir.passes",
      [
        Alcotest.test_case "substitution" `Quick test_subst;
        Alcotest.test_case "subst shadowing" `Quick test_subst_shadowing_decl;
        Alcotest.test_case "dce" `Quick test_dce;
        Alcotest.test_case "unroll" `Quick test_unroll;
        Alcotest.test_case "unroll guards" `Quick
          test_unroll_skips_atomics_and_big_trips;
        Alcotest.test_case "run_verified" `Quick test_run_verified;
      ] );
    ("ompir.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
