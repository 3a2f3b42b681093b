(* Tests for the public OpenMP frontend: directive facade, clauses, the
   host data environment, and the IR offload pipeline. *)

module Memory = Gpusim.Memory
module Mode = Omprt.Mode
module Clause = Openmp.Clause
module Data_env = Openmp.Data_env
module Omp = Openmp.Omp
module Offload = Openmp.Offload
module Ir = Ompir.Ir

let cfg = Gpusim.Config.small
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- clauses ---------------------------------------------------------- *)

let test_clause_defaults () =
  let params, parallel_mode, simdlen = Clause.resolve ~cfg Clause.none in
  check_int "teams default 2/SM" (2 * cfg.Gpusim.Config.num_sms)
    params.Omprt.Team.num_teams;
  check_int "threads default" 128 params.Omprt.Team.num_threads;
  check_bool "spmd default" true (params.Omprt.Team.teams_mode = Mode.Spmd);
  check_bool "parallel spmd" true (parallel_mode = Mode.Spmd);
  check_int "simdlen 1" 1 simdlen

let test_clause_composition () =
  let clauses =
    Clause.(
      none |> num_teams 7 |> num_threads 64 |> simdlen 8
      |> parallel_mode Mode.Generic |> sharing_bytes 1024)
  in
  let params, parallel_mode, simdlen = Clause.resolve ~cfg clauses in
  check_int "teams" 7 params.Omprt.Team.num_teams;
  check_int "threads" 64 params.Omprt.Team.num_threads;
  check_int "simdlen" 8 simdlen;
  check_int "sharing" 1024 params.Omprt.Team.sharing_bytes;
  check_bool "generic parallel" true (parallel_mode = Mode.Generic)

let test_clause_validation () =
  check_bool "bad simdlen" true
    (try
       ignore (Clause.resolve ~cfg Clause.(none |> simdlen 5));
       false
     with Invalid_argument _ -> true);
  check_bool "bad teams" true
    (try
       ignore (Clause.resolve ~cfg Clause.(none |> num_teams 0));
       false
     with Invalid_argument _ -> true);
  (* launch geometry is checked against the device up front *)
  let geometry c = Clause.check_geometry ~cfg c in
  check_bool "threads off the warp" true
    (Result.is_error (geometry Clause.(none |> num_threads 48)));
  check_bool "resolve refuses it too" true
    (try
       ignore (Clause.resolve ~cfg Clause.(none |> num_threads 48));
       false
     with Invalid_argument _ -> true);
  let limit = cfg.Gpusim.Config.max_threads_per_block in
  check_bool "a full spmd block fits" true
    (geometry Clause.(none |> num_threads limit) = Ok ());
  check_bool "the generic main warp counts against the limit" true
    (Result.is_error
       (geometry Clause.(none |> num_threads limit |> teams_mode Mode.Generic)));
  check_bool "the defaults fit" true (geometry Clause.none = Ok ())

(* --- directive facade -------------------------------------------------- *)

let clauses3 ~simdlen:n ~mode =
  Clause.(none |> num_teams 4 |> num_threads 64 |> simdlen n |> parallel_mode mode)

let test_facade_three_level () =
  let space = Memory.space () in
  let rows = 37 and len = 19 in
  let out = Memory.falloc space (rows * len) in
  List.iter
    (fun (gs, mode) ->
      Memory.fill out 0.0;
      let (_ : Gpusim.Device.report) =
        Omp.target_teams ~cfg ~clauses:(clauses3 ~simdlen:gs ~mode) (fun ctx ->
            Omp.distribute_parallel_for ctx ~trip:rows (fun r ->
                Omp.simd ctx ~trip:len (fun j ->
                    Memory.fset out ctx.Omprt.Team.th
                      ((r * len) + j)
                      (float_of_int ((r * len) + j)))))
      in
      for idx = 0 to (rows * len) - 1 do
        checkf "identity" (float_of_int idx) (Memory.host_get out idx)
      done)
    [ (8, Mode.Generic); (4, Mode.Spmd); (1, Mode.Spmd); (32, Mode.Generic) ]

let test_facade_two_level () =
  (* teams distribute + inner parallel for: the paper's baseline shape *)
  let space = Memory.space () in
  let rows = 10 and len = 33 in
  let out = Memory.falloc space (rows * len) in
  let (_ : Gpusim.Device.report) =
    Omp.target_teams_distribute ~cfg
      ~clauses:Clause.(none |> num_teams 3 |> num_threads 32)
      ~trip:rows
      (fun ctx r ->
        Omp.parallel_for ctx ~trip:len (fun j ->
            Memory.fset out ctx.Omprt.Team.th
              ((r * len) + j)
              (float_of_int r)))
  in
  for idx = 0 to (rows * len) - 1 do
    checkf "row id" (float_of_int (idx / len)) (Memory.host_get out idx)
  done

let test_facade_queries () =
  let seen_threads = ref (-1) and seen_width = ref (-1) in
  let (_ : Gpusim.Device.report) =
    Omp.target_teams ~cfg ~clauses:(clauses3 ~simdlen:8 ~mode:Mode.Spmd)
      (fun ctx ->
        if Omp.team_num ctx = 0 && Omp.thread_num ctx = 0 then begin
          seen_threads := Omp.num_threads ctx;
          seen_width := Omp.simd_width ctx
        end)
  in
  check_int "omp threads = groups" 8 !seen_threads;
  check_int "simd width" 8 !seen_width

let test_facade_simd_sum () =
  let total = ref 0.0 in
  let (_ : Gpusim.Device.report) =
    Omp.target_teams ~cfg
      ~clauses:Clause.(none |> num_teams 1 |> num_threads 32 |> simdlen 8
                       |> parallel_mode Mode.Generic)
      (fun ctx ->
        if Omp.thread_num ctx = 0 then
          total := Omp.simd_sum ctx ~trip:100 (fun i -> float_of_int i))
  in
  checkf "sum 0..99" 4950.0 !total

let test_facade_collapse () =
  Omp.collapse2 ~n1:3 ~n2:5 (fun decode ->
      check_bool "decode" true (decode 7 = (1, 2));
      check_bool "first" true (decode 0 = (0, 0));
      check_bool "last" true (decode 14 = (2, 4)));
  Omp.collapse3 ~n1:2 ~n2:3 ~n3:4 (fun decode ->
      check_bool "3d" true (decode 23 = (1, 2, 3)))

let test_facade_barrier_counts () =
  (* a barrier inside the region must synchronize exactly the executing
     threads — deadlock-free in both modes *)
  List.iter
    (fun mode ->
      let (_ : Gpusim.Device.report) =
        Omp.target_teams ~cfg ~clauses:(clauses3 ~simdlen:8 ~mode) (fun ctx ->
            Omp.distribute_parallel_for ctx ~trip:16 (fun _ -> ());
            Omp.barrier ctx;
            Omp.distribute_parallel_for ctx ~trip:16 (fun _ -> ()))
      in
      ())
    [ Mode.Spmd; Mode.Generic ]

let test_facade_single_master () =
  let space = Memory.space () in
  let singles = Memory.ialloc space 1 and masters = Memory.ialloc space 1 in
  List.iter
    (fun mode ->
      Memory.host_seti singles 0 0;
      Memory.host_seti masters 0 0;
      let (_ : Gpusim.Device.report) =
        Omp.target_teams ~cfg
          ~clauses:(clauses3 ~simdlen:8 ~mode)
          (fun ctx ->
            Omp.single ctx (fun () ->
                ignore (Memory.atomic_iadd singles ctx.Omprt.Team.th 0 1));
            Omp.master ctx (fun () ->
                ignore (Memory.atomic_iadd masters ctx.Omprt.Team.th 0 1)))
      in
      (* 4 teams: once per team for both constructs *)
      check_int "single once per team" 4 (Memory.host_geti singles 0);
      check_int "master once per team" 4 (Memory.host_geti masters 0))
    [ Mode.Spmd; Mode.Generic ]

let test_facade_dynamic_schedule () =
  let space = Memory.space () in
  let n = 77 in
  let out = Memory.falloc space n in
  let (_ : Gpusim.Device.report) =
    Omp.target_teams ~cfg ~clauses:(clauses3 ~simdlen:4 ~mode:Mode.Spmd)
      (fun ctx ->
        Omp.for_ ctx ~schedule:(Clause.Dynamic 3) ~trip:n (fun i ->
            Omp.simd ctx ~trip:1 (fun _ ->
                Memory.fset out ctx.Omprt.Team.th i 1.0)))
  in
  for i = 0 to n - 1 do
    checkf "dynamic covered" 1.0 (Memory.host_get out i)
  done

(* --- data environment --------------------------------------------------- *)

let test_data_env_roundtrip () =
  let env = Data_env.create () in
  let host = Array.init 100 float_of_int in
  let m = Data_env.map_to env ~name:"x" host in
  check_int "h2d bytes" 800 (Data_env.h2d_bytes env);
  let back = Data_env.map_from env m in
  check_int "d2h bytes" 800 (Data_env.d2h_bytes env);
  Alcotest.(check (array (float 0.0))) "roundtrip" host back;
  check_bool "transfer cycles > 0" true (Data_env.transfer_cycles env > 0.0)

let test_data_env_target_data () =
  let env = Data_env.create () in
  let (_, cycles) =
    Data_env.with_target_data env (fun env ->
        ignore (Data_env.map_to env ~name:"a" (Array.make 1000 1.0)))
  in
  checkf "region cycles" (8000.0 /. 23.0) cycles

let test_data_env_alloc_no_transfer () =
  let env = Data_env.create () in
  let (_ : Gpusim.Memory.farray Data_env.mapping) =
    Data_env.map_alloc env ~name:"scratch" 64
  in
  check_int "no h2d" 0 (Data_env.h2d_bytes env)

(* --- offload pipeline ----------------------------------------------------- *)

let saxpy_kernel =
  Ir.kernel ~name:"saxpy"
    ~params:
      [
        { Ir.pname = "x"; pty = Ir.P_farray };
        { Ir.pname = "y"; pty = Ir.P_farray };
        { Ir.pname = "a"; pty = Ir.P_float };
        { Ir.pname = "n"; pty = Ir.P_int };
      ]
    [
      Ir.distribute_parallel_for ~var:"blk" ~lo:(Ir.i 0) ~hi:Ir.(v "n" / i 8)
        [
          Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 8)
            [
              Ir.Decl
                {
                  name = "idx";
                  ty = Ir.Tint;
                  init = Ir.(Binop (Add, Binop (Mul, v "blk", i 8), v "j"));
                };
              Ir.Store
                ( "y",
                  Ir.v "idx",
                  Ir.(
                    Binop
                      ( Add,
                        Binop (Mul, v "a", Load ("x", v "idx")),
                        Load ("y", v "idx") )) );
            ];
        ];
    ]

(* --- the evaluator allocates nothing per iteration --------------------- *)

(* A region body with float and int declarations, a sequential loop
   that reassigns a float, and a simd loop storing a float expression
   of outer scalars, loads and its loop variable. *)
let alloc_pin_kernel =
  Ir.kernel ~name:"alloc_pin"
    ~params:
      [
        { Ir.pname = "a"; pty = Ir.P_farray };
        { Ir.pname = "out"; pty = Ir.P_farray };
        { Ir.pname = "n"; pty = Ir.P_int };
        { Ir.pname = "w"; pty = Ir.P_int };
        { Ir.pname = "scale"; pty = Ir.P_float };
      ]
    Ir.
      [
        distribute_parallel_for ~var:"i" ~lo:(i 0) ~hi:(v "n")
          [
            Decl
              {
                name = "s";
                ty = Tfloat;
                init = (Load ("a", v "i") * v "scale") + f 1.0;
              };
            Decl { name = "k"; ty = Tint; init = Binop (Mod, v "i" * i 3, i 7) };
            For
              {
                var = "t";
                lo = i 0;
                hi = i 2;
                body =
                  [ Assign ("s", (v "s" * f 0.5) + Unop (To_float, v "k")) ];
              };
            simd ~var:"j" ~lo:(i 0) ~hi:(v "w")
              [
                Store
                  ( "out",
                    (v "i" * v "w") + v "j",
                    (v "s" * Load ("a", (v "i" * v "w") + v "j"))
                    + Unop (To_float, v "j") );
              ];
          ];
      ]

(* Minor words of the second of two launches on a sequential pool (the
   first builds what the pool carries), as [test_omprt]'s launch-state
   pins measure them. *)
let alloc_pin_words ~n ~w =
  match Offload.compile alloc_pin_kernel with
  | Error _ -> Alcotest.fail "alloc_pin must compile"
  | Ok compiled ->
      let pool = Gpusim.Pool.create () in
      let launch () =
        let space = Memory.space () in
        let bindings =
          [
            ("a", Ompir.Compile.B_farr (Memory.of_float_array space (Array.make (n * w) 0.5)));
            ("out", Ompir.Compile.B_farr (Memory.falloc space (n * w)));
            ("n", Ompir.Compile.B_int n);
            ("w", Ompir.Compile.B_int w);
            ("scale", Ompir.Compile.B_float 3.0);
          ]
        in
        let clauses = Clause.(none |> num_teams 2 |> num_threads 64 |> simdlen 8) in
        let w0 = Gc.minor_words () in
        ignore (Offload.run ~cfg ~pool ~clauses ~bindings compiled : Gpusim.Device.report);
        Gc.minor_words () -. w0
      in
      ignore (launch () : float);
      launch ()

(* Doubling the trip count adds n region iterations — the region is
   SPMD, so each runs on the 8 lanes of a SIMD group: its declarations,
   two sequential-loop iterations and a simd entry — and n * w
   simd-body iterations.  Measured: 1.83 minor words per extra
   lane-iteration, of which the simulator's rendezvous at each simd
   entry take 1.17 and the simd payload's float capture [s], a boxed
   [float ref] rewritten on each entry, 0.67; the bound is that plus
   about 20%, as for the launch-state pins.  One boxed float per simd
   iteration, or per region iteration and lane, breaks it; the
   evaluator that boxed every value and made a frame per iteration
   allocated 65. *)
let test_offload_alloc_per_iteration () =
  let n = 64 and w = 16 in
  let lane_iterations = float_of_int ((n * 8) + (n * w)) in
  let extra = alloc_pin_words ~n:(2 * n) ~w -. alloc_pin_words ~n ~w in
  let per = extra /. lane_iterations in
  if per > 2.2 then
    Alcotest.failf
      "evaluator: %.2f minor words per extra lane-iteration (bound 2.2)" per

let test_offload_pipeline () =
  match Offload.compile saxpy_kernel with
  | Error _ -> Alcotest.fail "saxpy must compile"
  | Ok compiled ->
      let remarks = Offload.remarks compiled in
      check_bool "mentions outlining" true
        (List.exists (fun r -> Astring_like.contains r "outlined fn") remarks);
      check_bool "spmd verdict" true
        (List.exists (fun r -> Astring_like.contains r "spmd mode") remarks);
      let env = Data_env.create () in
      let n = 128 in
      let x = Data_env.map_to env ~name:"x" (Array.init n float_of_int) in
      let y = Data_env.map_to env ~name:"y" (Array.make n 1.0) in
      let (_ : Gpusim.Device.report) =
        Offload.run ~cfg
          ~clauses:Clause.(none |> num_teams 2 |> num_threads 64 |> simdlen 8)
          ~bindings:
            [
              ("x", Ompir.Compile.B_farr x.Data_env.device);
              ("y", Ompir.Compile.B_farr y.Data_env.device);
              ("a", Ompir.Compile.B_float 3.0);
              ("n", Ompir.Compile.B_int n);
            ]
          compiled
      in
      let result = Data_env.map_from env y in
      Array.iteri
        (fun idx v -> checkf "saxpy" ((3.0 *. float_of_int idx) +. 1.0) v)
        result

(* A kernel whose parallel body has a sequential side effect: generic by
   default, SPMD after guardization (§7 / [16]). *)
let guarded_kernel =
  Ir.kernel ~name:"rowsum_with_mark"
    ~params:
      [
        { Ir.pname = "a"; pty = Ir.P_farray };
        { Ir.pname = "marks"; pty = Ir.P_farray };
        { Ir.pname = "counts"; pty = Ir.P_iarray };
        { Ir.pname = "n"; pty = Ir.P_int };
      ]
    [
      Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
        [
          (* sequential side effects: a store and an exactly-once probe *)
          Ir.Store ("marks", Ir.v "r", Ir.f 1.0);
          Ir.Store_int ("counts", Ir.v "r", Ir.(Load_int ("counts", v "r") + i 1));
          Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 8)
            [
              Ir.Store
                ("a", Ir.(Binop (Add, Binop (Mul, v "r", i 8), v "j")), Ir.f 2.0);
            ];
        ];
    ]

let run_guarded ~guardize ~parallel_mode =
  let n = 48 in
  let space = Gpusim.Memory.space () in
  let a = Memory.falloc space (n * 8) in
  let marks = Memory.falloc space n in
  let counts = Memory.ialloc space n in
  match Offload.compile ~guardize guarded_kernel with
  | Error _ -> Alcotest.fail "guarded kernel must compile"
  | Ok compiled ->
      let clauses =
        match parallel_mode with
        | Some m ->
            Clause.(none |> num_teams 2 |> num_threads 64 |> simdlen 8
                    |> Clause.parallel_mode m)
        | None -> Clause.(none |> num_teams 2 |> num_threads 64 |> simdlen 8)
      in
      let report =
        Offload.run ~cfg ~clauses
          ~bindings:
            [
              ("a", Ompir.Compile.B_farr a);
              ("marks", Ompir.Compile.B_farr marks);
              ("counts", Ompir.Compile.B_iarr counts);
              ("n", Ompir.Compile.B_int n);
            ]
          compiled
      in
      (compiled, report, a, marks, counts, n)

let test_guardize_spmdizes () =
  let compiled, _, a, marks, counts, n = run_guarded ~guardize:true ~parallel_mode:None in
  check_int "guards inserted" 1 compiled.Offload.guards_inserted;
  check_bool "region now SPMD" true
    (List.for_all (fun (_, m) -> m = Mode.Spmd) compiled.Offload.region_modes);
  for r = 0 to n - 1 do
    checkf "marked" 1.0 (Memory.host_get marks r);
    (* the probe increments a plain (non-atomic) counter: exactly-once
       means it ends at 1 even though 8 lanes execute the region *)
    check_int "exactly once" 1 (Memory.host_geti counts r)
  done;
  for idx = 0 to (n * 8) - 1 do
    checkf "simd stores" 2.0 (Memory.host_get a idx)
  done

let test_guardize_remark () =
  match Offload.compile ~guardize:true guarded_kernel with
  | Error _ -> Alcotest.fail "must compile"
  | Ok compiled ->
      check_bool "remark mentions guards" true
        (List.exists
           (fun r -> Astring_like.contains r "SPMDized")
           (Offload.remarks compiled))

let test_guardize_cost_ordering () =
  (* §6.5: guarded SPMD should beat the generic state machine, but pure
     SPMD (no guards needed) stays ahead of both. *)
  let time (compiled, report, _, _, _, _) =
    ignore compiled;
    report.Gpusim.Device.time_cycles
  in
  let generic = time (run_guarded ~guardize:false ~parallel_mode:None) in
  let guarded = time (run_guarded ~guardize:true ~parallel_mode:None) in
  check_bool "guarded SPMD beats generic" true (guarded < generic)

let test_guardize_never_wraps_directives () =
  (* an If carrying both a store and a simd loop cannot be guarded —
     wrapping the simd loop would desynchronize its group protocol; the
     region must simply stay generic *)
  let k =
    Ir.kernel ~name:"mixed"
      ~params:
        [ { Ir.pname = "a"; pty = Ir.P_farray }; { Ir.pname = "n"; pty = Ir.P_int } ]
      [
        Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
          [
            Ir.If
              ( Ir.(Binop (Eq, Binop (Mod, v "r", i 2), i 0)),
                [
                  Ir.Store ("a", Ir.v "r", Ir.f 1.0);
                  Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i 2) [];
                ],
                [] );
          ];
      ]
  in
  match Offload.compile ~guardize:true k with
  | Error _ -> Alcotest.fail "mixed kernel must compile"
  | Ok compiled ->
      check_int "no guards inserted" 0 compiled.Offload.guards_inserted;
      check_bool "region stays generic" true
        (List.for_all (fun (_, m) -> m = Mode.Generic) compiled.Offload.region_modes);
      (* and it still runs correctly *)
      let space = Gpusim.Memory.space () in
      let a = Memory.falloc space 20 in
      let (_ : Gpusim.Device.report) =
        Offload.run ~cfg
          ~clauses:Clause.(none |> num_teams 2 |> num_threads 32 |> simdlen 8)
          ~bindings:[ ("a", Ompir.Compile.B_farr a); ("n", Ompir.Compile.B_int 20) ]
          compiled
      in
      for r = 0 to 19 do
        checkf "even rows marked"
          (if r mod 2 = 0 then 1.0 else 0.0)
          (Memory.host_get a r)
      done

let test_offload_rejects_bad_kernel () =
  let bad =
    Ir.kernel ~name:"bad" ~params:[] [ Ir.Assign ("ghost", Ir.i 1) ]
  in
  check_bool "compile error" true (Result.is_error (Offload.compile bad))

let test_sharing_reservation_sizing () =
  match Offload.compile saxpy_kernel with
  | Error _ -> Alcotest.fail "saxpy must compile"
  | Ok compiled ->
      let program = compiled.Offload.program in
      let footprint = Ompir.Globalize.footprint_bytes program in
      check_bool "footprint positive" true (footprint > 0);
      let reserve ~budget =
        Offload.sharing_reservation ~budget ~num_threads:64 ~simd_len:8
          program
      in
      (* 64 threads / simdlen 8 = 8 groups, plus the team main = 9
         concurrent publishers *)
      check_int "dynamic sizing"
        (max Omprt.Sharing.min_bytes (footprint * 9))
        (reserve ~budget:65536);
      (* shrink-only: a tight budget is never exceeded *)
      check_bool "caps at budget" true
        (reserve ~budget:Omprt.Sharing.min_bytes <= Omprt.Sharing.min_bytes)

let suite =
  [
    ( "openmp.clauses",
      [
        Alcotest.test_case "defaults" `Quick test_clause_defaults;
        Alcotest.test_case "composition" `Quick test_clause_composition;
        Alcotest.test_case "validation" `Quick test_clause_validation;
      ] );
    ( "openmp.facade",
      [
        Alcotest.test_case "three level" `Quick test_facade_three_level;
        Alcotest.test_case "two level" `Quick test_facade_two_level;
        Alcotest.test_case "queries" `Quick test_facade_queries;
        Alcotest.test_case "simd sum" `Quick test_facade_simd_sum;
        Alcotest.test_case "collapse" `Quick test_facade_collapse;
        Alcotest.test_case "barrier" `Quick test_facade_barrier_counts;
        Alcotest.test_case "single/master" `Quick test_facade_single_master;
        Alcotest.test_case "dynamic schedule" `Quick test_facade_dynamic_schedule;
      ] );
    ( "openmp.data_env",
      [
        Alcotest.test_case "roundtrip" `Quick test_data_env_roundtrip;
        Alcotest.test_case "target data" `Quick test_data_env_target_data;
        Alcotest.test_case "alloc" `Quick test_data_env_alloc_no_transfer;
      ] );
    ( "openmp.offload",
      [
        Alcotest.test_case "pipeline" `Quick test_offload_pipeline;
        Alcotest.test_case "alloc: evaluator words per lane-iteration" `Quick
          test_offload_alloc_per_iteration;
        Alcotest.test_case "guardize spmdizes" `Quick test_guardize_spmdizes;
        Alcotest.test_case "guardize remark" `Quick test_guardize_remark;
        Alcotest.test_case "guardize cost ordering" `Quick
          test_guardize_cost_ordering;
        Alcotest.test_case "guardize never wraps directives" `Quick
          test_guardize_never_wraps_directives;
        Alcotest.test_case "rejects bad kernel" `Quick test_offload_rejects_bad_kernel;
        Alcotest.test_case "sharing reservation sizing" `Quick
          test_sharing_reservation_sizing;
      ] );
  ]
