module Table = Ompsimd_util.Table
module Memory = Gpusim.Memory
module Ir = Ompir.Ir

type row = { variant : string; cycles : float; relative : float; guards : int }
type t = { rows : row list }

(* out[r*w + j] = base(r) * in[r*w + j]; marks[r] = base(r).
   The marks store is the sequential side effect that blocks SPMD. *)
let kernel ~width =
  Ir.kernel ~name:"row_scale_marked"
    ~params:
      [
        { Ir.pname = "input"; pty = Ir.P_farray };
        { Ir.pname = "out"; pty = Ir.P_farray };
        { Ir.pname = "marks"; pty = Ir.P_farray };
        { Ir.pname = "n"; pty = Ir.P_int };
      ]
    [
      Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
        [
          Ir.Decl
            {
              name = "base";
              ty = Ir.Tfloat;
              init = Ir.(Binop (Add, f 1.0, Unop (To_float, Binop (Mod, v "r", i 7))));
            };
          Ir.Store ("marks", Ir.v "r", Ir.v "base");
          Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i width)
            [
              Ir.Decl
                {
                  name = "idx";
                  ty = Ir.Tint;
                  init = Ir.(Binop (Add, Binop (Mul, v "r", i width), v "j"));
                };
              Ir.Store
                ("out", Ir.v "idx",
                 Ir.(Binop (Mul, v "base", Load ("input", v "idx"))));
            ];
        ];
    ]

(* The tight variant: the store moved into the simd loop (executed by
   lane 0 of the group), leaving no sequential side effect. *)
let tight_kernel ~width =
  Ir.kernel ~name:"row_scale_tight"
    ~params:
      [
        { Ir.pname = "input"; pty = Ir.P_farray };
        { Ir.pname = "out"; pty = Ir.P_farray };
        { Ir.pname = "marks"; pty = Ir.P_farray };
        { Ir.pname = "n"; pty = Ir.P_int };
      ]
    [
      Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "n")
        [
          Ir.Decl
            {
              name = "base";
              ty = Ir.Tfloat;
              init = Ir.(Binop (Add, f 1.0, Unop (To_float, Binop (Mod, v "r", i 7))));
            };
          Ir.simd ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.i width)
            [
              Ir.If
                ( Ir.(Binop (Eq, v "j", i 0)),
                  [ Ir.Store ("marks", Ir.v "r", Ir.v "base") ],
                  [] );
              Ir.Decl
                {
                  name = "idx";
                  ty = Ir.Tint;
                  init = Ir.(Binop (Add, Binop (Mul, v "r", i width), v "j"));
                };
              Ir.Store
                ("out", Ir.v "idx",
                 Ir.(Binop (Mul, v "base", Load ("input", v "idx"))));
            ];
        ];
    ]

let group_size = 32
let group_sizes_for (_ : Gpusim.Config.t) = [ group_size ]

let run ?(scale = 1.0) ?pool ?(knobs = Openmp.Offload.default_knobs) ~cfg () =
  let width = 32 in
  let teams = 4 * cfg.Gpusim.Config.num_sms in
  let n =
    max 1 (int_of_float (float_of_int (teams * 128 / 4) *. scale))
  in
  let space = Memory.space () in
  let input =
    Memory.of_float_array space
      (Array.init (n * width) (fun i -> float_of_int (i mod 11)))
  in
  let out = Memory.falloc space (n * width) in
  let marks = Memory.falloc space n in
  let bindings =
    [
      ("input", Ompir.Compile.B_farr input);
      ("out", Ompir.Compile.B_farr out);
      ("marks", Ompir.Compile.B_farr marks);
      ("n", Ompir.Compile.B_int n);
    ]
  in
  let time ?(guardize = false) k =
    match Openmp.Offload.compile_with ~knobs:{ knobs with guardize } k with
    | Error _ -> failwith "E8 kernel must compile"
    | Ok compiled ->
        Memory.fill out 0.0;
        Memory.fill marks 0.0;
        Memory.l2_reset space;
        let report =
          Openmp.Offload.run ~cfg ?pool
            ~clauses:
              Openmp.Clause.(none |> num_teams teams |> num_threads 128 |> simdlen group_size)
            ~bindings compiled
        in
        (report.Gpusim.Device.time_cycles, compiled.Openmp.Offload.guards_inserted)
  in
  let generic_cycles, _ = time (kernel ~width) in
  let guarded_cycles, guards = time ~guardize:true (kernel ~width) in
  let tight_cycles, _ = time (tight_kernel ~width) in
  let mk variant cycles guards =
    { variant; cycles; relative = generic_cycles /. cycles; guards }
  in
  {
    rows =
      [
        mk "generic (state machine)" generic_cycles 0;
        mk "guarded SPMD (S7 / [16])" guarded_cycles guards;
        mk "tight SPMD (restructured)" tight_cycles 0;
      ];
  }

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("variant", Table.Left);
          ("cycles", Table.Right);
          ("speedup vs generic", Table.Right);
          ("guards", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.variant;
          Table.cell_float ~decimals:0 r.cycles;
          Table.cell_float ~decimals:3 r.relative;
          Table.cell_int r.guards;
        ])
    t.rows;
  table

let print t =
  print_endline
    "E8: SPMDization of parallel regions (S7) — generic vs guarded SPMD vs \
     restructured tight SPMD";
  Table.print (to_table t)
