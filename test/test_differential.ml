(* Differential testing: random, well-formed, race-free IR kernels must
   compute identical results on the simulated device — in every execution
   mode and geometry — and under the sequential host interpreter.

   Generator invariants that make comparison sound:
   - writes go only to [out] (and only at the canonical disjoint index
     (r*W + j), so parallel iterations never collide);
   - reads come only from the read-only [src] array and scalars;
   - atomics go to [acc_arr] with the (commutative) add, compared with a
     tolerance since float addition is not associative;
   - all indices are [... mod n] with n > 0, so bounds always hold.

   The sanitizer-certified fleet reuses the generator with an optional
   race PLANT: a store whose index deliberately drops an induction
   variable (lane plant) or a guarded fixed-cell store whose guard only
   synchronizes one SIMD group (leader plant).  The certification
   property is exact in both directions: a kernel is reported by the
   static layer and by the dynamic sanitizer iff a race was planted. *)

module Memory = Gpusim.Memory
module Mode = Omprt.Mode
module Ir = Ompir.Ir
module Check = Ompir.Check
module Outline = Ompir.Outline
module Compile = Ompir.Compile
module Eval = Reference.Eval
module Hosteval = Reference.Hosteval

let cfg = Gpusim.Config.small

(* --- random expression / statement generators -------------------------- *)

open QCheck

(* Non-negative int expressions over the given variables and [n]. *)
let rec gen_index_expr vars depth st =
  if depth = 0 then
    run_leaf vars st
  else
    match Gen.int_range 0 3 st with
    | 0 -> run_leaf vars st
    | 1 ->
        Ir.Binop
          (Ir.Add, gen_index_expr vars (depth - 1) st, gen_index_expr vars (depth - 1) st)
    | 2 ->
        Ir.Binop
          (Ir.Mul, gen_index_expr vars (depth - 1) st, Ir.Int_lit (Gen.int_range 1 3 st))
    | _ ->
        Ir.Binop
          (Ir.Max, gen_index_expr vars (depth - 1) st, gen_index_expr vars (depth - 1) st)

and run_leaf vars st =
  let choices = List.map (fun v -> Ir.Var v) vars @ [ Ir.Int_lit (Gen.int_range 0 9 st) ] in
  List.nth choices (Gen.int_range 0 (List.length choices - 1) st)

let bounded_index vars st =
  Ir.Binop (Ir.Mod, gen_index_expr vars 2 st, Ir.Var "n")

(* Float expressions reading only [src] and float locals. *)
let rec gen_float_expr vars fvars depth st =
  if depth = 0 then float_leaf vars fvars st
  else
    match Gen.int_range 0 4 st with
    | 0 -> float_leaf vars fvars st
    | 1 ->
        Ir.Binop
          ( Ir.Add,
            gen_float_expr vars fvars (depth - 1) st,
            gen_float_expr vars fvars (depth - 1) st )
    | 2 ->
        Ir.Binop
          ( Ir.Mul,
            gen_float_expr vars fvars (depth - 1) st,
            gen_float_expr vars fvars (depth - 1) st )
    | 3 -> Ir.Unop (Ir.Abs, gen_float_expr vars fvars (depth - 1) st)
    | _ -> Ir.Load ("src", bounded_index vars st)

and float_leaf vars fvars st =
  let lit () = Ir.Float_lit (float_of_int (Gen.int_range (-4) 4 st) /. 2.0) in
  match fvars with
  | [] -> (
      match Gen.int_range 0 1 st with
      | 0 -> lit ()
      | _ -> Ir.Load ("src", bounded_index vars st))
  | _ -> (
      match Gen.int_range 0 2 st with
      | 0 -> lit ()
      | 1 -> Ir.Var (List.nth fvars (Gen.int_range 0 (List.length fvars - 1) st))
      | _ -> Ir.Load ("src", bounded_index vars st))

(* Race plants for the sanitizer-certified fleet. *)
type plant =
  | No_plant
  | Plant_lane  (** simd-body store whose index is invariant in [j] *)
  | Plant_leader  (** guarded fixed-cell store: leaders of distinct groups race *)

let plant_to_string = function
  | No_plant -> "none"
  | Plant_lane -> "lane"
  | Plant_leader -> "leader"

let gen_plant st =
  match Gen.int_range 0 3 st with
  | 0 -> Plant_lane
  | 1 -> Plant_leader
  | _ -> No_plant

(* The simd body: a couple of declarations, then a store to the canonical
   disjoint slot and possibly an atomic. *)
let gen_simd_body ?(plant = No_plant) ~width vars st =
  let decl_count = Gen.int_range 0 2 st in
  let rec decls k fvars acc =
    if k = 0 then (List.rev acc, fvars)
    else
      let name = Printf.sprintf "t%d" k in
      let d =
        Ir.Decl
          { name; ty = Ir.Tfloat; init = gen_float_expr vars fvars 2 st }
      in
      decls (k - 1) (name :: fvars) (d :: acc)
  in
  let ds, fvars = decls decl_count [] [] in
  let idx = Ir.(Binop (Add, Binop (Mul, Var "r", Int_lit width), Var "j")) in
  let store = Ir.Store ("out", idx, gen_float_expr vars fvars 2 st) in
  let atomic =
    if Gen.bool st then
      [
        Ir.Atomic_add
          ( "acc_arr",
            Ir.Binop (Ir.Mod, Ir.Var "r", Ir.Int_lit 4),
            gen_float_expr vars fvars 1 st );
      ]
    else []
  in
  (* lane plant: the index drops [j], so every active lane of the group
     hits row r's cell — a true intra-group write-write race *)
  let planted =
    match plant with
    | Plant_lane ->
        [
          Ir.Store
            ( "out",
              Ir.(Binop (Mul, Var "r", Int_lit width)),
              gen_float_expr vars fvars 1 st );
        ]
    | No_plant | Plant_leader -> []
  in
  ds @ [ store ] @ atomic @ planted

type case = {
  kernel : Ir.kernel;
  rows : int;
  width : int;
  n : int;
  teams : int;
  threads : int;
  teams_mode : Mode.t;
  simd_len : int;
  parallel_mode : [ `Auto | `Force of Mode.t ];
  guardize : bool;
  sched : Ir.schedule;
  plant : plant;
}

let gen_sched st =
  List.nth
    [
      Ir.Sched_static;
      Ir.Sched_chunked 2;
      Ir.Sched_dynamic 1;
      Ir.Sched_dynamic 3;
    ]
    (Gen.int_range 0 3 st)

let sched_to_string = function
  | Ir.Sched_static -> "static"
  | Ir.Sched_chunked n -> Printf.sprintf "chunked(%d)" n
  | Ir.Sched_dynamic n -> Printf.sprintf "dynamic(%d)" n

let gen_case ?(plant = Gen.return No_plant) st =
  let plant = plant st in
  let width = List.nth [ 4; 8; 16; 32 ] (Gen.int_range 0 3 st) in
  (* leader plants need rows spread over at least two SIMD groups of
     every team for the race to be guaranteed reachable *)
  let rows =
    match plant with
    | Plant_leader -> Gen.int_range 8 40 st
    | No_plant | Plant_lane -> Gen.int_range 1 40 st
  in
  let n = rows * width in
  (* region body: optional row-local decls, an optional guarded-able
     sequential store, the simd loop, optionally a reduction *)
  let row_decl =
    Ir.Decl
      {
        name = "base";
        ty = Ir.Tfloat;
        init = gen_float_expr [ "r" ] [] 2 st;
      }
  in
  let seq_store =
    if Gen.bool st then
      [ Ir.Store ("marks", Ir.Var "r", gen_float_expr [ "r" ] [ "base" ] 1 st) ]
    else []
  in
  (* leader plant: the guard elects one leader per SIMD group, but
     leaders of different groups (and teams) still race on marks[0] *)
  let guarded_plant =
    match plant with
    | Plant_leader ->
        [ Ir.Guarded [ Ir.Store ("marks", Ir.Int_lit 0, gen_float_expr [ "r" ] [] 1 st) ] ]
    | No_plant | Plant_lane -> []
  in
  (* a pure sequential loop refining a local: SPMD-safe region code *)
  let seq_loop =
    if Gen.bool st then
      [
        Ir.For
          {
            var = "w";
            lo = Ir.Int_lit 0;
            hi = Ir.Int_lit (Gen.int_range 1 3 st);
            body = [ Ir.Assign ("base", Ir.(Binop (Add, Var "base", Float_lit 0.25))) ];
          };
      ]
    else []
  in
  let simd_loop =
    let body = gen_simd_body ~plant ~width [ "r"; "j" ] st in
    let plain = Ir.simd ~var:"j" ~lo:(Ir.Int_lit 0) ~hi:(Ir.Int_lit width) body in
    if Gen.bool st then
      (* branch on the row parity: groups agree, so simd call counts stay
         consistent within each group *)
      Ir.If
        ( Ir.(Binop (Eq, Binop (Mod, Var "r", Int_lit 2), Int_lit 0)),
          [ plain ],
          [
            Ir.simd ~var:"j" ~lo:(Ir.Int_lit 0) ~hi:(Ir.Int_lit width)
              (gen_simd_body ~plant ~width [ "r"; "j" ] st);
          ] )
    else plain
  in
  let reduction =
    if Gen.bool st then
      [
        Ir.Decl { name = "total"; ty = Ir.Tfloat; init = Ir.Float_lit 0.0 };
        Ir.simd_sum ~acc:"total" ~var:"k" ~lo:(Ir.Int_lit 0)
          ~hi:(Ir.Int_lit width)
          ~value:
            (Ir.Load
               ( "src",
                 Ir.(Binop (Mod, Binop (Add, Var "r", Var "k"), Var "n")) ))
          [];
        Ir.Store ("red", Ir.Var "r", Ir.Var "total");
      ]
    else []
  in
  let sched =
    (* static distribution guarantees a leader plant lands on at least
       two groups; lane plants race under any schedule *)
    match plant with
    | Plant_leader -> Ir.Sched_static
    | No_plant | Plant_lane -> gen_sched st
  in
  let body =
    [
      Ir.distribute_parallel_for ~sched ~var:"r" ~lo:(Ir.Int_lit 0)
        ~hi:(Ir.Var "rows")
        ((row_decl :: (seq_loop @ seq_store @ guarded_plant))
        @ [ simd_loop ] @ reduction);
    ]
  in
  let kernel =
    Ir.kernel ~name:"random"
      ~params:
        [
          { Ir.pname = "src"; pty = Ir.P_farray };
          { Ir.pname = "out"; pty = Ir.P_farray };
          { Ir.pname = "marks"; pty = Ir.P_farray };
          { Ir.pname = "red"; pty = Ir.P_farray };
          { Ir.pname = "acc_arr"; pty = Ir.P_farray };
          { Ir.pname = "rows"; pty = Ir.P_int };
          { Ir.pname = "n"; pty = Ir.P_int };
        ]
      body
  in
  {
    kernel;
    rows;
    width;
    n;
    teams = Gen.int_range 1 3 st;
    threads = List.nth [ 32; 64; 128 ] (Gen.int_range 0 2 st);
    teams_mode = (if Gen.bool st then Mode.Spmd else Mode.Generic);
    simd_len =
      (* a planted race needs real SIMD groups: >= 2 lanes per group and
         (for the leader plant) >= 2 groups per warp *)
      (match plant with
      | No_plant -> List.nth [ 1; 2; 4; 8; 16; 32 ] (Gen.int_range 0 5 st)
      | Plant_lane | Plant_leader ->
          List.nth [ 2; 4; 8 ] (Gen.int_range 0 2 st));
    parallel_mode =
      List.nth [ `Auto; `Force Mode.Spmd; `Force Mode.Generic ]
        (Gen.int_range 0 2 st);
    guardize = Gen.bool st;
    sched;
    plant;
  }

(* Forcing SPMD on a kernel with a sequential store would be a genuine
   miscompile (redundant side effects); guardize repairs it.  Auto and
   generic are always sound. *)
let sound case =
  match case.parallel_mode with
  | `Force Mode.Spmd -> case.guardize || Ompir.Spmdize.all_spmd case.kernel
  | `Force Mode.Generic | `Auto -> true

let make_bindings case =
  let space = Memory.space () in
  let g = Ompsimd_util.Prng.create ~seed:(case.rows + (case.width * 131)) in
  let src =
    Memory.of_float_array space
      (Array.init case.n (fun _ -> Ompsimd_util.Prng.float g 2.0 -. 1.0))
  in
  [
    ("src", Compile.B_farr src);
    ("out", Compile.B_farr (Memory.falloc space case.n));
    ("marks", Compile.B_farr (Memory.falloc space (max 1 case.rows)));
    ("red", Compile.B_farr (Memory.falloc space (max 1 case.rows)));
    ("acc_arr", Compile.B_farr (Memory.falloc space 4));
    ("rows", Compile.B_int case.rows);
    ("n", Compile.B_int case.n);
  ]
  |> fun b -> (space, b)

let array_of bindings name =
  match List.assoc name bindings with
  | Compile.B_farr a -> Memory.to_float_array a
  | _ -> assert false

let close a b =
  Array.for_all2
    (fun x y ->
      let scale = Float.max 1.0 (Float.max (abs_float x) (abs_float y)) in
      abs_float (x -. y) <= 1e-9 *. scale)
    a b

let run_differential case =
  if not (sound case) then true
  else begin
    (* the checker must accept the generated kernel *)
    (match Check.kernel case.kernel with
    | Ok () -> ()
    | Error es ->
        Test.fail_reportf "generator produced an ill-formed kernel: %s"
          (String.concat "; "
             (List.map (fun (e : Check.error) -> e.Check.what) es)));
    let kernel =
      if case.guardize then fst (Ompir.Spmdize.guardize case.kernel)
      else case.kernel
    in
    let program = Outline.run kernel in
    (* host reference *)
    let _, host_bindings = make_bindings case in
    Hosteval.run ~bindings:host_bindings case.kernel;
    (* device run *)
    let _, dev_bindings = make_bindings case in
    let options =
      {
        Compile.num_teams = case.teams;
        num_threads = case.threads;
        teams_mode = case.teams_mode;
        parallel_mode = case.parallel_mode;
        simd_len = case.simd_len;
        sharing_bytes = 2048;
      }
    in
    let (_ : Gpusim.Device.report) =
      Eval.run ~cfg ~options ~bindings:dev_bindings program
    in
    List.for_all
      (fun name -> close (array_of host_bindings name) (array_of dev_bindings name))
      [ "out"; "marks"; "red"; "acc_arr" ]
  end

let print_case case =
  Printf.sprintf
    "rows=%d width=%d teams=%d threads=%d tmode=%s simdlen=%d mode=%s guardize=%b sched=%s plant=%s\n%s"
    case.rows case.width case.teams case.threads
    (Mode.to_string case.teams_mode) case.simd_len
    (match case.parallel_mode with
    | `Auto -> "auto"
    | `Force Mode.Spmd -> "spmd"
    | `Force Mode.Generic -> "generic")
    case.guardize
    (sched_to_string case.sched)
    (plant_to_string case.plant)
    (Ompir.Printer.kernel_to_string case.kernel)

let case_arbitrary = QCheck.make ~print:print_case gen_case

(* Same geometry/mode matrix, but half the kernels carry a planted race. *)
let certified_arbitrary =
  QCheck.make ~print:print_case (gen_case ~plant:gen_plant)

(* --- staged evaluator vs tree walker ---------------------------------- *)

(* The two engines must be bit-identical, not merely close: same output
   bits, same merged counters (Counters.equal is bit-exact, extras
   included), same simulated time — sequentially and on a domain pool. *)

let options_of case =
  {
    Compile.num_teams = case.teams;
    num_threads = case.threads;
    teams_mode = case.teams_mode;
    parallel_mode = case.parallel_mode;
    simd_len = case.simd_len;
    sharing_bytes = 2048;
  }

let engines_agree ~name ?pool ?(atomic_arrays = []) ~options ~bindings_of
    ~out_arrays ~kernel program =
  let _, walk_b = bindings_of () in
  let rw = Eval.run ~cfg ?pool ~options ~bindings:walk_b program in
  let _, staged_b = bindings_of () in
  let rs = Ompir.Compile.run ~cfg ?pool ~options ~bindings:staged_b program in
  List.iter
    (fun arr ->
      if array_of walk_b arr <> array_of staged_b arr then
        Test.fail_reportf "%s: engines disagree on %s[]" name arr)
    out_arrays;
  (* pooled domains apply atomic float adds in a racy order, so even two
     walker runs differ in the last ulp there — compare with a tolerance
     under a pool, exactly otherwise *)
  List.iter
    (fun arr ->
      let ok =
        match pool with
        | None -> array_of walk_b arr = array_of staged_b arr
        | Some _ -> close (array_of walk_b arr) (array_of staged_b arr)
      in
      if not ok then
        Test.fail_reportf "%s: engines disagree on atomic %s[]" name arr)
    atomic_arrays;
  if rw.Gpusim.Device.time_cycles <> rs.Gpusim.Device.time_cycles then
    Test.fail_reportf "%s: simulated time differs (walk %.3f, staged %.3f)"
      name rw.Gpusim.Device.time_cycles rs.Gpusim.Device.time_cycles;
  if
    not
      (Gpusim.Counters.equal rw.Gpusim.Device.counters
         rs.Gpusim.Device.counters)
  then Test.fail_reportf "%s: counters differ between engines" name;
  (* staged engine against the sequential host reference *)
  let _, host_b = bindings_of () in
  Hosteval.run ~bindings:host_b kernel;
  List.for_all
    (fun arr -> close (array_of host_b arr) (array_of staged_b arr))
    (out_arrays @ atomic_arrays)

let run_engine_differential ?pool case =
  if not (sound case) then true
  else begin
    let kernel =
      if case.guardize then fst (Ompir.Spmdize.guardize case.kernel)
      else case.kernel
    in
    let program = Outline.run kernel in
    engines_agree ~name:"random kernel" ?pool ~options:(options_of case)
      ~bindings_of:(fun () -> make_bindings case)
      ~out_arrays:[ "out"; "marks"; "red" ]
      ~atomic_arrays:[ "acc_arr" ] ~kernel:case.kernel program
  end

(* --- sanitizer certification ------------------------------------------- *)

(* The exact two-way property tying the layers together: a kernel is
   flagged by the static may-race pass AND reported by the dynamic
   sanitizer iff the generator planted a race.  No host comparison —
   planted kernels genuinely race, so only the verdicts are compared.
   Plants never steer control flow, so divergence/deadlock is impossible
   and every run completes. *)
(* The sanitizer is a launch setting: it rides on the pool. *)
let sanitizing = Gpusim.Pool.create ~sanitize:true ()

let run_sanitizer_certification ?(pool = sanitizing) ~engine case =
  let kernel =
    if case.guardize then fst (Ompir.Spmdize.guardize case.kernel)
    else case.kernel
  in
  let planted = case.plant <> No_plant in
  let static_findings = Ompir.Racecheck.check_kernel kernel in
  if static_findings <> [] <> planted then
    Test.fail_reportf "static layer: %d finding(s) for plant=%s:\n%s"
      (List.length static_findings)
      (plant_to_string case.plant)
      (String.concat "\n"
         (List.map Ompir.Racecheck.finding_to_string static_findings));
  let program = Outline.run kernel in
  let _, bindings = make_bindings case in
  let report =
    match engine with
    | `Staged ->
        Ompir.Compile.run ~cfg ~pool ~options:(options_of case) ~bindings program
    | `Walk -> Eval.run ~cfg ~pool ~options:(options_of case) ~bindings program
  in
  match report.Gpusim.Device.sanitizer with
  | None -> Test.fail_reportf "sanitizer report missing from an enabled run"
  | Some san ->
      let dirty = not (Gpusim.Ompsan.is_clean san) in
      if dirty <> planted then
        Test.fail_reportf "dynamic layer: dirty=%b for plant=%s\n%s" dirty
          (plant_to_string case.plant)
          (String.concat "\n" (Gpusim.Ompsan.report_strings san));
      true

(* Both engines must also agree on the verdict itself. *)
let run_sanitizer_engine_agreement case =
  let a = run_sanitizer_certification ~engine:`Walk case in
  let b = run_sanitizer_certification ~engine:`Staged case in
  a && b

(* --- collapse(2) ------------------------------------------------------- *)

(* A collapsed distribute-parallel-for: the flat loop plus the div/mod
   index-recovery decls the desugaring inserts — resolved to slots by the
   staged engine. *)
type collapse_case = {
  crows : int;
  cinner : int;
  cwidth : int;
  cteams : int;
  cthreads : int;
  csimd_len : int;
  csched : Ir.schedule;
  cplant : bool;  (** plant a j-invariant store in the simd body *)
}

let gen_collapse_case ?(plant = Gen.return false) st =
  let cplant = plant st in
  {
    crows = Gen.int_range 1 12 st;
    cinner = Gen.int_range 2 4 st;
    cwidth = List.nth [ 4; 8; 16 ] (Gen.int_range 0 2 st);
    cteams = Gen.int_range 1 3 st;
    cthreads = List.nth [ 32; 64 ] (Gen.int_range 0 1 st);
    csimd_len =
      (if cplant then List.nth [ 4; 8 ] (Gen.int_range 0 1 st)
       else List.nth [ 1; 4; 8 ] (Gen.int_range 0 2 st));
    csched = gen_sched st;
    cplant;
  }

let collapse_kernel cc =
  let open Ir in
  let flat = Binop (Add, Binop (Mul, Var "r", Int_lit cc.cinner), Var "c") in
  let body =
    [
      Decl { name = "f"; ty = Tint; init = flat };
      Decl
        {
          name = "base";
          ty = Tfloat;
          init = Load ("src", Binop (Mod, Var "f", Var "n"));
        };
      simd ~var:"j" ~lo:(Int_lit 0) ~hi:(Int_lit cc.cwidth)
        ([
           Store
             ( "out",
               Binop (Add, Binop (Mul, Var "f", Int_lit cc.cwidth), Var "j"),
               Binop
                 ( Add,
                   Var "base",
                   Load
                     ( "src",
                       Binop (Mod, Binop (Add, Var "f", Var "j"), Var "n") ) )
             );
         ]
        @
        if cc.cplant then
          [ Store ("out", Binop (Mul, Var "f", Int_lit cc.cwidth), Var "base") ]
        else []);
      Decl { name = "total"; ty = Tfloat; init = Float_lit 0.0 };
      simd_sum ~acc:"total" ~var:"k" ~lo:(Int_lit 0) ~hi:(Int_lit cc.cwidth)
        ~value:
          (Load ("src", Binop (Mod, Binop (Add, Var "f", Var "k"), Var "n")))
        [];
      Store ("red", Var "f", Var "total");
    ]
  in
  kernel ~name:"collapse"
    ~params:
      [
        { pname = "src"; pty = P_farray };
        { pname = "out"; pty = P_farray };
        { pname = "red"; pty = P_farray };
        { pname = "rows"; pty = P_int };
        { pname = "n"; pty = P_int };
      ]
    [
      collapsed_distribute_parallel_for ~sched:cc.csched
        ~vars:[ ("r", Var "rows"); ("c", Int_lit cc.cinner) ]
        body;
    ]

let collapse_bindings cc =
  let space = Memory.space () in
  let flat = cc.crows * cc.cinner in
  let n = flat * cc.cwidth in
  let g = Ompsimd_util.Prng.create ~seed:(cc.crows + (cc.cinner * 977)) in
  ( space,
    [
      ( "src",
        Compile.B_farr
          (Memory.of_float_array space
             (Array.init n (fun _ -> Ompsimd_util.Prng.float g 2.0 -. 1.0)))
      );
      ("out", Compile.B_farr (Memory.falloc space n));
      ("red", Compile.B_farr (Memory.falloc space flat));
      ("rows", Compile.B_int cc.crows);
      ("n", Compile.B_int n);
    ] )

let run_collapse_differential cc =
  let kernel = collapse_kernel cc in
  (match Check.kernel kernel with
  | Ok () -> ()
  | Error es ->
      Test.fail_reportf "collapse kernel ill-formed: %s"
        (String.concat "; "
           (List.map (fun (e : Check.error) -> e.Check.what) es)));
  let program = Outline.run kernel in
  let options =
    {
      Compile.num_teams = cc.cteams;
      num_threads = cc.cthreads;
      teams_mode = Mode.Spmd;
      parallel_mode = `Auto;
      simd_len = cc.csimd_len;
      sharing_bytes = 2048;
    }
  in
  engines_agree ~name:"collapse kernel" ~options
    ~bindings_of:(fun () -> collapse_bindings cc)
    ~out_arrays:[ "out"; "red" ] ~kernel program

let print_collapse cc =
  Printf.sprintf
    "rows=%d inner=%d width=%d teams=%d threads=%d simdlen=%d sched=%s plant=%b"
    cc.crows cc.cinner cc.cwidth cc.cteams cc.cthreads cc.csimd_len
    (sched_to_string cc.csched) cc.cplant

let collapse_arbitrary = QCheck.make ~print:print_collapse gen_collapse_case

let collapse_certified_arbitrary =
  QCheck.make ~print:print_collapse (gen_collapse_case ~plant:Gen.bool)

let collapse_options cc =
  {
    Compile.num_teams = cc.cteams;
    num_threads = cc.cthreads;
    teams_mode = Mode.Spmd;
    parallel_mode = `Auto;
    simd_len = cc.csimd_len;
    sharing_bytes = 2048;
  }

let run_collapse_certification cc =
  let kernel = collapse_kernel cc in
  let static_findings = Ompir.Racecheck.check_kernel kernel in
  if static_findings <> [] <> cc.cplant then
    Test.fail_reportf "collapse static layer: %d finding(s) for plant=%b"
      (List.length static_findings) cc.cplant;
  let program = Outline.run kernel in
  let _, bindings = collapse_bindings cc in
  let report =
    Ompir.Compile.run ~cfg ~pool:sanitizing ~options:(collapse_options cc)
      ~bindings program
  in
  match report.Gpusim.Device.sanitizer with
  | None -> Test.fail_reportf "sanitizer report missing from an enabled run"
  | Some san ->
      let dirty = not (Gpusim.Ompsan.is_clean san) in
      if dirty <> cc.cplant then
        Test.fail_reportf "collapse dynamic layer: dirty=%b for plant=%b\n%s"
          dirty cc.cplant
          (String.concat "\n" (Gpusim.Ompsan.report_strings san));
      true

(* --- guarded declarations -------------------------------------------- *)

(* A guarded block that declares an int and a float: each SIMD group's
   leader runs it, and every other lane takes the values from the
   leader's broadcast before reading them after the block.  SPMD regions
   with real groups, so the broadcast path runs. *)
type guard_case = {
  grows : int;
  gwidth : int;
  gteams : int;
  gthreads : int;
  gsimd_len : int;
  gteams_mode : Mode.t;
  gsched : Ir.schedule;
}

let gen_guard_case st =
  {
    grows = Gen.int_range 1 24 st;
    gwidth = List.nth [ 4; 8; 16 ] (Gen.int_range 0 2 st);
    gteams = Gen.int_range 1 3 st;
    gthreads = List.nth [ 32; 64 ] (Gen.int_range 0 1 st);
    gsimd_len = List.nth [ 2; 4; 8 ] (Gen.int_range 0 2 st);
    gteams_mode = (if Gen.bool st then Mode.Spmd else Mode.Generic);
    gsched = gen_sched st;
  }

let guard_kernel gc =
  let open Ir in
  kernel ~name:"guarded_decls"
    ~params:
      [
        { pname = "src"; pty = P_farray };
        { pname = "out"; pty = P_farray };
        { pname = "marks"; pty = P_farray };
        { pname = "n"; pty = P_int };
      ]
    [
      distribute_parallel_for ~sched:gc.gsched ~var:"r" ~lo:(Int_lit 0)
        ~hi:(Int_lit gc.grows)
        [
          Guarded
            [
              Decl
                {
                  name = "g";
                  ty = Tfloat;
                  init = Binop (Add, Binop (Mul, Load ("src", Var "r"), Float_lit 2.0), Float_lit 0.5);
                };
              Decl { name = "gi"; ty = Tint; init = Binop (Add, Binop (Mul, Var "r", Int_lit 3), Int_lit 1) };
              Store ("marks", Var "r", Var "g");
            ];
          Decl { name = "base"; ty = Tfloat; init = Binop (Add, Var "g", Unop (To_float, Var "gi")) };
          simd ~var:"j" ~lo:(Int_lit 0) ~hi:(Int_lit gc.gwidth)
            [
              Store
                ( "out",
                  Binop (Add, Binop (Mul, Var "r", Int_lit gc.gwidth), Var "j"),
                  Binop
                    ( Add,
                      Var "base",
                      Load ("src", Binop (Mod, Binop (Add, Var "r", Var "j"), Var "n")) ) );
            ];
        ];
    ]

let guard_bindings gc =
  let space = Memory.space () in
  let n = gc.grows * gc.gwidth in
  let g = Ompsimd_util.Prng.create ~seed:(gc.grows + (gc.gwidth * 131)) in
  ( space,
    [
      ( "src",
        Compile.B_farr
          (Memory.of_float_array space
             (Array.init n (fun _ -> Ompsimd_util.Prng.float g 2.0 -. 1.0))) );
      ("out", Compile.B_farr (Memory.falloc space n));
      ("marks", Compile.B_farr (Memory.falloc space gc.grows));
      ("n", Compile.B_int n);
    ] )

let run_guard_differential gc =
  let kernel = guard_kernel gc in
  (match Check.kernel kernel with
  | Ok () -> ()
  | Error es ->
      Test.fail_reportf "guarded kernel ill-formed: %s"
        (String.concat "; " (List.map (fun (e : Check.error) -> e.Check.what) es)));
  let options =
    {
      Compile.num_teams = gc.gteams;
      num_threads = gc.gthreads;
      teams_mode = gc.gteams_mode;
      parallel_mode = `Force Mode.Spmd;
      simd_len = gc.gsimd_len;
      sharing_bytes = 2048;
    }
  in
  engines_agree ~name:"guarded kernel" ~options
    ~bindings_of:(fun () -> guard_bindings gc)
    ~out_arrays:[ "out"; "marks" ] ~kernel (Outline.run kernel)

let guard_arbitrary =
  QCheck.make
    ~print:(fun gc ->
      Printf.sprintf "rows=%d width=%d teams=%d threads=%d simdlen=%d tmode=%s sched=%s"
        gc.grows gc.gwidth gc.gteams gc.gthreads gc.gsimd_len
        (Mode.to_string gc.gteams_mode) (sched_to_string gc.gsched))
    gen_guard_case

(* The domain pool of the running pooled case ([on_pool]). *)
let live_pool = ref None
let pool () = Option.get !live_pool

(* A pooled property's alcotest case: it runs on a three-domain pool
   made when the case starts and shut down when it ends.  A pool built
   at module initialisation would keep its worker domains idle through
   the whole suite, and OCaml 5 stops every domain at each minor
   collection. *)
let on_pool ?sanitize (name, speed, run) =
  ( name,
    speed,
    fun () ->
      let p = Gpusim.Pool.create ?sanitize ~domains:3 () in
      live_pool := Some p;
      Fun.protect
        ~finally:(fun () ->
          live_pool := None;
          Gpusim.Pool.shutdown p)
        run )

let qcheck_cases =
  [
    Test.make ~name:"random kernels: device matches host reference" ~count:120
      case_arbitrary run_differential;
    Test.make ~name:"random kernels: staged engine == tree walker" ~count:120
      case_arbitrary
      (fun case -> run_engine_differential case);
    Test.make ~name:"collapse(2): staged engine == tree walker == host"
      ~count:60 collapse_arbitrary run_collapse_differential;
    Test.make ~name:"guarded declarations: staged engine == tree walker == host"
      ~count:40 guard_arbitrary run_guard_differential;
    (* certified fleet: racy iff planted, on both layers *)
    Test.make ~name:"certified fleet: sanitizer verdict == plant (staged)"
      ~count:120 certified_arbitrary
      (run_sanitizer_certification ~engine:`Staged);
    Test.make ~name:"certified fleet: both engines certify the verdict"
      ~count:60 certified_arbitrary run_sanitizer_engine_agreement;
    Test.make ~name:"certified fleet: collapse(2) verdict == plant" ~count:60
      collapse_certified_arbitrary run_collapse_certification;
    (* the serve cache keys on this digest: equal kernels must agree and
       structurally different kernels must split (the serialization is
       injective, so a collision would be an MD5 collision) *)
    Test.make ~name:"structurally distinct kernels get distinct digests"
      ~count:120
      (pair case_arbitrary case_arbitrary)
      (fun (a, b) ->
        let da = Ompir.Kdigest.hex a.kernel
        and db = Ompir.Kdigest.hex b.kernel in
        if a.kernel = b.kernel then da = db else da <> db);
  ]

(* the properties that run on a pool, with whether it sanitizes *)
let pooled_cases =
  [
    ( false,
      Test.make ~name:"random kernels: engines agree on a domain pool" ~count:40
        case_arbitrary
        (fun case -> run_engine_differential ~pool:(pool ()) case) );
    ( true,
      Test.make ~name:"certified fleet: verdicts hold on a domain pool"
        ~count:30 certified_arbitrary
        (fun case ->
          run_sanitizer_certification ~pool:(pool ()) ~engine:`Staged case) );
  ]

(* A fixed seed makes every property run (and every shrink trace)
   reproducible across machines and CI reruns. *)
let qcheck_seed = 0x5eed

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t

let suite =
  [
    ( "differential",
      List.map to_alcotest qcheck_cases
      @ List.map
          (fun (sanitize, t) -> on_pool ~sanitize (to_alcotest t))
          pooled_cases );
  ]
