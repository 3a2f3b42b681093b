(* Runtest tier for the sanitizer, exercised the way a user enables
   it: the OMPSIMD_SANITIZE knob through the same parse the CLI runs,
   kernels through the text pipeline, launched by [Offload.run] and by
   the reference walker on the options [Offload.options] resolves.  Two
   stages:

   1. known-answer conformance kernels (a true global race, a cross-group
      guarded race, a race-free atomic pattern) must produce their
      expected verdicts with site provenance under both engines;
   2. a small certified-random fleet: one kernel template with a
      switchable race plant, swept over geometries by a deterministic
      LCG — the sanitizer must report exactly the planted runs, and the
      static may-race layer must agree. *)

module Ir = Ompir.Ir
module Compile = Ompir.Compile
module Memory = Gpusim.Memory
module Ompsan = Gpusim.Ompsan
module Offload = Openmp.Offload
module Clause = Openmp.Clause
module Mode = Omprt.Mode

let cfg = Gpusim.Config.small
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "sanitizer-fleet FAIL: %s\n%!" msg)
    fmt

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Each launcher by name: the reference walker on the options the
   product resolves, and the product's own launch. *)
let engines =
  [
    ( "walk",
      fun ~pool ~clauses ~bindings c ->
        Reference.Offload_ref.run ~cfg ~pool ~clauses ~bindings c );
    ("compile", fun ~pool ~clauses ~bindings c -> Offload.run ~cfg ~pool ~clauses ~bindings c);
  ]

(* Parse the user-facing knobs: the (sequential) pool carries the
   sanitizer into the launch. *)
let sanitized () =
  let env = [ ("OMPSIMD_SANITIZE", "1") ] in
  match Knobs.parse (fun name -> List.assoc_opt name env) with
  | Error msg -> failwith msg
  | Ok k ->
      ( { k.Knobs.compile with Offload.racecheck = true },
        Knobs.pool { k with Knobs.domains = 0 } )

let zero_bindings ~sizes (k : Ir.kernel) =
  let space = Memory.space () in
  List.map
    (fun (p : Ir.param) ->
      let b =
        match p.Ir.pty with
        | Ir.P_farray -> Compile.B_farr (Memory.falloc space (List.assoc p.Ir.pname sizes))
        | Ir.P_iarray -> Compile.B_iarr (Memory.ialloc space (List.assoc p.Ir.pname sizes))
        | Ir.P_int -> Compile.B_int (List.assoc p.Ir.pname sizes)
        | Ir.P_float -> Compile.B_float 1.0
      in
      (p.Ir.pname, b))
    k.Ir.params

let run_file ~launch ~clauses ~sizes file =
  let kernel = Ompir.Parse.kernel_of_file (Filename.concat "conformance" file) in
  let knobs, pool = sanitized () in
  match Offload.compile_with ~knobs kernel with
  | Error _ -> failwith (file ^ ": compile failed")
  | Ok c ->
      let report = launch ~pool ~clauses ~bindings:(zero_bindings ~sizes kernel) c in
      (c, report)

let expect_verdict ~engine:(engine, launch) ~clauses ~sizes ~dirty ~site file =
  let c, report = run_file ~launch ~clauses ~sizes file in
  (match report.Gpusim.Device.sanitizer with
  | None -> fail "%s [%s]: no sanitizer report" file engine
  | Some san ->
      if Ompsan.is_clean san = dirty then
        fail "%s [%s]: expected dirty=%b, got:\n  %s" file engine dirty
          (String.concat "\n  " (Ompsan.report_strings san));
      if dirty then begin
        match site with
        | Some s
          when not
                 (List.exists
                    (fun line -> contains line s)
                    (Ompsan.report_strings san)) ->
            fail "%s [%s]: no finding mentions %S" file engine s
        | _ -> ()
      end);
  (* the static layer must agree with the dynamic verdict *)
  if c.Offload.may_races <> [] <> dirty then
    fail "%s: static layer disagrees (dirty=%b)" file dirty

let conformance_stage () =
  List.iter
    (fun engine ->
      expect_verdict ~engine
        ~clauses:
          Clause.(
            none |> num_teams 2 |> num_threads 32 |> simdlen 8
            |> parallel_mode Mode.Spmd)
        ~sizes:[ ("out", 64); ("n", 64) ]
        ~dirty:true ~site:(Some "store out[i]") "race_global.omp";
      expect_verdict ~engine
        ~clauses:
          Clause.(
            none |> num_teams 2 |> num_threads 32 |> simdlen 8
            |> parallel_mode Mode.Spmd)
        ~sizes:[ ("marks", 4); ("out", 64); ("rows", 8); ("width", 8) ]
        ~dirty:true ~site:(Some "store marks[0]") "race_sharing.omp";
      expect_verdict ~engine
        ~clauses:
          Clause.(
            none |> num_teams 2 |> num_threads 32 |> simdlen 4
            |> parallel_mode Mode.Spmd)
        ~sizes:[ ("bins", 4); ("data", 64); ("n", 64) ]
        ~dirty:false ~site:None "atomic_clean.omp")
    engines

(* --- certified-random fleet ------------------------------------------- *)

(* rowstore template: canonical disjoint stores, plus (when planted) a
   j-invariant store that races across the lanes of each SIMD group. *)
let template ~plant ~width =
  let open Ir in
  let idx = Binop (Add, Binop (Mul, Var "r", Int_lit width), Var "j") in
  let body =
    [ Store ("out", idx, Load ("src", Binop (Mod, idx, Var "n"))) ]
    @
    if plant then
      [ Store ("out", Binop (Mul, Var "r", Int_lit width), Var "r_f") ]
    else []
  in
  kernel ~name:(if plant then "planted" else "clean")
    ~params:
      [
        { pname = "src"; pty = P_farray };
        { pname = "out"; pty = P_farray };
        { pname = "rows"; pty = P_int };
        { pname = "n"; pty = P_int };
      ]
    [
      distribute_parallel_for ~var:"r" ~lo:(Int_lit 0) ~hi:(Var "rows")
        [
          Decl { name = "r_f"; ty = Tfloat; init = Float_lit 0.0 };
          simd ~var:"j" ~lo:(Int_lit 0) ~hi:(Int_lit width) body;
        ];
    ]

let fleet_stage () =
  let lcg = ref 0x5eed1 in
  let next m =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    !lcg mod m
  in
  for case = 0 to 23 do
    let plant = case mod 2 = 0 in
    let width = List.nth [ 4; 8; 16 ] (next 3) in
    let rows = 2 + next 12 in
    let teams = 1 + next 3 in
    let threads = List.nth [ 32; 64 ] (next 2) in
    (* plants need >= 2 lanes per group to collide *)
    let slen = List.nth [ 2; 4; 8 ] (next 3) in
    let _, launch = List.nth engines (next 2) in
    let kernel = template ~plant ~width in
    let n = rows * width in
    let knobs, pool = sanitized () in
    match Offload.compile_with ~knobs kernel with
    | Error _ -> fail "fleet case %d: compile failed" case
    | Ok c ->
        if c.Offload.may_races <> [] <> plant then
          fail "fleet case %d: static verdict != plant=%b" case plant;
        let clauses =
          Clause.(
            none |> num_teams teams |> num_threads threads |> simdlen slen)
        in
        let report =
          launch ~pool ~clauses
            ~bindings:
              (zero_bindings ~sizes:[ ("src", n); ("out", n); ("rows", rows); ("n", n) ]
                 kernel)
            c
        in
        (match report.Gpusim.Device.sanitizer with
        | None -> fail "fleet case %d: no sanitizer report" case
        | Some san ->
            if Ompsan.is_clean san = plant then
              fail "fleet case %d: dynamic verdict != plant=%b (%s)" case plant
                (String.concat "; " (Ompsan.report_strings san)))
  done

let () =
  conformance_stage ();
  fleet_stage ();
  if !failures > 0 then begin
    Printf.eprintf "sanitizer-fleet: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline
    "sanitizer-fleet OK: conformance verdicts and 24-case certified fleet \
     hold under both engines"
