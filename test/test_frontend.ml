(* Front-end contracts: the keyed-scope checker and compiler, and
   sanitizer site labels interned only when a sanitizing launch needs
   them.

   - [Check] is certified against the assoc-list reference in
     [Check_ref] on the differential kernel generator and on a
     scope-stress generator: equal verdicts and equal error lists, in
     order.
   - An unsanitized compile and launch interns no site label, and
     sanitized reports stay byte-identical across engines and pools.
   - Compiling and launching a [chain]-shaped kernel costs time linear
     in its length.
   - The kernel-source front door (parse, check, compile) returns a
     value or a named error on arbitrary bytes; it never raises
     anything else. *)

module Ir = Ompir.Ir
module Check = Ompir.Check
module Memory = Gpusim.Memory
module Ompsan = Gpusim.Ompsan
module Offload = Openmp.Offload
module Clause = Openmp.Clause
module Mode = Omprt.Mode
module Gen = QCheck.Gen

let cfg = Gpusim.Config.small
let pick a st = a.(Gen.int_bound (Array.length a - 1) st)

(* --- Check certification ---------------------------------------------- *)

let same_check k = Check.kernel k = Check_ref.kernel k

(* A small name pool, so shadowing, duplicates, loop-variable clashes
   and name-kind confusions (arrays used as scalars and back) are the
   common case rather than the rare one. *)
let scalar_names = [| "a"; "b"; "c"; "i"; "j"; "n"; "s" |]
let array_names = [| "src"; "out"; "cnt" |]

let any_name st =
  if Gen.int_bound 3 st = 0 then pick array_names st else pick scalar_names st

let unops = Ir.[| Neg; Not; To_float; To_int; Sqrt; Exp; Log; Abs |]

let binops =
  Ir.[| Add; Sub; Mul; Div; Mod; Min; Max; Lt; Le; Gt; Ge; Eq; Ne; And; Or |]

let rec gen_expr depth st =
  let leaf () =
    match Gen.int_bound 3 st with
    | 0 -> Ir.Int_lit (Gen.int_bound 3 st)
    | 1 -> Ir.Float_lit 0.5
    | _ -> Ir.Var (any_name st)
  in
  if depth = 0 then leaf ()
  else
    match Gen.int_bound 6 st with
    | 0 -> Ir.Load (any_name st, gen_expr (depth - 1) st)
    | 1 -> Ir.Load_int (any_name st, gen_expr (depth - 1) st)
    | 2 -> Ir.Unop (pick unops st, gen_expr (depth - 1) st)
    | 3 | 4 ->
        Ir.Binop (pick binops st, gen_expr (depth - 1) st, gen_expr (depth - 1) st)
    | _ -> leaf ()

let gen_sched st =
  match Gen.int_bound 2 st with
  | 0 -> Ir.Sched_static
  | 1 -> Ir.Sched_chunked (Gen.int_range (-1) 2 st)
  | _ -> Ir.Sched_dynamic (Gen.int_range (-1) 2 st)

let rec gen_block depth st =
  List.init (Gen.int_bound 4 st) (fun _ -> gen_stmt depth st)

and gen_directive depth st =
  {
    Ir.loop_var = pick scalar_names st;
    lo = gen_expr 1 st;
    hi = gen_expr 1 st;
    body = gen_block (depth - 1) st;
    fn_id = -1;
    sched = gen_sched st;
  }

and gen_stmt depth st =
  let e () = gen_expr 2 st in
  let decl () =
    Ir.Decl
      {
        name = pick scalar_names st;
        ty = (if Gen.bool st then Ir.Tint else Ir.Tfloat);
        init = e ();
      }
  in
  let leaf () =
    match Gen.int_bound 6 st with
    | 0 | 1 | 2 -> decl ()
    | 3 -> Ir.Assign (pick scalar_names st, e ())
    | 4 -> Ir.Store (any_name st, e (), e ())
    | 5 -> (
        match Gen.int_bound 2 st with
        | 0 -> Ir.Store_int (any_name st, e (), e ())
        | 1 -> Ir.Atomic_add (any_name st, e (), e ())
        | _ -> Ir.Sync)
    | _ -> Ir.Assign (pick scalar_names st, e ())
  in
  if depth = 0 then leaf ()
  else
    match Gen.int_bound 13 st with
    | 0 -> Ir.If (e (), gen_block (depth - 1) st, gen_block (depth - 1) st)
    | 1 -> Ir.While (e (), gen_block (depth - 1) st)
    | 2 ->
        Ir.For
          {
            var = pick scalar_names st;
            lo = gen_expr 1 st;
            hi = gen_expr 1 st;
            body = gen_block (depth - 1) st;
          }
    | 3 -> Ir.Parallel_for (gen_directive depth st)
    | 4 | 5 -> Ir.Simd (gen_directive depth st)
    | 6 | 7 ->
        (* the summand reads the pool's names, so it often reads a
           body local *)
        let dir = gen_directive depth st in
        Ir.Simd_sum { acc = pick scalar_names st; value = e (); dir }
    | 8 | 9 -> Ir.Guarded (gen_block (depth - 1) st)
    | _ -> leaf ()

let gen_params st =
  List.init (Gen.int_bound 5 st) (fun _ ->
      {
        Ir.pname = any_name st;
        pty = pick Ir.[| P_farray; P_iarray; P_int; P_float |] st;
      })

let gen_scope_kernel st =
  let params = gen_params st in
  let body =
    (* half the kernels have the usual region shape, so simd and guarded
       statements land in their legal positions *)
    if Gen.bool st then
      [
        Ir.Distribute_parallel_for
          { (gen_directive 3 st) with body = gen_block 3 st };
      ]
    else gen_block 3 st
  in
  Ir.kernel ~name:"stress" ~params body

let scope_arbitrary =
  QCheck.make ~print:Ompir.Printer.kernel_to_string gen_scope_kernel

let gen_expr_env st =
  let locals =
    List.init (Gen.int_bound 4 st) (fun _ ->
        (pick scalar_names st, if Gen.bool st then Ir.Tint else Ir.Tfloat))
  in
  let params =
    List.map (fun (p : Ir.param) -> (p.Ir.pname, p.Ir.pty)) (gen_params st)
  in
  (params, locals, gen_expr 3 st)

let same_expr_type (params, locals, e) =
  Check.expr_type ~params ~locals e = Check_ref.expr_type ~params ~locals e

(* The differential generator's kernels, as written, guardized (guarded
   blocks in region bodies) and after the default pipeline. *)
let same_check_differential (case : Test_differential.case) =
  let k = case.Test_differential.kernel in
  same_check k
  && same_check (fst (Ompir.Spmdize.guardize k))
  && same_check (Ompir.Passes.run Ompir.Passes.default_pipeline k)

(* Each scoping rule on a kernel built for it: both checkers agree and
   the rule's diagnostic (or its absence) is really there. *)
let scope_rule_cases =
  let open Ir in
  let params =
    [
      { pname = "out"; pty = P_farray };
      { pname = "n"; pty = P_int };
      { pname = "x"; pty = P_float };
    ]
  in
  let region body = [ distribute_parallel_for ~var:"i" ~lo:(i 0) ~hi:(v "n") body ] in
  let fdecl name init = Decl { name; ty = Tfloat; init } in
  [
    ( "shadowing across nested blocks",
      region
        [
          fdecl "t" (f 1.0);
          If (v "n", [ Decl { name = "t"; ty = Tint; init = i 2 }; Store ("out", v "t", f 0.0) ], []);
          Store ("out", v "i", v "t");
        ],
      None );
    ( "an inner declaration ends with its block",
      region
        [
          fdecl "t" (f 1.0);
          If (v "n", [ Decl { name = "t"; ty = Tint; init = i 2 } ], []);
          Store ("out", v "t", f 0.0);
        ],
      Some "not an int" );
    ("duplicate declaration", region [ fdecl "t" (f 1.0); fdecl "t" (f 2.0) ], Some "duplicate declaration");
    ("use before declaration", region [ Store ("out", v "i", v "t"); fdecl "t" (f 1.0) ], Some "unbound variable t");
    ("declaration shadows a parameter", region [ fdecl "x" (f 1.0) ], Some "shadows a parameter");
    ("assigning a loop variable", region [ Assign ("i", i 0) ], Some "assignment to a loop variable");
    ( "simd writes a captured scalar",
      region
        [
          fdecl "t" (f 1.0);
          simd ~var:"j" ~lo:(i 0) ~hi:(i 4) [ Assign ("t", f 2.0) ];
        ],
      Some "captured scalar" );
    ( "simd writes its own local",
      region
        [
          simd ~var:"j" ~lo:(i 0) ~hi:(i 4)
            [ fdecl "t" (f 1.0); Assign ("t", f 2.0); Store ("out", v "j", v "t") ];
        ],
      None );
    ( "guarded block writes an outer local",
      region [ fdecl "t" (f 1.0); Guarded [ Assign ("t", f 2.0) ] ],
      Some "outer local" );
    ( "guarded declarations extend the enclosing scope",
      region [ Guarded [ fdecl "t" (f 1.0) ]; Store ("out", v "i", v "t") ],
      None );
    ( "reduction summand reads a body local",
      region
        [
          fdecl "acc" (f 0.0);
          simd_sum ~acc:"acc" ~var:"j" ~lo:(i 0) ~hi:(i 4) ~value:(v "u")
            [ fdecl "u" (Load ("out", v "j")) ];
          Store ("out", v "i", v "acc");
        ],
      None );
    ( "reduction summand outside the body's scope",
      region
        [
          fdecl "acc" (f 0.0);
          simd_sum ~acc:"acc" ~var:"j" ~lo:(i 0) ~hi:(i 4) ~value:(v "u")
            [ If (i 1, [ fdecl "u" (f 1.0) ], []) ];
        ],
      Some "unbound variable u" );
  ]
  |> List.map (fun (name, body, expect) -> (name, kernel ~name:"rule" ~params body, expect))

let run_scope_rule (name, k, expect) () =
  Alcotest.(check bool) (name ^ ": checkers agree") true (same_check k);
  match (Check.kernel k, expect) with
  | Ok (), None -> ()
  | Error es, Some fragment ->
      Alcotest.(check bool)
        (name ^ ": reports " ^ fragment)
        true
        (List.exists
           (fun (e : Check.error) -> Astring_like.contains e.Check.what fragment)
           es)
  | Ok (), Some fragment -> Alcotest.failf "%s: accepted, expected %S" name fragment
  | Error es, None ->
      Alcotest.failf "%s: rejected: %s" name
        (String.concat "; " (List.map (fun (e : Check.error) -> e.Check.what) es))

(* --- sanitizer sites: nothing when off, identical when on -------------- *)

(* The registry hands a fresh label the next free id, so two fresh
   probes around a run are one apart iff the run interned nothing. *)
let registry_probe =
  let n = ref 0 in
  fun () ->
    incr n;
    Ompsan.register_site (Printf.sprintf "<registry probe %d>" !n)

(* Every conformance kernel with its sizes and launch clauses; the race
   kernels use the geometry their planted race needs.  The divergence
   kernel is left out: it deadlocks, so its launch has no report. *)
let sanitizer_cases =
  let race = Clause.(none |> num_teams 2 |> num_threads 32 |> simdlen 8 |> parallel_mode Mode.Spmd) in
  List.map
    (fun (c : Test_conformance.case) ->
      ( c.Test_conformance.file,
        c.Test_conformance.sizes,
        Clause.(none |> num_teams 3 |> num_threads 64 |> simdlen 4) ))
    Test_conformance.cases
  @ [
      ("race_global.omp", [ ("out", 64); ("n", 64) ], race);
      ("race_sharing.omp", [ ("marks", 4); ("out", 64); ("rows", 8); ("width", 8) ], race);
      ( "atomic_clean.omp",
        [ ("bins", 4); ("data", 64); ("n", 64) ],
        Clause.(none |> num_teams 2 |> num_threads 32 |> simdlen 4 |> parallel_mode Mode.Spmd) );
    ]

let parse file = Ompir.Parse.kernel_of_file (Filename.concat "conformance" file)

let engines = [ ("walk", Ompir.Compile.Walk); ("staged", Ompir.Compile.Staged) ]

(* A staged launch builds its closures, and so its sites, afresh: on a
   pool, two domains race to label the same site. *)
let launch ?pool ~engine ~sizes ~clauses file kernel =
  match Offload.compile ~engine kernel with
  | Error _ -> Alcotest.failf "%s: compile failed" file
  | Ok c ->
      Offload.run ~cfg ?pool ~clauses
        ~bindings:(Test_conformance.make_bindings ~sizes kernel)
        c

(* Suffix every array name, so the kernel's site labels are new to the
   process whatever ran before it: an eager labeller would have to
   grow the registry. *)
let fresh_arrays suffix (k : Ir.kernel) =
  let arr a = a ^ suffix in
  let rec expr (e : Ir.expr) =
    match e with
    | Ir.Load (a, i) -> Ir.Load (arr a, expr i)
    | Ir.Load_int (a, i) -> Ir.Load_int (arr a, expr i)
    | Ir.Unop (op, a) -> Ir.Unop (op, expr a)
    | Ir.Binop (op, a, b) -> Ir.Binop (op, expr a, expr b)
    | Ir.Int_lit _ | Ir.Float_lit _ | Ir.Var _ -> e
  and dir (d : Ir.loop_directive) =
    { d with Ir.lo = expr d.Ir.lo; hi = expr d.Ir.hi; body = stmts d.Ir.body }
  and stmt (s : Ir.stmt) =
    match s with
    | Ir.Decl d -> Ir.Decl { d with init = expr d.init }
    | Ir.Assign (n, e) -> Ir.Assign (n, expr e)
    | Ir.Store (a, i, v) -> Ir.Store (arr a, expr i, expr v)
    | Ir.Store_int (a, i, v) -> Ir.Store_int (arr a, expr i, expr v)
    | Ir.Atomic_add (a, i, v) -> Ir.Atomic_add (arr a, expr i, expr v)
    | Ir.If (c, t, e) -> Ir.If (expr c, stmts t, stmts e)
    | Ir.While (c, b) -> Ir.While (expr c, stmts b)
    | Ir.For f -> Ir.For { f with lo = expr f.lo; hi = expr f.hi; body = stmts f.body }
    | Ir.Distribute_parallel_for d -> Ir.Distribute_parallel_for (dir d)
    | Ir.Parallel_for d -> Ir.Parallel_for (dir d)
    | Ir.Simd d -> Ir.Simd (dir d)
    | Ir.Simd_sum r -> Ir.Simd_sum { r with value = expr r.value; dir = dir r.dir }
    | Ir.Guarded b -> Ir.Guarded (stmts b)
    | Ir.Sync -> Ir.Sync
  and stmts b = List.map stmt b in
  let param (p : Ir.param) =
    match p.Ir.pty with
    | Ir.P_farray | Ir.P_iarray -> { p with Ir.pname = arr p.Ir.pname }
    | Ir.P_int | Ir.P_float -> p
  in
  { k with Ir.params = List.map param k.Ir.params; body = stmts k.Ir.body }

let unsanitized_interns_nothing () =
  let suffix = "_unsanitized" in
  let before = registry_probe () in
  List.iter
    (fun (file, sizes, clauses) ->
      let kernel = fresh_arrays suffix (parse file) in
      let sizes = sizes @ List.map (fun (n, len) -> (n ^ suffix, len)) sizes in
      List.iter
        (fun (_, engine) ->
          let r = launch ~engine ~sizes ~clauses file kernel in
          Alcotest.(check bool) (file ^ ": no sanitizer report") true
            (r.Gpusim.Device.sanitizer = None))
        engines)
    sanitizer_cases;
  Alcotest.(check int) "site registry size unchanged" (before + 1)
    (registry_probe ())

let sanitized_reports_identical () =
  let sequential = Gpusim.Pool.create ~sanitize:true () in
  let pooled = Gpusim.Pool.create ~sanitize:true ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Gpusim.Pool.shutdown pooled)
    (fun () ->
      List.iter
        (fun (file, sizes, clauses) ->
          let kernel = parse file in
          let report ~pool ~engine =
            match (launch ~pool ~engine ~sizes ~clauses file kernel).Gpusim.Device.sanitizer with
            | Some san ->
                (* each launch binds a fresh memory space, whose id is
                   the one thing allowed to differ *)
                Test_ompsan.normalize (Format.asprintf "%a" Ompsan.pp_report san)
            | None -> Alcotest.failf "%s: no sanitizer report" file
          in
          let reference = report ~pool:sequential ~engine:Ompir.Compile.Walk in
          List.iter
            (fun (pool_name, pool) ->
              List.iter
                (fun (engine_name, engine) ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s [%s, %s]" file engine_name pool_name)
                    reference (report ~pool ~engine))
                engines)
            [ ("sequential", sequential); ("2 domains", pooled) ])
        sanitizer_cases)

(* --- chain compiles in linear time ------------------------------------- *)

(* Serve's [chain] template without its 1024-link cap: one local per
   link, each reading the one before. *)
let chain_kernel links =
  let open Ir in
  let t l = Printf.sprintf "t%d" l in
  let link l =
    Decl
      {
        name = t (succ l);
        ty = Tfloat;
        init =
          Unop
            ( Abs,
              (Var (t l) * f 0.5) + Load ("src", Binop (Mod, v "i" + i (succ l), v "n"))
            );
      }
  in
  kernel ~name:"chain"
    ~params:
      [
        { pname = "src"; pty = P_farray };
        { pname = "out"; pty = P_farray };
        { pname = "n"; pty = P_int };
      ]
    [
      distribute_parallel_for ~var:"i" ~lo:(i 0) ~hi:(v "n")
        ((Decl { name = t 0; ty = Tfloat; init = Load ("src", v "i") }
         :: List.init links link)
        @ [ Store ("out", v "i", Var (t links)) ]);
    ]

(* Best of three: compile, then one single-iteration launch (the staged
   engine compiles its closures per launch). *)
let chain_cost links =
  let k = chain_kernel links in
  let once () =
    Gc.full_major ();
    let t0 = Sys.time () in
    (match Offload.compile k with
    | Error _ -> Alcotest.fail "chain: compile failed"
    | Ok c ->
        let space = Memory.space () in
        let bindings =
          [
            ("src", Ompir.Eval.B_farr (Memory.falloc space 1));
            ("out", Ompir.Eval.B_farr (Memory.falloc space 1));
            ("n", Ompir.Eval.B_int 1);
          ]
        in
        let (_ : Gpusim.Device.report) =
          Offload.run ~cfg ~clauses:Clause.(none |> num_teams 1 |> num_threads 32) ~bindings c
        in
        ());
    Sys.time () -. t0
  in
  List.fold_left (fun best _ -> Float.min best (once ())) infinity [ 1; 2; 3 ]

let chain_is_linear () =
  let small = chain_cost 512 and large = chain_cost 4096 in
  (* 8x the links: linear reads about 11x, list-scoped (quadratic)
     checking and compiling about 56x *)
  let ratio = large /. Float.max small 1e-6 in
  if ratio >= 24.0 then
    Alcotest.failf "chain: 4096 links cost %.1fx 512 links (%.4f s vs %.4f s)" ratio
      large small

(* --- fuzzed kernel source --------------------------------------------- *)

let conformance_sources =
  lazy
    (Sys.readdir "conformance" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".omp")
    |> List.sort compare
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat "conformance" f)
             In_channel.input_all)
    |> Array.of_list)

let gen_bytes st =
  String.init (Gen.int_bound 200 st) (fun _ -> Char.chr (Gen.int_bound 255 st))

let token_chars = "{}()[];=+-*/<>!&|#,.0123456789aeinrstx _\n"

(* One to four byte-level edits of a conformance source: overwrite a
   byte (with anything, or with a character the lexer knows), delete
   or duplicate a span, or truncate. *)
let gen_mutant st =
  let src = pick (Lazy.force conformance_sources) st in
  let edit s =
    let len = String.length s in
    if len = 0 then s
    else
      let pos = Gen.int_bound (len - 1) st in
      let span = min (len - pos) (1 + Gen.int_bound 15 st) in
      match Gen.int_bound 4 st with
      | 0 ->
          String.mapi (fun i c -> if i = pos then Char.chr (Gen.int_bound 255 st) else c) s
      | 1 ->
          let c = token_chars.[Gen.int_bound (String.length token_chars - 1) st] in
          String.mapi (fun i c' -> if i = pos then c else c') s
      | 2 -> String.sub s 0 pos ^ String.sub s (pos + span) (len - pos - span)
      | 3 -> String.sub s 0 (pos + span) ^ String.sub s pos (len - pos)
      | _ -> String.sub s 0 pos
  in
  let rec go n s = if n = 0 then s else go (n - 1) (edit s) in
  go (1 + Gen.int_bound 3 st) src

(* A value, a located syntax error or a check error list; any other
   exception escapes and fails the property. *)
let front_door src =
  match Ompir.Parse.kernel src with
  | exception Ompir.Parse.Syntax_error { line; _ } -> line >= 1
  | k -> (
      match (Check.kernel k, Offload.compile k) with
      | Ok (), (Ok _ | Error _) -> true
      | Error es, Error es' -> es = es'
      | Error _, Ok _ -> false)

(* --- suite -------------------------------------------------------------- *)

let qcheck_seed = 0x5c09e

let qcheck_cases =
  QCheck.
    [
      Test.make ~name:"keyed Check == reference on differential kernels" ~count:200
        Test_differential.case_arbitrary same_check_differential;
      Test.make ~name:"keyed Check == reference on scope-stress kernels" ~count:600
        scope_arbitrary same_check;
      Test.make ~name:"keyed expr_type == reference" ~count:300
        (make gen_expr_env) same_expr_type;
      (* 100 + 200 = a fixed 300-case budget *)
      Test.make ~name:"front door: random bytes" ~count:100
        (make ~print:String.escaped gen_bytes) front_door;
      Test.make ~name:"front door: mutated conformance sources" ~count:200
        (make ~print:Fun.id gen_mutant) front_door;
    ]

let suite =
  [
    ( "frontend.check",
      List.map
        (fun ((name, _, _) as case) -> Alcotest.test_case name `Quick (run_scope_rule case))
        scope_rule_cases );
    ( "frontend.qcheck",
      List.map
        (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]))
        qcheck_cases );
    ( "frontend.sites",
      [
        Alcotest.test_case "unsanitized launches intern no site" `Quick
          unsanitized_interns_nothing;
        Alcotest.test_case "sanitized reports identical across engines and pools"
          `Quick sanitized_reports_identical;
      ] );
    ("frontend.scale", [ Alcotest.test_case "chain compiles in linear time" `Quick chain_is_linear ]);
  ]
