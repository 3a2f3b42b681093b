(* Certification of the optimization pipeline (Passes): every pass is
   differentially tested — the transformed kernel must be well-formed
   (run_verified), produce the same memory as the untransformed one on
   the device (bitwise for plain stores, tolerant for atomic arrays),
   agree bit-exactly between the two engines on the transformed kernel,
   and never introduce a static may-race finding.  Known-answer tests pin
   the shapes the transforms produce via the printer; parser tests pin
   the OMPSIMD_PASSES fail-fast behaviour; cache-key tests pin that
   differently-optimized variants can never alias in the serve cache. *)

module Ir = Ompir.Ir
module Compile = Ompir.Compile
module Eval = Reference.Eval
module Passes = Ompir.Passes
module Outline = Ompir.Outline
module Memory = Gpusim.Memory
module D = Test_differential

let cfg = Gpusim.Config.small

let errs es =
  String.concat "; "
    (List.map (fun (e : Ompir.Check.error) -> e.Ompir.Check.what) es)

(* --- the per-pass differential property --------------------------------- *)

let fingerprints k =
  List.map Ompir.Racecheck.finding_to_string (Ompir.Racecheck.check_kernel k)

(* Apply one pass and certify it end to end against the original. *)
let certify ?pool ~name ~options ~bindings_of ~arrays ~atomic pass k =
  match Passes.run_verified [ pass ] k with
  | Error (p, es) ->
      QCheck.Test.fail_reportf "pass %s broke well-formedness: %s" p (errs es)
  | Ok k' ->
      let before = fingerprints k in
      List.iter
        (fun s ->
          if not (List.mem s before) then
            QCheck.Test.fail_reportf "pass %s introduced may-race finding: %s"
              name s)
        (fingerprints k');
      if k' = k then true
      else begin
        let prog = Outline.run k and prog' = Outline.run k' in
        let _, b = bindings_of () in
        let _, b' = bindings_of () in
        let (_ : Gpusim.Device.report) =
          Eval.run ~cfg ?pool ~options ~bindings:b prog
        in
        let (_ : Gpusim.Device.report) =
          Eval.run ~cfg ?pool ~options ~bindings:b' prog'
        in
        List.iter
          (fun a ->
            let same =
              match pool with
              | None -> D.array_of b a = D.array_of b' a
              | Some _ -> D.close (D.array_of b a) (D.array_of b' a)
            in
            if not same then
              QCheck.Test.fail_reportf "pass %s changed %s[]" name a)
          arrays;
        List.iter
          (fun a ->
            if not (D.close (D.array_of b a) (D.array_of b' a)) then
              QCheck.Test.fail_reportf "pass %s drifted atomic %s[]" name a)
          atomic;
        (* both engines, same counters and simulated time, host agrees —
           on the TRANSFORMED kernel *)
        D.engines_agree ~name ?pool ~options ~bindings_of ~out_arrays:arrays
          ~atomic_arrays:atomic ~kernel:k' prog'
      end

(* Random well-formed parallel kernels (the differential generator),
   forced to `Auto so every case is sound without guardize. *)
let on_random ?pool pass case =
  let options =
    { (D.options_of case) with Compile.parallel_mode = `Auto }
  in
  certify ?pool ~name:pass.Passes.name ~options
    ~bindings_of:(fun () -> D.make_bindings case)
    ~arrays:[ "out"; "marks"; "red" ]
    ~atomic:[ "acc_arr" ] pass case.D.kernel

let on_collapse pass cc =
  certify ~name:pass.Passes.name ~options:(D.collapse_options cc)
    ~bindings_of:(fun () -> D.collapse_bindings cc)
    ~arrays:[ "out"; "red" ] ~atomic:[] pass (D.collapse_kernel cc)

(* --- sequential nest generator ------------------------------------------ *)

(* Dense sequential loop nests: literal bounds, affine row-major stores,
   adjacent same-space loop pairs — the shapes licm, strength reduction,
   interchange, fusion and For-unrolling actually fire on.  Sequential
   kernels are trivially race-free and bitwise deterministic. *)
type seq_case = {
  sk : Ir.kernel;
  sn : int;
  steams : int;
  smode : Omprt.Mode.t;
  sdesc : string;
}

let gen_seq_case st =
  let open QCheck in
  let w = List.nth [ 3; 4; 8 ] (Gen.int_range 0 2 st) in
  let r = Gen.int_range 2 5 st in
  let n = r * w in
  let fexpr vars depth = D.gen_float_expr vars [] depth st in
  let open Ir in
  let has_c = Gen.bool st in
  let perfect = Gen.bool st in
  let nest =
    if perfect then
      For
        {
          var = "i";
          lo = Int_lit 0;
          hi = Int_lit r;
          body =
            [
              For
                {
                  var = "j";
                  lo = Int_lit 0;
                  hi = Int_lit w;
                  body =
                    [
                      Store
                        ( "out",
                          Binop
                            (Add, Binop (Mul, Var "i", Int_lit w), Var "j"),
                          fexpr [ "i"; "j" ] 2 );
                    ];
                };
            ];
        }
    else
      For
        {
          var = "i";
          lo = Int_lit 0;
          hi = Int_lit r;
          body =
            (if has_c then
               [ Decl { name = "c"; ty = Tfloat; init = fexpr [] 2 } ]
             else [])
            @ [
                Decl { name = "d"; ty = Tfloat; init = fexpr [ "i" ] 2 };
                For
                  {
                    var = "j";
                    lo = Int_lit 0;
                    hi = Int_lit w;
                    body =
                      [
                        Store
                          ( "out",
                            Binop
                              (Add, Binop (Mul, Var "i", Int_lit w), Var "j"),
                            Binop
                              ( Add,
                                (if has_c then
                                   Binop (Add, Var "c", Var "d")
                                 else Var "d"),
                                fexpr [ "i"; "j" ] 1 ) );
                      ];
                  };
              ];
        }
  in
  let pair =
    [
      For
        {
          var = "i";
          lo = Int_lit 0;
          hi = Int_lit r;
          body =
            [
              Store
                ( "out2",
                  Binop (Mod, Binop (Mul, Var "i", Int_lit w), Var "n"),
                  fexpr [ "i" ] 2 );
            ];
        };
      For
        {
          var = "i2";
          lo = Int_lit 0;
          hi = Int_lit r;
          body =
            [
              Store
                ( "out3",
                  Binop (Mod, Binop (Mul, Var "i2", Int_lit w), Var "n"),
                  fexpr [ "i2" ] 2 );
            ];
        };
    ]
  in
  let with_pair = Gen.bool st in
  let body = (nest :: []) @ if with_pair then pair else [] in
  let sk =
    kernel ~name:"seqnest"
      ~params:
        [
          { pname = "src"; pty = P_farray };
          { pname = "out"; pty = P_farray };
          { pname = "out2"; pty = P_farray };
          { pname = "out3"; pty = P_farray };
          { pname = "n"; pty = P_int };
        ]
      body
  in
  {
    sk;
    sn = n;
    steams = Gen.int_range 1 2 st;
    smode = (if Gen.bool st then Omprt.Mode.Spmd else Omprt.Mode.Generic);
    sdesc =
      Printf.sprintf "r=%d w=%d perfect=%b c=%b pair=%b" r w perfect has_c
        with_pair;
  }

let seq_bindings sc =
  let space = Memory.space () in
  let g = Ompsimd_util.Prng.create ~seed:(sc.sn + 101) in
  ( space,
    [
      ( "src",
        Compile.B_farr
          (Memory.of_float_array space
             (Array.init sc.sn (fun _ -> Ompsimd_util.Prng.float g 2.0 -. 1.0)))
      );
      ("out", Compile.B_farr (Memory.falloc space sc.sn));
      ("out2", Compile.B_farr (Memory.falloc space sc.sn));
      ("out3", Compile.B_farr (Memory.falloc space sc.sn));
      ("n", Compile.B_int sc.sn);
    ] )

let seq_options sc =
  {
    Compile.num_teams = sc.steams;
    num_threads = 32;
    teams_mode = sc.smode;
    parallel_mode = `Auto;
    simd_len = 1;
    sharing_bytes = 2048;
  }

let print_seq sc =
  Printf.sprintf "%s teams=%d mode=%s\n%s" sc.sdesc sc.steams
    (Omprt.Mode.to_string sc.smode)
    (Ompir.Printer.kernel_to_string sc.sk)

let seq_arbitrary = QCheck.make ~print:print_seq gen_seq_case

let on_seq pass sc =
  (match Ompir.Check.kernel sc.sk with
  | Ok () -> ()
  | Error es ->
      QCheck.Test.fail_reportf "seq generator produced ill-formed kernel: %s"
        (errs es));
  certify ~name:pass.Passes.name ~options:(seq_options sc)
    ~bindings_of:(fun () -> seq_bindings sc)
    ~arrays:[ "out"; "out2"; "out3" ]
    ~atomic:[] pass sc.sk

(* --- the qcheck fleet ---------------------------------------------------- *)

let full_spec = "fold,licm,strength,collapse,interchange,fuse,tile:4,unroll,dce,spmdize"

let qcheck_cases =
  let pool = Gpusim.Pool.create ~domains:3 () in
  let t = QCheck.Test.make in
  [
    t ~name:"pass fold: certified on random kernels" ~count:100 D.case_arbitrary
      (on_random Passes.fold);
    t ~name:"pass dce: certified on random kernels" ~count:100 D.case_arbitrary
      (on_random Passes.dce);
    t ~name:"pass spmdize: certified on random kernels" ~count:100
      D.case_arbitrary
      (on_random Passes.spmdize_upgrade);
    t ~name:"pass unroll: certified on random kernels (simd replication)"
      ~count:100 D.case_arbitrary
      (on_random (Passes.unroll ~max_trip:Passes.warp_width ~simd_trip:8 ()));
    t ~name:"pass unroll: certified on sequential nests" ~count:100
      seq_arbitrary
      (on_seq (Passes.unroll ~max_trip:Passes.warp_width ()));
    t ~name:"pass licm: certified on sequential nests" ~count:100 seq_arbitrary
      (on_seq (Passes.licm ()));
    t ~name:"pass licm: certified on random kernels" ~count:100
      D.case_arbitrary
      (on_random (Passes.licm ()));
    t ~name:"pass strength: certified on sequential nests" ~count:100
      seq_arbitrary
      (on_seq (Passes.strength_reduce ()));
    t ~name:"pass interchange: certified on sequential nests" ~count:100
      seq_arbitrary
      (on_seq (Passes.interchange ()));
    t ~name:"pass fuse: certified on sequential nests" ~count:100 seq_arbitrary
      (on_seq (Passes.fuse ()));
    t ~name:"pass collapse: certified on collapsed kernels" ~count:100
      D.collapse_arbitrary
      (on_collapse (Passes.collapse ()));
    t ~name:"pass tile: certified on random kernels" ~count:100
      D.case_arbitrary
      (on_random (Passes.tile ~width:4 ()));
    t ~name:"pass tile: certified on collapsed kernels" ~count:100
      D.collapse_arbitrary
      (on_collapse (Passes.tile ~width:4 ()));
    t ~name:"full spec pipeline: run_verified Ok on every random kernel"
      ~count:100 D.case_arbitrary
      (fun case ->
        match Passes.run_verified (Passes.pipeline_of_spec full_spec)
                case.D.kernel
        with
        | Ok (_ : Ir.kernel) -> true
        | Error (p, es) ->
            QCheck.Test.fail_reportf "pipeline broke at %s: %s" p (errs es));
    t ~name:"full spec pipeline: certified on pooled domains" ~count:25
      D.case_arbitrary
      (on_random ~pool
         {
           Passes.name = "pipeline";
           transform = Passes.run (Passes.pipeline_of_spec full_spec);
         });
  ]

let qcheck_seed = 0x9a55e5

(* --- structural pin ------------------------------------------------------- *)

(* The certification above checks that a pass preserves meaning; this
   pins what it builds.  Every pass, with the arguments the fleet uses
   (plus a few targeted specs), runs over a fixed-seed corpus of random,
   sequential and collapsed kernels; the printed outputs, and the
   outline captures, SPMD verdicts, weight and guard count of each
   output, hash to one MD5.  A refactor of the IR walkers must leave it unchanged. *)
let pin_corpus () =
  let take arb =
    QCheck.Gen.generate ~rand:(Random.State.make [| qcheck_seed |]) ~n:40
      (QCheck.gen arb)
  in
  List.map (fun c -> c.D.kernel) (take D.case_arbitrary)
  @ List.map (fun sc -> sc.sk) (take seq_arbitrary)
  @ List.map D.collapse_kernel (take D.collapse_arbitrary)

let pin_passes =
  Passes.
    [
      fold; dce; spmdize_upgrade;
      unroll ~max_trip:warp_width ~simd_trip:8 ();
      unroll ~max_trip:warp_width ();
      licm (); strength_reduce (); collapse (); interchange (); fuse ();
      tile ~width:4 ();
      { name = "default"; transform = run default_pipeline };
      { name = "full"; transform = run (pipeline_of_spec full_spec) };
      {
        name = "targeted";
        transform =
          run
            (pipeline_of_spec
               "licm@#1,strength@i,unroll:4@#2,fuse@#0,tile:4@#1,collapse@#0");
      };
    ]

let pin_digest () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun k ->
      List.iter
        (fun (p : Passes.pass) ->
          let k' = p.transform k in
          let prog = Outline.run k' in
          Buffer.add_string buf p.name;
          Buffer.add_string buf (Ompir.Printer.kernel_to_string k');
          List.iter
            (fun (o : Outline.outlined) ->
              Buffer.add_string buf
                (Printf.sprintf "%d:%s:%s;" o.fn_id o.loop_var
                   (String.concat "," o.captures)))
            prog.Outline.outlined;
          List.iter
            (fun (v, m) -> Buffer.add_string buf (v ^ Omprt.Mode.to_string m))
            (Ompir.Spmdize.analyze k');
          Buffer.add_string buf
            (Printf.sprintf "|%d|%d\n" (Ompir.Kdigest.weight k')
               (snd (Ompir.Spmdize.guardize k'))))
        pin_passes)
    (pin_corpus ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_pass_pin () =
  Alcotest.(check string) "md5 of every pass's output on the pin corpus"
    "b210e8606da19a2e12a14e16db98def3" (pin_digest ())

(* --- known-answer transforms (printer round-trip) ------------------------ *)

let params =
  [
    { Ir.pname = "src"; pty = Ir.P_farray };
    { Ir.pname = "out"; pty = Ir.P_farray };
    { Ir.pname = "n"; pty = Ir.P_int };
  ]

let k body = Ir.kernel ~name:"ka" ~params body

let check_transform what pass input expected () =
  let got = Passes.run [ pass ] input in
  let p = Ompir.Printer.kernel_to_string in
  Alcotest.(check string) what (p expected) (p got)

let ka_licm =
  let open Ir in
  let input =
    k
      [
        For
          {
            var = "i";
            lo = Int_lit 0;
            hi = Int_lit 4;
            body =
              [
                Decl { name = "c"; ty = Tfloat; init = Load ("src", Int_lit 0) };
                Store ("out", Var "i", Var "c");
              ];
          };
      ]
  in
  let expected =
    k
      [
        Decl { name = "c__0"; ty = Tfloat; init = Load ("src", Int_lit 0) };
        For
          {
            var = "i";
            lo = Int_lit 0;
            hi = Int_lit 4;
            body = [ Store ("out", Var "i", Var "c__0") ];
          };
      ]
  in
  check_transform "licm hoists the invariant load" (Passes.licm ()) input
    expected

let ka_strength =
  let open Ir in
  let input =
    k
      [
        For
          {
            var = "i";
            lo = Int_lit 0;
            hi = Var "n";
            body =
              [
                Store
                  ( "out",
                    Binop (Mod, Binop (Mul, Var "i", Int_lit 4), Var "n"),
                    Float_lit 1.0 );
              ];
          };
      ]
  in
  let expected =
    k
      [
        Decl { name = "i_sr"; ty = Tint; init = Int_lit 0 };
        For
          {
            var = "i";
            lo = Int_lit 0;
            hi = Var "n";
            body =
              [
                Store
                  ("out", Binop (Mod, Var "i_sr", Var "n"), Float_lit 1.0);
                Assign ("i_sr", Binop (Add, Var "i_sr", Int_lit 4));
              ];
          };
      ]
  in
  check_transform "strength reduction rewrites i*4 into a recurrence"
    (Passes.strength_reduce ()) input expected

let ka_collapse =
  let open Ir in
  let rest =
    [
      Store
        ( "out",
          Binop (Add, Binop (Mul, Var "a", Int_lit 4), Var "b"),
          Float_lit 2.0 );
    ]
  in
  let input =
    k
      [
        collapsed_distribute_parallel_for
          ~vars:[ ("a", Int_lit 3); ("b", Int_lit 4) ]
          rest;
      ]
  in
  let expected =
    k
      [
        Distribute_parallel_for
          {
            loop_var = "a";
            lo = Int_lit 0;
            hi = Int_lit 3;
            body =
              [ For { var = "b"; lo = Int_lit 0; hi = Int_lit 4; body = rest } ];
            fn_id = -1;
            sched = Sched_static;
          };
      ]
  in
  check_transform "collapse recovers the explicit 2-nest" (Passes.collapse ())
    input expected

(* The outermost decoder of a hand-collapsed nest carries no redundant
   [mod] — test/conformance/collapse_manual.omp (and clang's collapse
   lowering) write [int i = f / nj;] — so the pass recovers its extent
   by peeling the divisor off the flat bound. *)
let manual_params =
  [
    { Ir.pname = "src"; pty = Ir.P_farray };
    { Ir.pname = "out"; pty = Ir.P_farray };
    { Ir.pname = "ni"; pty = Ir.P_int };
    { Ir.pname = "nj"; pty = Ir.P_int };
  ]

let manual_rest =
  let open Ir in
  [
    Store
      ( "out",
        Binop (Add, Binop (Mul, Var "b", Var "ni"), Var "a"),
        Load ("src", Binop (Add, Binop (Mul, Var "a", Var "nj"), Var "b")) );
  ]

let manual_input =
  let open Ir in
  kernel ~name:"ka" ~params:manual_params
    [
      Distribute_parallel_for
        {
          loop_var = "f";
          lo = Int_lit 0;
          hi = Binop (Mul, Var "ni", Var "nj");
          body =
            Decl
              { name = "a"; ty = Tint; init = Binop (Div, Var "f", Var "nj") }
            :: Decl
                 { name = "b"; ty = Tint; init = Binop (Mod, Var "f", Var "nj") }
            :: manual_rest;
          fn_id = -1;
          sched = Sched_static;
        };
    ]

let ka_collapse_manual =
  let open Ir in
  let expected =
    kernel ~name:"ka" ~params:manual_params
      [
        Distribute_parallel_for
          {
            loop_var = "a";
            lo = Int_lit 0;
            hi = Var "ni";
            body =
              [
                For
                  { var = "b"; lo = Int_lit 0; hi = Var "nj"; body = manual_rest };
              ];
            fn_id = -1;
            sched = Sched_static;
          };
      ]
  in
  check_transform "collapse peels the bare-div outermost decoder"
    (Passes.collapse ()) manual_input expected

(* ... and the bare-div shape must certify end to end on the device, not
   just structurally. *)
let test_collapse_manual_exec () =
  let ni = 6 and nj = 7 in
  let bindings_of () =
    let space = Memory.space () in
    let g = Ompsimd_util.Prng.create ~seed:42 in
    ( space,
      [
        ( "src",
          Compile.B_farr
            (Memory.of_float_array space
               (Array.init (ni * nj) (fun _ ->
                    Ompsimd_util.Prng.float g 2.0 -. 1.0))) );
        ("out", Compile.B_farr (Memory.falloc space (ni * nj)));
        ("ni", Compile.B_int ni);
        ("nj", Compile.B_int nj);
      ] )
  in
  let options =
    {
      Compile.num_teams = 2;
      num_threads = 32;
      teams_mode = Omprt.Mode.Spmd;
      parallel_mode = `Auto;
      simd_len = 1;
      sharing_bytes = 2048;
    }
  in
  Alcotest.(check bool)
    "bare-div collapse certifies on the device" true
    (certify ~name:"collapse" ~options ~bindings_of ~arrays:[ "out" ]
       ~atomic:[] (Passes.collapse ()) manual_input)

let ka_interchange =
  let open Ir in
  let store =
    Store
      ( "out",
        Binop (Add, Binop (Mul, Var "i", Int_lit 4), Var "j"),
        Load ("src", Binop (Add, Binop (Mul, Var "i", Int_lit 4), Var "j")) )
  in
  let input =
    k
      [
        For
          {
            var = "i";
            lo = Int_lit 0;
            hi = Int_lit 3;
            body =
              [
                For
                  { var = "j"; lo = Int_lit 0; hi = Int_lit 4; body = [ store ] };
              ];
          };
      ]
  in
  let expected =
    k
      [
        For
          {
            var = "j";
            lo = Int_lit 0;
            hi = Int_lit 4;
            body =
              [
                For
                  { var = "i"; lo = Int_lit 0; hi = Int_lit 3; body = [ store ] };
              ];
          };
      ]
  in
  check_transform "interchange swaps the independent 2-nest"
    (Passes.interchange ()) input expected

let ka_fuse =
  let open Ir in
  let input =
    k
      [
        For
          {
            var = "i";
            lo = Int_lit 0;
            hi = Var "n";
            body = [ Store ("out", Var "i", Float_lit 1.0) ];
          };
        For
          {
            var = "i2";
            lo = Int_lit 0;
            hi = Var "n";
            body = [ Store ("src", Var "i2", Float_lit 2.0) ];
          };
      ]
  in
  let expected =
    k
      [
        For
          {
            var = "i";
            lo = Int_lit 0;
            hi = Var "n";
            body =
              [
                Store ("out", Var "i", Float_lit 1.0);
                Store ("src", Var "i", Float_lit 2.0);
              ];
          };
      ]
  in
  check_transform "fusion merges adjacent independent loops" (Passes.fuse ())
    input expected

let ka_unroll_for =
  let open Ir in
  let input =
    k
      [
        For
          {
            var = "i";
            lo = Int_lit 0;
            hi = Int_lit 2;
            body = [ Atomic_add ("out", Int_lit 0, Var "i") ];
          };
      ]
  in
  let expected =
    k
      [
        Atomic_add ("out", Int_lit 0, Int_lit 0);
        Atomic_add ("out", Int_lit 0, Int_lit 1);
      ]
  in
  check_transform "For-unroll replicates literal trips, atomics included"
    (Passes.unroll ()) input expected

let ka_tile =
  let open Ir in
  let body = [ Store ("out", Var "j", Float_lit 1.0) ] in
  let dpf inner =
    Distribute_parallel_for
      {
        loop_var = "r";
        lo = Int_lit 0;
        hi = Int_lit 1;
        body = inner;
        fn_id = -1;
        sched = Sched_static;
      }
  in
  let input =
    k [ dpf [ simd ~var:"j" ~lo:(Int_lit 0) ~hi:(Var "n") body ] ]
  in
  let expected =
    k
      [
        dpf
             [
               Decl { name = "j_lo"; ty = Tint; init = Int_lit 0 };
               Decl { name = "j_hi"; ty = Tint; init = Var "n" };
               Decl
                 {
                   name = "j_tiles";
                   ty = Tint;
                   init =
                     Binop
                       ( Div,
                         Binop
                           ( Add,
                             Binop (Sub, Var "j_hi", Var "j_lo"),
                             Int_lit 3 ),
                         Int_lit 4 );
                 };
               For
                 {
                   var = "j_t";
                   lo = Int_lit 0;
                   hi = Var "j_tiles";
                   body =
                     [
                       Simd
                         {
                           loop_var = "j";
                           lo =
                             Binop
                               ( Add,
                                 Var "j_lo",
                                 Binop (Mul, Var "j_t", Int_lit 4) );
                           hi =
                             Binop
                               ( Min,
                                 Var "j_hi",
                                 Binop
                                   ( Add,
                                     Var "j_lo",
                                     Binop
                                       ( Mul,
                                         Binop (Add, Var "j_t", Int_lit 1),
                                         Int_lit 4 ) ) );
                           body;
                           fn_id = -1;
                           sched = Sched_static;
                         };
                     ];
                 };
             ];
      ]
  in
  check_transform "tiling splits a simd loop into warp-sized rounds"
    (Passes.tile ~width:4 ()) input expected

(* targeting: #n addresses the nth loop in pre-order, @var by variable *)
let ka_targeting () =
  let open Ir in
  let loop v =
    For
      {
        var = v;
        lo = Int_lit 0;
        hi = Int_lit 2;
        body = [ Store ("out", Var v, Float_lit 1.0) ];
      }
  in
  let input = k [ loop "i"; loop "q" ] in
  let p = Ompir.Printer.kernel_to_string in
  let by_pos = Passes.run [ Passes.unroll ~target:(Passes.T_nth 1) () ] input in
  let by_var = Passes.run [ Passes.unroll ~target:(Passes.T_var "q") () ] input in
  let expected =
    k
      [
        loop "i";
        Store ("out", Int_lit 0, Float_lit 1.0);
        Store ("out", Int_lit 1, Float_lit 1.0);
      ]
  in
  Alcotest.(check string) "T_nth 1 unrolls only the second loop" (p expected)
    (p by_pos);
  Alcotest.(check string) "T_var q agrees with T_nth 1" (p expected) (p by_var)

(* --- spec parsing -------------------------------------------------------- *)

let invalid what f =
  match f () with
  | exception Invalid_argument msg -> msg
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_spec_parsing () =
  let names spec = List.map (fun p -> p.Passes.name) (Passes.pipeline_of_spec spec) in
  Alcotest.(check (list string))
    "blank means default"
    (List.map (fun p -> p.Passes.name) Passes.default_pipeline)
    (names "");
  Alcotest.(check (list string))
    "default keyword" (names "") (names "default");
  Alcotest.(check (list string)) "none is empty" [] (names "none");
  Alcotest.(check (list string))
    "explicit list" [ "fold"; "licm"; "dce" ] (names "fold,licm,dce");
  Alcotest.(check (list string))
    "arguments and targets parse" [ "unroll(16)"; "tile(8)" ]
    (names "unroll:16@i, tile:8@#2")

let test_spec_errors () =
  let check_msg what spec needles =
    let msg = invalid what (fun () -> Passes.pipeline_of_spec spec) in
    List.iter
      (fun needle ->
        if not (contains msg needle) then
          Alcotest.failf "%s: message %S should mention %S" what msg needle)
      ("OMPSIMD_PASSES" :: needles)
  in
  check_msg "unknown pass" "fold,bogus" [ "unknown pass"; "bogus"; "known:" ];
  check_msg "empty item" "fold,,dce" [ "empty pass name" ];
  check_msg "bad argument" "unroll:x" [ "unroll:x"; "argument" ];
  check_msg "zero width" "tile:0" [ "argument" ];
  check_msg "argless pass" "fold:3" [ "takes no argument" ];
  check_msg "targetless pass" "dce@i" [ "takes no target" ];
  check_msg "bad position" "licm@#x" [ "loop position" ]

(* --- offload wiring: knob, fail-fast, cache identity ---------------------- *)

let small_kernel =
  let open Ir in
  kernel ~name:"cachek" ~params
    [
      distribute_parallel_for ~var:"r" ~lo:(Int_lit 0) ~hi:(Int_lit 4)
        [
          simd ~var:"j" ~lo:(Int_lit 0) ~hi:(Int_lit 8)
            [
              Store
                ( "out",
                  Binop (Add, Binop (Mul, Var "r", Int_lit 8), Var "j"),
                  Load
                    ( "src",
                      Binop
                        ( Mod,
                          Binop (Add, Var "r", Var "j"),
                          Var "n" ) ) );
            ];
        ];
    ]

(* The OMPSIMD_PASSES knob as the edge parses it. *)
let parse_passes value =
  Knobs.parse (fun name ->
      if name = "OMPSIMD_PASSES" then Some value else None)

let env_knobs value =
  match parse_passes value with
  | Ok k -> k.Knobs.compile
  | Error msg -> Alcotest.failf "OMPSIMD_PASSES=%S rejected: %s" value msg

let test_cache_key_distinguishes () =
  let key passes =
    Openmp.Offload.cache_key
      ~knobs:{ Openmp.Offload.default_knobs with Openmp.Offload.passes }
      small_kernel
  in
  let base = key "" in
  Alcotest.(check string) "blank spec equals default spec" base (key "default");
  let specs = [ "none"; "fold,dce"; "fold,licm,dce"; full_spec ] in
  List.iter
    (fun s ->
      if key s = base then
        Alcotest.failf "spec %S must not alias the default cache key" s)
    specs;
  let distinct = List.sort_uniq compare (List.map key specs) in
  Alcotest.(check int)
    "distinct pipelines get distinct keys" (List.length specs)
    (List.length distinct)

let test_cache_key_env_flip () =
  (* the parsed knob must flow into the key, so flipping OMPSIMD_PASSES
     can never hit a cache entry compiled under a different pipeline *)
  let key value =
    Openmp.Offload.cache_key ~knobs:(env_knobs value) small_kernel
  in
  let base = Openmp.Offload.cache_key small_kernel in
  Alcotest.(check string) "a blank knob keeps the default key" base (key "");
  if key "fold,licm,strength,dce" = base then
    Alcotest.fail "OMPSIMD_PASSES flip aliased the default-pipeline cache key";
  Alcotest.(check string)
    "explicit default spec keeps the default key" base (key "default")

let test_fail_fast () =
  let msg =
    match parse_passes "fold,nonsense" with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail "a malformed OMPSIMD_PASSES must not parse"
  in
  List.iter
    (fun needle ->
      if not (contains msg needle) then
        Alcotest.failf "message %S should mention %S" msg needle)
    [ "OMPSIMD_PASSES"; "nonsense"; "unknown pass" ];
  let msg2 =
    invalid "compile on malformed knob" (fun () ->
        Openmp.Offload.compile ~passes:"unroll:oops" small_kernel)
  in
  if not (contains msg2 "OMPSIMD_PASSES") then
    Alcotest.failf "compile message %S should name the variable" msg2

let test_compile_with_spec () =
  (* an optimized artifact must compile and run to the same memory as the
     default one *)
  let run passes =
    let c =
      match Openmp.Offload.compile ~passes small_kernel with
      | Ok c -> c
      | Error es -> Alcotest.failf "compile failed: %s" (errs es)
    in
    let space = Memory.space () in
    let n = 32 in
    let g = Ompsimd_util.Prng.create ~seed:7 in
    let bindings =
      [
        ( "src",
          Compile.B_farr
            (Memory.of_float_array space
               (Array.init n (fun _ -> Ompsimd_util.Prng.float g 2.0 -. 1.0)))
        );
        ("out", Compile.B_farr (Memory.falloc space n));
        ("n", Compile.B_int n);
      ]
    in
    let (_ : Gpusim.Device.report) =
      Openmp.Offload.run ~cfg ~bindings c
    in
    match List.assoc "out" bindings with
    | Compile.B_farr a -> Memory.to_float_array a
    | _ -> assert false
  in
  let reference = run "" in
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Printf.sprintf "spec %S matches default output" spec)
        true
        (run spec = reference))
    [ "none"; full_spec; "fold,tile:4,dce"; "spmdize" ]

let test_spmdize_upgrade () =
  let open Ir in
  let kk =
    kernel ~name:"gen" ~params
      [
        distribute_parallel_for ~var:"r" ~lo:(Int_lit 0) ~hi:(Int_lit 4)
          [
            Store ("out", Var "r", Float_lit 1.0);
            simd ~var:"j" ~lo:(Int_lit 0) ~hi:(Int_lit 8)
              [
                Store
                  ( "out",
                    Binop
                      ( Mod,
                        Binop
                          (Add, Binop (Mul, Var "r", Int_lit 8), Var "j"),
                        Var "n" ),
                    Float_lit 2.0 );
              ];
          ];
      ]
  in
  Alcotest.(check bool) "region starts generic" false (Ompir.Spmdize.all_spmd kk);
  let kk' = Passes.run [ Passes.spmdize_upgrade ] kk in
  Alcotest.(check bool) "upgraded to SPMD" true (Ompir.Spmdize.all_spmd kk')

(* Five nested literal 32-trip loops: every level is within unroll's trip
   limit, so only the node budget keeps the default pipeline from
   multiplying them out (32^5 replicas). *)
let deep_nest_source =
  let vars = [ "a"; "b"; "c"; "d"; "e" ] in
  let opens =
    List.map (fun v -> Printf.sprintf "for (%s = 0; %s < 32; %s++) {" v v v) vars
  in
  String.concat "\n"
    ([
       "kernel deep(double* x, double* out, int n) {";
       "#pragma omp teams distribute parallel for";
       "for (i = 0; i < n; i++) {";
     ]
    @ opens
    @ [ "out[i] = out[i] + x[(a + b + c + d + e) % n];" ]
    @ List.map (fun _ -> "}") vars
    @ [ "}"; "}" ])

let test_deep_nest_budget () =
  let k = Ompir.Parse.kernel deep_nest_source in
  let t0 = Sys.time () in
  match Openmp.Offload.compile k with
  | Error es -> Alcotest.failf "deep nest: %s" (errs es)
  | Ok c ->
      let secs = Sys.time () -. t0 in
      let weight = Ompir.Kdigest.weight c.Openmp.Offload.program.Outline.kernel in
      if weight > 10_000 then Alcotest.failf "deep nest unrolled to %d nodes" weight;
      if secs > 1.0 then Alcotest.failf "deep nest compiled in %.2f s" secs

let unit_cases =
  [
    Alcotest.test_case "licm known answer" `Quick ka_licm;
    Alcotest.test_case "strength known answer" `Quick ka_strength;
    Alcotest.test_case "collapse known answer" `Quick ka_collapse;
    Alcotest.test_case "collapse bare-div known answer" `Quick
      ka_collapse_manual;
    Alcotest.test_case "collapse bare-div device certification" `Quick
      test_collapse_manual_exec;
    Alcotest.test_case "interchange known answer" `Quick ka_interchange;
    Alcotest.test_case "fuse known answer" `Quick ka_fuse;
    Alcotest.test_case "unroll-for known answer" `Quick ka_unroll_for;
    Alcotest.test_case "tile known answer" `Quick ka_tile;
    Alcotest.test_case "loop targeting" `Quick ka_targeting;
    Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "spec errors fail fast" `Quick test_spec_errors;
    Alcotest.test_case "cache key distinguishes pipelines" `Quick
      test_cache_key_distinguishes;
    Alcotest.test_case "cache key follows OMPSIMD_PASSES" `Quick
      test_cache_key_env_flip;
    Alcotest.test_case "malformed specs fail fast end to end" `Quick
      test_fail_fast;
    Alcotest.test_case "optimized compiles run identically" `Quick
      test_compile_with_spec;
    Alcotest.test_case "spmdize upgrade" `Quick test_spmdize_upgrade;
    Alcotest.test_case "every pass's output pinned on a fixed corpus" `Quick
      test_pass_pin;
    Alcotest.test_case "literal nests stay within the unroll budget" `Quick
      test_deep_nest_budget;
  ]

let suite =
  [
    ("passes", unit_cases);
    ( "passes.differential",
      List.map
        (fun t ->
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| qcheck_seed |])
            t)
        qcheck_cases );
  ]
