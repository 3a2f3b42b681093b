(* Sanitizer (ompsan) suite: known-answer conformance kernels through
   the full text pipeline, launched by the product and by the reference
   walker, the static may-race
   layer on the same sources, direct shadow-state unit tests, and the
   zero-cost-when-disabled invariance contract. *)

module Memory = Gpusim.Memory
module Mode = Omprt.Mode
module Compile = Ompir.Compile
module Ompsan = Gpusim.Ompsan
module Offload = Openmp.Offload
module Clause = Openmp.Clause

let cfg = Gpusim.Config.small
let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every run allocates a fresh global memory space whose id lands in the
   printed findings ("space#41"); blank just that id so reports from
   different runs compare equal exactly when the findings agree. *)
let normalize s =
  let tag = "space#" in
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if
        i + String.length tag <= n
        && String.sub s i (String.length tag) = tag
      then begin
        Buffer.add_string b "space#N";
        let j = ref (i + String.length tag) in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let normalized_strings san = List.map normalize (Ompsan.report_strings san)

let conformance_dir = "conformance"
let load file = Ompir.Parse.kernel_of_file (Filename.concat conformance_dir file)

(* The sanitizer knob goes through the same parse a user's
   environment does, and reach the launch on the pool [Knobs.pool]
   builds from them ([domains] workers, default sequential). *)
let with_knobs ?(domains = 0) pairs f =
  match Knobs.parse (fun name -> List.assoc_opt name pairs) with
  | Error msg -> Alcotest.fail msg
  | Ok k ->
      let pool = Knobs.pool { k with Knobs.domains } in
      Fun.protect
        ~finally:(fun () -> Gpusim.Pool.shutdown pool)
        (fun () -> f k pool)

(* Deterministic bindings; output arrays start zeroed (race_divergence
   branches on the initial contents of [out]). *)
let bindings_of ~sizes (k : Ompir.Ir.kernel) =
  let space = Memory.space () in
  let g = Ompsimd_util.Prng.create ~seed:77 in
  List.map
    (fun (p : Ompir.Ir.param) ->
      let b =
        match p.Ompir.Ir.pty with
        | Ompir.Ir.P_farray ->
            Compile.B_farr (Memory.falloc space (List.assoc p.Ompir.Ir.pname sizes))
        | Ompir.Ir.P_iarray ->
            let n = List.assoc p.Ompir.Ir.pname sizes in
            Compile.B_iarr
              (Memory.of_int_array space
                 (Array.init n (fun _ -> Ompsimd_util.Prng.int g 100)))
        | Ompir.Ir.P_int -> Compile.B_int (List.assoc p.Ompir.Ir.pname sizes)
        | Ompir.Ir.P_float -> Compile.B_float 1.25
      in
      (p.Ompir.Ir.pname, b))
    k.Ompir.Ir.params

let compiled_of ?(guardize = false) file =
  match Offload.compile ~guardize ~racecheck:true (load file) with
  | Ok c -> c
  | Error es ->
      Alcotest.failf "%s: compile failed: %s" file
        (String.concat "; "
           (List.map (fun (e : Ompir.Check.error) -> e.Ompir.Check.what) es))

(* [launch] is {!Offload.run} or the reference walker's counterpart. *)
let run_sanitized ?domains ?(launch : Reference.Offload_ref.launch = Offload.run) ~clauses ~sizes file =
  let bindings = bindings_of ~sizes (load file) in
  with_knobs ?domains [ ("OMPSIMD_SANITIZE", "1") ] (fun _ pool ->
      launch ~cfg ~pool ~clauses ~bindings (compiled_of file))

let sanitizer_report (r : Gpusim.Device.report) =
  match r.Gpusim.Device.sanitizer with
  | Some san -> san
  | None -> Alcotest.fail "sanitizer report missing from an enabled run"

let engines = [ ("walk", Reference.Offload_ref.run); ("compile", Offload.run) ]

(* ------------------------------------------------------------------ *)
(* Known-answer conformance kernels                                    *)
(* ------------------------------------------------------------------ *)

let race_global_clauses =
  Clause.(
    none |> num_teams 2 |> num_threads 32 |> simdlen 8
    |> parallel_mode Mode.Spmd)

let race_global_sizes = [ ("out", 64); ("n", 64) ]

let has_race_at san ~site_sub =
  List.exists
    (function
      | Ompsan.Race { first; second; _ } ->
          contains (Ompsan.site_label first.Ompsan.a_site) site_sub
          || contains (Ompsan.site_label second.Ompsan.a_site) site_sub
      | _ -> false)
    san.Ompsan.findings

(* provenance: a race names two distinct lanes and an IR-level site *)
let race_provenance_ok san ~site_sub =
  List.exists
    (function
      | Ompsan.Race { first; second; _ } ->
          first.Ompsan.a_tid <> second.Ompsan.a_tid
          && first.Ompsan.a_block >= 0
          && second.Ompsan.a_block >= 0
          && contains (Ompsan.site_label second.Ompsan.a_site) site_sub
      | _ -> false)
    san.Ompsan.findings

let test_race_global (launch : Reference.Offload_ref.launch) () =
  let r =
    run_sanitized ~launch ~clauses:race_global_clauses
      ~sizes:race_global_sizes "race_global.omp"
  in
  let san = sanitizer_report r in
  check_bool "report is dirty" false (Ompsan.is_clean san);
  check_bool "race at store out[i]" true (has_race_at san ~site_sub:"store out[i]");
  check_bool "block/lane/site provenance" true
    (race_provenance_ok san ~site_sub:"store out[i]")

let race_sharing_clauses =
  Clause.(
    none |> num_teams 2 |> num_threads 32 |> simdlen 8
    |> parallel_mode Mode.Spmd)

let race_sharing_sizes =
  [ ("marks", 4); ("out", 64); ("rows", 8); ("width", 8) ]

let test_race_sharing (launch : Reference.Offload_ref.launch) () =
  let r =
    run_sanitized ~launch ~clauses:race_sharing_clauses
      ~sizes:race_sharing_sizes "race_sharing.omp"
  in
  let san = sanitizer_report r in
  check_bool "report is dirty" false (Ompsan.is_clean san);
  check_bool "race at store marks[0]" true
    (has_race_at san ~site_sub:"store marks[0]");
  check_bool "cross-block race surfaced" true
    (List.exists
       (function Ompsan.Cross_race _ -> true | _ -> false)
       san.Ompsan.findings)

let divergence_clauses =
  Clause.(
    none |> num_teams 1 |> num_threads 32 |> simdlen 2
    |> parallel_mode Mode.Spmd)

let test_race_divergence (launch : Reference.Offload_ref.launch) () =
  let bindings = bindings_of ~sizes:[ ("out", 8); ("n", 1) ] (load "race_divergence.omp") in
  with_knobs [ ("OMPSIMD_SANITIZE", "1") ] (fun _ pool ->
      let c = compiled_of "race_divergence.omp" in
      match launch ~cfg ~pool ~clauses:divergence_clauses ~bindings c with
      | (_ : Gpusim.Device.report) ->
          Alcotest.fail "divergent kernel was expected to deadlock"
      | exception Gpusim.Engine.Deadlock msg ->
          check_bool "deadlock report carries barrier ids" true
            (contains msg "#");
          let aborted = Gpusim.Pool.take_aborted pool in
          check_bool "divergence finding recovered from aborted block" true
            (List.exists
               (function
                 | Ompsan.Divergence
                     { stalled_tid; arriving_tid; stalled_bar; arriving_bar; _ }
                   ->
                     stalled_tid <> arriving_tid && stalled_bar <> arriving_bar
                 | _ -> false)
               aborted);
          (* the redundant SPMD region store to out[0] is one logical
             lane's work: it must NOT be reported as a race *)
          check_bool "no race on the region-level store" false
            (List.exists
               (function Ompsan.Race _ -> true | _ -> false)
               aborted))

let atomic_clean_clauses =
  Clause.(
    none |> num_teams 2 |> num_threads 32 |> simdlen 4
    |> parallel_mode Mode.Spmd)

let atomic_clean_sizes = [ ("bins", 4); ("data", 64); ("n", 64) ]

let test_atomic_clean (launch : Reference.Offload_ref.launch) () =
  let r =
    run_sanitized ~launch ~clauses:atomic_clean_clauses
      ~sizes:atomic_clean_sizes "atomic_clean.omp"
  in
  let san = sanitizer_report r in
  check_bool "atomics do not race" true (Ompsan.is_clean san)

(* The ten behavioural conformance kernels are race-free by
   construction; the sanitizer must agree (true-negative coverage). *)
let clean_cases =
  [
    ("saxpy.omp", [ ("x", 96); ("y", 96); ("n", 96) ]);
    ("atomic_histogram.omp", [ ("data", 64); ("bins", 8); ("n", 64) ]);
    ( "reduction_dot.omp",
      [ ("a", 15 * 11); ("b", 15 * 11); ("out", 15); ("rows", 15); ("width", 11) ] );
    ( "guarded_rowinit.omp",
      [ ("marks", 13); ("out", 13 * 6); ("rows", 13); ("width", 6) ] );
    ("schedules.omp", [ ("out", 17 * 9); ("rows", 17); ("width", 9) ]);
    ("nested_for.omp", [ ("x", 40); ("out", 40); ("n", 40) ]);
    ("conditionals.omp", [ ("x", 50); ("out", 50); ("n", 50) ]);
    ("intrinsics.omp", [ ("x", 30); ("out", 30); ("n", 30) ]);
    ("two_regions.omp", [ ("a", 60); ("b", 60); ("n", 60) ]);
    ( "collapse_manual.omp",
      [ ("src", 7 * 9); ("dst", 7 * 9); ("ni", 7); ("nj", 9) ] );
  ]

let clean_clauses = Clause.(none |> num_teams 2 |> num_threads 64 |> simdlen 4)

let test_clean_kernels (launch : Reference.Offload_ref.launch) () =
  List.iter
    (fun (file, sizes) ->
      let r = run_sanitized ~launch ~clauses:clean_clauses ~sizes file in
      let san = sanitizer_report r in
      check_bool (Printf.sprintf "%s is sanitizer-clean" file) true
        (Ompsan.is_clean san))
    clean_cases

(* Identical verdict text across engines: site labels come from the IR,
   not the evaluation strategy. *)
let test_engines_agree () =
  let strings launch file clauses sizes =
    normalized_strings
      (sanitizer_report (run_sanitized ~launch ~clauses ~sizes file))
  in
  List.iter
    (fun (file, clauses, sizes) ->
      let walk = strings Reference.Offload_ref.run file clauses sizes in
      let staged = strings Offload.run file clauses sizes in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: identical findings across engines" file)
        walk staged)
    [
      ("race_global.omp", race_global_clauses, race_global_sizes);
      ("race_sharing.omp", race_sharing_clauses, race_sharing_sizes);
    ]

(* Identical verdicts sequential vs pooled: shadow state is per-block
   and per-domain, findings merge in ascending block id. *)
let test_pool_invariance () =
  let sequential =
    normalized_strings
      (sanitizer_report
         (run_sanitized ~clauses:race_sharing_clauses
            ~sizes:race_sharing_sizes "race_sharing.omp"))
  in
  let pooled =
    normalized_strings
      (sanitizer_report
         (run_sanitized ~domains:2
            ~clauses:race_sharing_clauses ~sizes:race_sharing_sizes
            "race_sharing.omp"))
  in
  Alcotest.(check (list string))
    "sequential and pooled reports identical" sequential pooled

(* ------------------------------------------------------------------ *)
(* Zero-cost-when-disabled invariance                                  *)
(* ------------------------------------------------------------------ *)

let test_disabled_invariance () =
  let run env =
    let file, sizes = List.hd clean_cases in
    let c = compiled_of file in
    let bindings = bindings_of ~sizes (load file) in
    with_knobs env (fun _ pool ->
        Offload.run ~cfg ~pool ~clauses:clean_clauses ~bindings c)
  in
  let off = run [ ("OMPSIMD_SANITIZE", "0") ] in
  let on_ = run [ ("OMPSIMD_SANITIZE", "1") ] in
  check_bool "disabled run has no sanitizer report" true
    (off.Gpusim.Device.sanitizer = None);
  check_bool "enabled run has a sanitizer report" true
    (on_.Gpusim.Device.sanitizer <> None);
  (* the hooks charge no virtual time and bump no counters: an enabled
     run of a clean kernel is bit-identical to a disabled one *)
  check_bool "time_cycles identical" true
    (off.Gpusim.Device.time_cycles = on_.Gpusim.Device.time_cycles);
  check_bool "counters identical" true
    (Gpusim.Counters.equal off.Gpusim.Device.counters
       on_.Gpusim.Device.counters)

(* ------------------------------------------------------------------ *)
(* Shadow-state unit tests (no device, no IR)                          *)
(* ------------------------------------------------------------------ *)

let unit_threads n =
  let counters = Gpusim.Counters.create () in
  let launch =
    { Gpusim.Thread.default_launch with Gpusim.Thread.sanitize = true }
  in
  let warp = Gpusim.Thread.make_warp ~cfg ~launch ~warp_index:0 in
  Array.init n (fun tid ->
      Gpusim.Thread.create ~cfg ~counters ~block_id:0 ~tid ~warp ())

let finish_block () =
  Ompsan.launch_report ~kernel:"unit" [| Ompsan.block_end () |]

let test_shared_conflict_unit () =
  let th = unit_threads 2 in
  Ompsan.block_begin ~block_id:0 ~num_threads:2 ~warp_size:32;
  Ompsan.shared_access th.(0) ~aid:0 ~addr:4 ~kind:Ompsan.Write;
  Ompsan.shared_access th.(1) ~aid:0 ~addr:4 ~kind:Ompsan.Write;
  let report = finish_block () in
  check_bool "unsynchronized same-cell writes race" false
    (Ompsan.is_clean report);
  check_int "exactly one finding" 1 (List.length report.Ompsan.findings)

let test_shared_barrier_separates () =
  let th = unit_threads 2 in
  Ompsan.block_begin ~block_id:0 ~num_threads:2 ~warp_size:32;
  Ompsan.shared_access th.(0) ~aid:0 ~addr:4 ~kind:Ompsan.Write;
  let arrive t =
    Ompsan.barrier_arrive t ~block_scope:true ~mask:0 ~bar_id:1
      ~bar_name:"b" ~expected:2 ~participants:[ 0; 1 ]
  in
  arrive th.(0);
  arrive th.(1);
  Ompsan.shared_access th.(1) ~aid:0 ~addr:4 ~kind:Ompsan.Write;
  check_bool "a barrier separates the writes" true
    (Ompsan.is_clean (finish_block ()))

let test_same_actor_exempt () =
  let th = unit_threads 2 in
  Ompsan.block_begin ~block_id:0 ~num_threads:2 ~warp_size:32;
  (* both lanes execute region code for logical thread 0 *)
  ignore (Ompsan.set_actor th.(1) 0);
  Ompsan.shared_access th.(0) ~aid:0 ~addr:4 ~kind:Ompsan.Write;
  Ompsan.shared_access th.(1) ~aid:0 ~addr:4 ~kind:Ompsan.Write;
  check_bool "same-actor redundant writes do not race" true
    (Ompsan.is_clean (finish_block ()));
  (* restoring per-tid attribution re-arms the detector *)
  Ompsan.block_begin ~block_id:0 ~num_threads:2 ~warp_size:32;
  let prev = Ompsan.set_actor th.(1) 0 in
  ignore (Ompsan.set_actor th.(1) prev);
  Ompsan.shared_access th.(0) ~aid:0 ~addr:4 ~kind:Ompsan.Write;
  Ompsan.shared_access th.(1) ~aid:0 ~addr:4 ~kind:Ompsan.Write;
  check_bool "distinct actors race again" false
    (Ompsan.is_clean (finish_block ()))

let test_atomic_exempt_unit () =
  let th = unit_threads 2 in
  Ompsan.block_begin ~block_id:0 ~num_threads:2 ~warp_size:32;
  Ompsan.shared_access th.(0) ~aid:0 ~addr:8 ~kind:Ompsan.Atomic;
  Ompsan.shared_access th.(1) ~aid:0 ~addr:8 ~kind:Ompsan.Atomic;
  check_bool "atomic-atomic is clean" true
    (Ompsan.is_clean (finish_block ()));
  Ompsan.block_begin ~block_id:0 ~num_threads:2 ~warp_size:32;
  Ompsan.shared_access th.(0) ~aid:0 ~addr:8 ~kind:Ompsan.Atomic;
  Ompsan.shared_access th.(1) ~aid:0 ~addr:8 ~kind:Ompsan.Write;
  check_bool "atomic-write still races" false
    (Ompsan.is_clean (finish_block ()))

(* ------------------------------------------------------------------ *)
(* Static may-race layer on the same sources                           *)
(* ------------------------------------------------------------------ *)

let static_findings file = (compiled_of file).Offload.may_races

let test_static_verdicts () =
  (* racy kernels are flagged, with the right store site *)
  let flagged file site_sub =
    let fs = static_findings file in
    check_bool (Printf.sprintf "%s statically flagged" file) true (fs <> []);
    check_bool
      (Printf.sprintf "%s flags %s" file site_sub)
      true
      (List.exists
         (fun (f : Ompir.Racecheck.finding) -> contains f.Ompir.Racecheck.site site_sub)
         fs)
  in
  flagged "race_global.omp" "store out[i]";
  flagged "race_sharing.omp" "store marks[0]";
  flagged "race_divergence.omp" "store out[0]";
  (* atomics are exempt *)
  check_int "atomic_clean.omp statically clean" 0
    (List.length (static_findings "atomic_clean.omp"));
  (* static findings surface as compiler remarks *)
  let c = compiled_of "race_global.omp" in
  check_bool "may-race remark emitted" true
    (List.exists (fun s -> contains s "may-race") (Offload.remarks c))

let test_static_clean_kernels () =
  List.iter
    (fun (file, _) ->
      let fs = static_findings file in
      check_bool
        (Printf.sprintf "%s statically clean (%s)" file
           (String.concat "; "
              (List.map Ompir.Racecheck.finding_to_string fs)))
        true (fs = []))
    clean_cases

(* Static and dynamic layers agree on every conformance kernel: a
   statically-flagged kernel is dynamically dirty (or divergent) and a
   statically-clean one runs sanitizer-clean. *)
let test_layers_agree () =
  let dynamic_dirty =
    [
      ("race_global.omp", race_global_clauses, race_global_sizes);
      ("race_sharing.omp", race_sharing_clauses, race_sharing_sizes);
    ]
  in
  List.iter
    (fun (file, clauses, sizes) ->
      check_bool (Printf.sprintf "%s: static layer flags it" file) true
        (static_findings file <> []);
      let san =
        sanitizer_report (run_sanitized ~clauses ~sizes file)
      in
      check_bool (Printf.sprintf "%s: dynamic layer confirms" file) false
        (Ompsan.is_clean san))
    dynamic_dirty;
  List.iter
    (fun (file, sizes) ->
      check_bool (Printf.sprintf "%s: static layer is quiet" file) true
        (static_findings file = []);
      let san =
        sanitizer_report
          (run_sanitized ~clauses:clean_clauses ~sizes file)
      in
      check_bool (Printf.sprintf "%s: dynamic layer agrees" file) true
        (Ompsan.is_clean san))
    clean_cases

let engine_cases name f =
  List.map
    (fun (engine, launch) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name engine) `Quick
        (f launch))
    engines

let suite =
  [
    ( "ompsan.conformance",
      engine_cases "race_global" test_race_global
      @ engine_cases "race_sharing" test_race_sharing
      @ engine_cases "race_divergence" test_race_divergence
      @ engine_cases "atomic_clean" test_atomic_clean
      @ engine_cases "clean kernels" test_clean_kernels
      @ [
          Alcotest.test_case "engines agree" `Quick test_engines_agree;
          Alcotest.test_case "pool invariance" `Quick test_pool_invariance;
        ] );
    ( "ompsan.invariance",
      [ Alcotest.test_case "disabled is zero-cost" `Quick test_disabled_invariance ] );
    ( "ompsan.shadow",
      [
        Alcotest.test_case "conflict" `Quick test_shared_conflict_unit;
        Alcotest.test_case "barrier separates" `Quick test_shared_barrier_separates;
        Alcotest.test_case "same actor exempt" `Quick test_same_actor_exempt;
        Alcotest.test_case "atomic exempt" `Quick test_atomic_exempt_unit;
      ] );
    ( "ompsan.static",
      [
        Alcotest.test_case "racy kernels flagged" `Quick test_static_verdicts;
        Alcotest.test_case "clean kernels quiet" `Quick test_static_clean_kernels;
        Alcotest.test_case "layers agree" `Quick test_layers_agree;
      ] );
  ]
