(* Unit and property tests for the ompsimd_util library. *)

module Prng = Ompsimd_util.Prng
module Stats = Ompsimd_util.Stats
module Mask = Ompsimd_util.Mask
module Table = Ompsimd_util.Table

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Prng ------------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int_in g ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_prng_uniform_range () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let u = Prng.uniform g in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_prng_uniform_mean () =
  let g = Prng.create ~seed:3 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.uniform g
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_prng_normal_moments () =
  let g = Prng.create ~seed:5 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Prng.normal g ~mu:3.0 ~sigma:2.0) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  Alcotest.(check bool) "mean approx 3" true (abs_float (m -. 3.0) < 0.1);
  Alcotest.(check bool) "stddev approx 2" true (abs_float (sd -. 2.0) < 0.1)

let test_prng_geometric () =
  let g = Prng.create ~seed:9 in
  for _ = 1 to 500 do
    Alcotest.(check bool) "non-negative" true (Prng.geometric g ~p:0.3 >= 0)
  done;
  check Alcotest.int "p=1 is 0" 0 (Prng.geometric g ~p:1.0)

let test_prng_zipf_range () =
  let g = Prng.create ~seed:13 in
  for _ = 1 to 1000 do
    let v = Prng.zipf g ~n:50 ~s:1.2 in
    Alcotest.(check bool) "in [1,n]" true (v >= 1 && v <= 50)
  done

let test_prng_zipf_skew () =
  let g = Prng.create ~seed:17 in
  let n = 5000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if Prng.zipf g ~n:100 ~s:1.5 = 1 then incr ones
  done;
  (* rank 1 of a zipf(1.5) on [1,100] has probability ~0.38 *)
  Alcotest.(check bool) "rank 1 dominates" true (!ones > n / 4)

let test_prng_shuffle_permutes () =
  let g = Prng.create ~seed:21 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 100 Fun.id) sorted

let test_prng_split_independent () =
  let g = Prng.create ~seed:33 in
  let g1 = Prng.split g in
  let g2 = Prng.split g in
  Alcotest.(check bool) "split streams differ" true
    (Prng.bits64 g1 <> Prng.bits64 g2)

let test_prng_invalid_args () =
  let g = Prng.create ~seed:1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0));
  Alcotest.check_raises "int_in" (Invalid_argument "Prng.int_in: hi < lo")
    (fun () -> ignore (Prng.int_in g ~lo:3 ~hi:2))

(* --- Stats ------------------------------------------------------------ *)

let test_stats_mean () =
  checkf "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "empty mean" 0.0 (Stats.mean [||])

let test_stats_variance () =
  checkf "variance" (5.0 /. 3.0) (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "single" 0.0 (Stats.variance [| 42.0 |])

let test_stats_geomean () =
  checkf "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.geomean: all samples must be positive") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_stats_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  checkf "p0" 1.0 (Stats.percentile xs 0.0);
  checkf "p100" 4.0 (Stats.percentile xs 100.0);
  checkf "median" 2.5 (Stats.median xs)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  check Alcotest.int "n" 3 s.Stats.n;
  checkf "mean" 2.0 s.Stats.mean;
  checkf "min" 1.0 s.Stats.min;
  checkf "max" 3.0 s.Stats.max

let test_stats_speedup () =
  checkf "speedup" 2.0 (Stats.speedup ~baseline:4.0 2.0);
  Alcotest.check_raises "zero time"
    (Invalid_argument "Stats.speedup: non-positive time") (fun () ->
      ignore (Stats.speedup ~baseline:1.0 0.0))

(* --- Mask ------------------------------------------------------------- *)

let test_mask_group_partition () =
  List.iter
    (fun ws ->
      List.iter
        (fun gs ->
          if ws mod gs = 0 then begin
            let groups = ws / gs in
            let union = ref Mask.empty in
            for g = 0 to groups - 1 do
              let m = Mask.group ~warp_size:ws ~group_size:gs ~group_index:g in
              check Alcotest.int "group size" gs (Mask.popcount m);
              Alcotest.(check bool) "disjoint" true (Mask.disjoint !union m);
              union := Mask.union !union m
            done;
            check Alcotest.int "covers warp" (Mask.full ~warp_size:ws) !union
          end)
        [ 1; 2; 4; 8; 16; 32; 64 ])
    [ 8; 16; 32; 64 ]

let test_mask_lowest () =
  check Alcotest.int "lowest of group 1 size 8" 8
    (Mask.lowest (Mask.group ~warp_size:32 ~group_size:8 ~group_index:1));
  Alcotest.check_raises "empty" (Invalid_argument "Mask.lowest: empty mask")
    (fun () -> ignore (Mask.lowest Mask.empty))

let test_mask_iter_vs_list () =
  let m = Mask.group ~warp_size:64 ~group_size:16 ~group_index:3 in
  check
    Alcotest.(list int)
    "to_list"
    [ 48; 49; 50; 51; 52; 53; 54; 55; 56; 57; 58; 59; 60; 61; 62; 63 ]
    (Mask.to_list m);
  check Alcotest.int "popcount" 16 (Mask.popcount m);
  Alcotest.(check bool) "mem hi lane" true (Mask.mem m 63);
  Alcotest.(check bool) "not mem" false (Mask.mem m 47)

let test_mask_subset () =
  let small = Mask.group ~warp_size:32 ~group_size:4 ~group_index:0 in
  let big = Mask.group ~warp_size:32 ~group_size:16 ~group_index:0 in
  Alcotest.(check bool) "subset" true (Mask.subset small ~of_:big);
  Alcotest.(check bool) "not subset" false (Mask.subset big ~of_:small)

let test_mask_union_contiguity () =
  let g i = Mask.group ~warp_size:32 ~group_size:8 ~group_index:i in
  check Alcotest.int "adjacent groups fuse" 16 (Mask.popcount (Mask.union (g 0) (g 1)));
  check Alcotest.int "overlap folds" 8 (Mask.popcount (Mask.union (g 2) (g 2)));
  Alcotest.check_raises "gap rejected"
    (Invalid_argument "Mask.union: result not contiguous") (fun () ->
      ignore (Mask.union (g 0) (g 2)))

let test_mask_invalid () =
  Alcotest.check_raises "bad size"
    (Invalid_argument "Mask.group: group_size must divide the warp") (fun () ->
      ignore (Mask.group ~warp_size:32 ~group_size:3 ~group_index:0));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Mask.group: group_index out of range") (fun () ->
      ignore (Mask.group ~warp_size:32 ~group_size:8 ~group_index:4));
  Alcotest.check_raises "bad warp"
    (Invalid_argument "Mask.full: warp size out of range") (fun () ->
      ignore (Mask.full ~warp_size:65))

(* --- Table ------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("x", Table.Right) ] in
  Table.add_row t [ "alpha"; "1.00" ];
  Table.add_separator t;
  Table.add_row t [ "b"; "12.50" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains alpha" true
    (Astring_like.contains s "alpha");
  Alcotest.(check bool) "right aligned" true (Astring_like.contains s " 1.00 |")

let test_table_bad_row () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  check Alcotest.string "float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  check Alcotest.string "int" "42" (Table.cell_int 42)

(* --- qcheck properties ------------------------------------------------ *)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"prng.int always in bounds" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let g = Prng.create ~seed in
        let v = Prng.int g bound in
        v >= 0 && v < bound);
    Test.make ~name:"mask.group masks partition the warp" ~count:200
      (pair (int_range 0 6) (int_range 3 6))
      (fun (k, w) ->
        let ws = 1 lsl w in
        let gs = 1 lsl min k w in
        let acc = ref 0 in
        for g = 0 to (ws / gs) - 1 do
          acc :=
            !acc
            + Mask.popcount
                (Mask.group ~warp_size:ws ~group_size:gs ~group_index:g)
        done;
        !acc = ws);
    Test.make ~name:"stats.percentile is monotone" ~count:200
      (pair (list_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
         (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
      (fun (xs, (p1, p2)) ->
        let a = Array.of_list xs in
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Stats.percentile a lo <= Stats.percentile a hi +. 1e-9);
    (* the float sort and percentile_sorted against the boxed
       [Array.sort compare] and the interpolation Stats.percentile always
       had, on inputs full of duplicates and negatives *)
    Test.make ~name:"stats.sort_floats and percentile_sorted match the boxed sort"
      ~count:300
      (pair
         (list_of_size
            Gen.(int_range 1 60)
            (oneof [ float_range (-50.) 50.; map float_of_int (int_range (-3) 3) ]))
         (float_range 0.0 100.0))
      (fun (xs, p) ->
        let a = Array.of_list xs in
        let boxed = Array.copy a in
        Array.sort compare boxed;
        let fast = Array.copy a in
        Stats.sort_floats fast;
        let n = Array.length boxed in
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
        let reference =
          if lo = hi then boxed.(lo)
          else
            let w = rank -. float_of_int lo in
            (boxed.(lo) *. (1.0 -. w)) +. (boxed.(hi) *. w)
        in
        fast = boxed
        && Stats.percentile_sorted fast p = reference
        && Stats.percentile a p = reference);
    Test.make ~name:"prng.shuffle preserves multiset" ~count:200
      (pair small_int (list small_int))
      (fun (seed, xs) ->
        let g = Prng.create ~seed in
        let a = Array.of_list xs in
        Prng.shuffle g a;
        List.sort compare (Array.to_list a) = List.sort compare xs);
  ]

let suite =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int_in bounds" `Quick test_prng_int_in_bounds;
        Alcotest.test_case "uniform range" `Quick test_prng_uniform_range;
        Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
        Alcotest.test_case "normal moments" `Quick test_prng_normal_moments;
        Alcotest.test_case "geometric" `Quick test_prng_geometric;
        Alcotest.test_case "zipf range" `Quick test_prng_zipf_range;
        Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        Alcotest.test_case "invalid args" `Quick test_prng_invalid_args;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "variance" `Quick test_stats_variance;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "speedup" `Quick test_stats_speedup;
      ] );
    ( "util.mask",
      [
        Alcotest.test_case "group partition" `Quick test_mask_group_partition;
        Alcotest.test_case "lowest" `Quick test_mask_lowest;
        Alcotest.test_case "iter/to_list" `Quick test_mask_iter_vs_list;
        Alcotest.test_case "subset" `Quick test_mask_subset;
        Alcotest.test_case "union contiguity" `Quick test_mask_union_contiguity;
        Alcotest.test_case "invalid" `Quick test_mask_invalid;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "bad row" `Quick test_table_bad_row;
        Alcotest.test_case "cells" `Quick test_table_cells;
      ] );
    ("util.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
