(* tools/alloc_sites.exe — where the simulator's launches allocate.

     dune exec tools/alloc_sites.exe

   A byte-weighted sampler of minor-heap allocation by call site, for
   the E6 launch set (the atomic and the reduction spmv, generic simd at
   every group size), the Fig 9 launch set (spmv, su3 and the ideal
   kernel, two-level and three-level) and a compiled-kernel set: a
   fixed cold serve trace through [Serve.Fleet.run], whose every member
   launch runs a compiled IR kernel on the staged evaluator
   ([Ompir.Compile]).  The sampler is one dead young
   block with a [Gc.finalise_last] finaliser: the minor collection that
   finds the block dead runs the finaliser at the allocation that
   filled the minor heap, the finaliser records its call stack and arms
   a fresh block.  Each sample is weighted by the minor words
   allocated since the previous one: about [minor_words] when the
   minor heap filled up, fewer when the collection came early (a major
   slice asked for it), so the weights sum to the exact allocation.
   One bias: a collection triggered inside a C primitive or the effect
   runtime (Array.sub, a fiber's start or park) runs the finaliser at
   the next allocation or poll point in OCaml code, which is charged
   for it; a poll point's own frame may carry no location, so the
   caller's line is shown.  Every site is printed, heaviest first.

   Each launch set runs once unsampled (so whatever a launch carries
   over to the next is built outside the sample), then [repeats] times
   sampled, on a sequential pool; each set also prints its fiber parks
   per pass ([Device.report.parks]; for the serve set, the fleet's
   [Metrics.parks], summed over its real member launches).  The
   program reads no environment: with the minor heap fixed and every
   launch on one domain, one binary prints the same table on every
   run.  A site is the innermost frame
   in the repository's libraries, with its caller. *)

module Pool = Gpusim.Pool
module Harness = Workloads.Harness
module Spmv = Workloads.Spmv
module Su3 = Workloads.Su3
module Ideal = Workloads.Ideal
module Fleet = Serve.Fleet
module Request = Serve.Request
module Scheduler = Serve.Scheduler

let minor_words = 32768
let repeats = 3
let group_sizes = [ 2; 4; 8; 16; 32 ]

(* --- the sampler ------------------------------------------------------- *)

(* site -> samples, minor words *)
let sites : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 64
let armed = ref false
let samples = ref 0
let words = ref 0.0
let last = ref 0.0

(* Frames of the sampler itself, the stdlib and the runtime's helpers
   say nothing about which layer allocated. *)
let own_frame file =
  let base = Filename.basename file in
  base = "alloc_sites.ml"
  || String.starts_with ~prefix:"stdlib" base
  || String.starts_with ~prefix:"camlinternal" base
  || List.mem base [ "gc.ml"; "printexc.ml"; "array.ml"; "list.ml"; "hashtbl.ml";
                     "option.ml"; "fun.ml"; "effect.ml"; "atomic.ml" ]

let frame_label slot =
  match Printexc.Slot.location slot with
  | None -> None
  | Some loc ->
      let name = Option.value ~default:"?" (Printexc.Slot.name slot) in
      Some (loc.Printexc.filename, Printf.sprintf "%s (%s:%d)" name
              (Filename.basename loc.Printexc.filename) loc.Printexc.line_number)

let site_of stack =
  match Printexc.backtrace_slots stack with
  | None -> "<no backtrace: build with -g>"
  | Some slots ->
      let labels = List.filter_map frame_label (Array.to_list slots) in
      let rec first = function
        | [] -> "<outside the libraries>"
        | (file, label) :: rest when not (own_frame file) -> (
            match List.find_opt (fun (f, _) -> not (own_frame f)) rest with
            | Some (_, caller) -> label ^ " <- " ^ caller
            | None -> label)
        | _ :: rest -> first rest
      in
      first labels

let record stack =
  let now = Gc.minor_words () in
  let w = now -. !last in
  last := now;
  incr samples;
  words := !words +. w;
  let site = site_of stack in
  match Hashtbl.find_opt sites site with
  | Some (n, ws) ->
      incr n;
      ws := !ws +. w
  | None -> Hashtbl.add sites site (ref 1, ref w)

let rec arm () =
  Gc.finalise_last
    (fun () ->
      if !armed then begin
        record (Printexc.get_callstack 24);
        arm ()
      end)
    (ref 0)

let sampled f =
  Hashtbl.reset sites;
  samples := 0;
  words := 0.0;
  last := Gc.minor_words ();
  armed := true;
  arm ();
  f ();
  armed := false;
  (* let the last armed block's finaliser run, disarmed *)
  Gc.minor ()

let print_table ~title ~launches =
  let rows =
    Hashtbl.fold (fun site (n, w) acc -> (site, !n, !w) :: acc) sites []
    |> List.sort (fun (sa, _, a) (sb, _, b) ->
           if a <> b then compare b a else compare sa sb)
  in
  let mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6 in
  Printf.printf
    "%s: %d samples, %.2f MB per call over %d calls\n  words%%  samples  site\n"
    title !samples
    (mb !words /. float_of_int launches)
    launches;
  List.iter
    (fun (site, n, w) ->
      Printf.printf "  %5.1f%%  %6d  %s\n"
        (100.0 *. w /. Float.max 1.0 !words)
        n site)
    rows;
  print_newline ()

(* --- the launch sets --------------------------------------------------- *)

let cfg = Gpusim.Config.small

(* fiber parks of the launches since the last reset *)
let parks = ref 0

let discard l () =
  let r : Harness.run = l () in
  parks := !parks + r.Harness.report.Gpusim.Device.parks

(* E6 at the ledger's sim_reduce geometry, smaller: every group size,
   atomic and reduction, on a cold L2. *)
let e6 pool =
  let rows = 1024 in
  let t = Spmv.generate { Spmv.default_shape with Spmv.rows; cols = rows; seed = 1 } in
  let launches =
    List.concat_map
      (fun g ->
        let mode3 = Harness.generic_simd ~group_size:g in
        [
          (fun () -> Spmv.run_simd ~cfg ~pool ~num_teams:128 ~threads:128 ~mode3 t);
          (fun () -> Spmv.run_simd_reduction ~cfg ~pool ~num_teams:128 ~threads:128 ~mode3 t);
        ])
      group_sizes
  in
  ("E6 (spmv atomic + reduction, generic simd g2-g32)", List.map discard launches)

(* Fig 9's three kernels, two-level and at every group size. *)
let fig9 pool =
  let teams = 4 * cfg.Gpusim.Config.num_sms in
  let lanes = teams * 128 in
  let rows = 2 * teams * 8 in
  let spmv = Spmv.generate { Spmv.default_shape with Spmv.rows; cols = rows; seed = 1 } in
  let su3 = Su3.generate { Su3.sites = lanes / 4; seed = 2 } in
  let ideal = Ideal.generate { Ideal.default_shape with Ideal.rows = lanes / 40; seed = 3 } in
  let launches =
    [
      (fun () -> Spmv.run_two_level ~cfg ~pool ~num_teams:rows ~threads:32 spmv);
      (fun () -> Su3.run_two_level ~cfg ~pool ~num_teams:teams ~threads:128 su3);
      (fun () ->
        Ideal.run ~cfg ~pool ~num_teams:teams ~threads:128
          ~mode3:(Harness.spmd_simd ~group_size:1) ideal);
    ]
    @ List.concat_map
        (fun g ->
          [
            (fun () ->
              Spmv.run_simd ~cfg ~pool ~num_teams:(2 * teams) ~threads:128
                ~mode3:(Harness.generic_simd ~group_size:g) spmv);
            (fun () ->
              Su3.run ~cfg ~pool ~num_teams:teams ~threads:128
                ~mode3:(Harness.spmd_simd ~group_size:g) su3);
            (fun () ->
              Ideal.run ~cfg ~pool ~num_teams:teams ~threads:128
                ~mode3:(Harness.generic_simd ~group_size:g) ideal);
          ])
        group_sizes
  in
  ("Fig 9 (spmv, su3, ideal: two-level and simd g2-g32)", List.map discard launches)

(* A cold serve trace: 160 requests over 48 chain depths and 38 other
   (template, size) shapes on a heterogeneous four-device fleet, every
   request with its own data seed, so the launch memo never hits and
   every member launch compiles or fetches an IR kernel and simulates
   it on the staged evaluator. *)
let serve_cold pool =
  let n = 160 in
  let chain = List.init 48 (fun k -> ("chain", 8 + (4 * k))) in
  let sizes k = List.init k (fun j -> 16 + (8 * j)) in
  let others =
    List.concat_map
      (fun (t, k) -> List.map (fun s -> (t, s)) (sizes k))
      [ ("rowsum", 10); ("saxpy", 10); ("stencil", 10); ("hist", 8) ]
  in
  let pick shapes count =
    let a = Array.of_list shapes in
    List.init count (fun i -> a.(i mod Array.length a))
  in
  let n_chain = n * 2 / 5 in
  let shapes = Array.of_list (pick chain n_chain @ pick others (n - n_chain)) in
  Ompsimd_util.Prng.shuffle (Ompsimd_util.Prng.create ~seed:0xc01d) shapes;
  let specs =
    Array.to_list
      (Array.mapi
         (fun id (kernel, size) ->
           {
             Request.default_spec with
             Request.id;
             at = float_of_int id *. 8000.0;
             kernel;
             size;
             teams = 2;
             threads = 64;
             simdlen = 8;
             seed = 1_000_003 + id;
           })
         shapes)
  in
  let conf =
    {
      Fleet.base =
        {
          Scheduler.cfg;
          queue_bound = 16;
          servers = 2;
          cache_capacity = 128;
          max_retries = 2;
          backoff = 500.0;
          breaker = 4;
          slo = None;
          window = 20_000.0;
          knobs = Openmp.Offload.default_knobs;
        };
      shards = 4;
      batch = 8;
      steal = true;
      memo = true;
      tenants = [];
      devices = Fleet.parse_devices "w32-hw,w64-hw,w16-sw,w32-l2tiny";
      affinity = true;
      telemetry = false;
      shed = true;
      autoscale = Serve.Autoscale.disabled;
      decay = 0;
    }
  in
  ( Printf.sprintf "serve cold (%d requests, 4-device fleet, compiled IR kernels)" n,
    [
      (fun () ->
        let res = Fleet.run conf ~pool specs in
        parks := !parks + res.Fleet.metrics.Serve.Metrics.parks);
    ] )

let run_set (title, launches) =
  let run_all () = List.iter (fun l -> l ()) launches in
  parks := 0;
  run_all ();
  let set_parks = !parks in
  Gc.full_major ();
  sampled (fun () ->
      for _ = 1 to repeats do
        run_all ()
      done);
  print_table ~title ~launches:(repeats * List.length launches);
  Printf.printf "  fiber parks per pass over the set: %d\n\n" set_parks

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_words };
  let pool = Pool.create ~domains:0 () in
  run_set (e6 pool);
  run_set (fig9 pool);
  run_set (serve_cold pool)
