(* The run's configuration, read once at the edge.

   LLVM's device runtime takes its configuration once, at image load,
   as a device-environment record; this module is the simulator's
   counterpart.  [parse] turns one lookup (the process environment, a
   test's assoc list, command-line overrides layered over either) into
   one typed record, and nothing else under lib/ reads the environment:
   the library takes every setting as an argument, and the few
   device-wide debug switches (sanitizer, fault plan, watchdog) are set
   once through [install]. *)

module Env = Ompsimd_util.Env
module Offload = Openmp.Offload
module Scheduler = Serve.Scheduler
module Fleet = Serve.Fleet

type t = {
  device : Gpusim.Config.t;
  domains : int;
  compile : Offload.knobs;
  sanitize : bool;
  faults : Gpusim.Fault.plan option;
  watchdog : float;
  fleet : Fleet.config;
  telemetry : string option;
}

let parse lookup =
  let var name = Env.trimmed (lookup name) in
  let int = Env.int ~lookup:var
  and float = Env.float ~lookup:var
  and flag = Env.flag ~lookup:var in
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  try
    let device =
      match var "OMPSIMD_DEVICE" with
      | None -> Gpusim.Config.a100_quarter
      | Some spec -> (
          match Gpusim.Zoo.resolve spec with
          | Ok cfg -> cfg
          | Error msg -> fail "OMPSIMD_DEVICE: %s" msg)
    in
    (* The simulation is compute-bound and allocation-heavy, so domains
       beyond the physical cores only add stop-the-world GC
       coordination: the policy caps any request at cores - 1 (the
       submitting domain simulates too).  [Pool.create] itself stays
       exact for callers that oversubscribe deliberately. *)
    let domains =
      let cap = max 0 (Domain.recommended_domain_count () - 1) in
      match var "OMPSIMD_DOMAINS" with
      | None -> cap
      | Some s -> (
          match int_of_string_opt s with
          | Some d when d >= 0 -> min d cap
          | Some _ | None ->
              fail "Pool: OMPSIMD_DOMAINS must be a non-negative integer, got %S" s)
    in
    let engine =
      match var "OMPSIMD_EVAL" with
      | Some "walk" -> Ompir.Compile.Walk
      | Some ("compile" | "staged") | None -> Ompir.Compile.Staged
      | Some other -> fail "OMPSIMD_EVAL=%s (expected \"compile\" or \"walk\")" other
    in
    let passes = Option.value (var "OMPSIMD_PASSES") ~default:"" in
    ignore (Ompir.Passes.pipeline_of_spec passes);
    let compile = { Offload.default_knobs with passes; engine } in
    (* opt-in: anything but an explicit yes leaves the sanitizer off *)
    let sanitize =
      match var "OMPSIMD_SANITIZE" with
      | Some ("1" | "on" | "true" | "yes") -> true
      | Some _ | None -> false
    in
    let seed = int "OMPSIMD_FAULT_SEED" ~default:0 in
    let faults = Option.map (Gpusim.Fault.parse_spec ~seed) (var "OMPSIMD_FAULTS") in
    let watchdog = float "OMPSIMD_WATCHDOG" ~default:0.0 in
    (* the SLO speaks milliseconds of virtual time (1 ms = 1000 ticks) —
       SLOs are operator-facing, ticks are not *)
    let slo =
      match var "OMPSIMD_SERVE_SLO_MS" with
      | None -> None
      | Some s -> (
          match float_of_string_opt s with
          | Some ms when ms > 0.0 -> Some (ms *. 1000.0)
          | _ -> fail "OMPSIMD_SERVE_SLO_MS must be a positive number, got %S" s)
    in
    let base =
      {
        Scheduler.cfg = device;
        queue_bound = int "OMPSIMD_SERVE_QUEUE" ~default:16;
        servers = int "OMPSIMD_SERVE_CONC" ~default:2;
        cache_capacity = int "OMPSIMD_SERVE_CACHE" ~default:32;
        max_retries = int "OMPSIMD_SERVE_RETRIES" ~default:2;
        backoff = float "OMPSIMD_SERVE_BACKOFF" ~default:500.0;
        breaker = int "OMPSIMD_SERVE_BREAKER" ~default:4;
        slo;
        window = float "OMPSIMD_SERVE_WINDOW" ~default:20_000.0;
        knobs = compile;
      }
    in
    let shards = int "OMPSIMD_SERVE_SHARDS" ~default:1 in
    let autoscale =
      let enabled = flag "OMPSIMD_SERVE_AUTOSCALE" ~default:true in
      let budget = int "OMPSIMD_SERVE_BUDGET" ~default:(2 * shards) in
      let cooldown = int "OMPSIMD_SERVE_COOLDOWN" ~default:2 in
      match slo with
      | None -> Serve.Autoscale.disabled
      | Some slo ->
          let max_extra = 3 * base.Scheduler.servers in
          { Serve.Autoscale.enabled; slo; budget; max_extra; down = 0.5; cooldown }
    in
    (* the value is the stream's destination path (the CLI writes it);
       its presence is what turns collection on *)
    let telemetry = var "OMPSIMD_SERVE_TELEMETRY" in
    let fleet =
      {
        Fleet.base;
        shards;
        batch = int "OMPSIMD_SERVE_BATCH" ~default:1;
        steal = flag "OMPSIMD_SERVE_STEAL" ~default:true;
        memo = true;
        tenants = Option.fold ~none:[] ~some:Fleet.parse_tenants (var "OMPSIMD_SERVE_TENANTS");
        devices = Option.fold ~none:[] ~some:Fleet.parse_devices (var "OMPSIMD_FLEET_DEVICES");
        affinity = flag "OMPSIMD_FLEET_AFFINITY" ~default:true;
        telemetry = telemetry <> None;
        shed = flag "OMPSIMD_SERVE_SHED" ~default:true;
        autoscale;
        decay = int "OMPSIMD_FLEET_DECAY" ~default:0;
      }
    in
    Ok { device; domains; compile; sanitize; faults; watchdog; fleet; telemetry }
  with Invalid_argument msg -> Error msg

(* Every variable [parse] reads: a dry run over an empty lookup, so the
   list cannot drift from the parser. *)
let names =
  let read = ref [] in
  ignore (parse (fun name -> read := name :: !read; None));
  List.rev !read

let of_env () = parse Env.var

let default =
  match parse (fun _ -> None) with Ok t -> t | Error msg -> failwith msg

let installed = ref default

let install t =
  installed := t;
  Gpusim.Ompsan.enabled := t.sanitize;
  Gpusim.Fault.install t.faults ~watchdog:t.watchdog

let with_installed t f =
  let saved = !installed in
  install t;
  Fun.protect ~finally:(fun () -> install saved) f
