type report = {
  cfg : Config.t;
  grid : int;
  block : int;
  time_cycles : float;
  breakdown : Occupancy.breakdown;
  counters : Counters.t;
  block_costs : Occupancy.block_cost array;
  sanitizer : Ompsan.report option;
  failures : Fault.failure list;
  faults : Fault.stats;
  parks : int;
}

(* A failed block contributes nothing to the epilogue: no L2 commit, no
   counters, a zero cost entry.  Its failure record is the report. *)
type sim_result =
  | B_ok of
      Occupancy.block_cost
      * Engine.block_result
      * Memory.block_session
      * Ompsan.block_report option
      * Fault.events
  | B_failed of Fault.failure * Fault.events

(* One launch's settings, read off its pool once: the per-block
   brackets below and the epilogue take everything from here. *)
type 'a ctx = {
  pool : Pool.t option;
  launch : Thread.launch;  (* stamped on every warp *)
  plan : Fault.plan option;
  nonce : int;  (* the launch's fault nonce; 0 when disarmed *)
  capture : bool;  (* hung blocks become failures instead of raising *)
  frames : Engine.frames;  (* the launch's recycled engine frames *)
  states : 'a Ompsimd_util.Freelist.t;  (* and its recycled [init] states *)
  buffers : Memory.buffers;  (* and its recycled L2-view storage *)
}

(* One block's simulation, bracketed in a memory session so its L2
   traffic is order-independent (see Memory).  Runs on whichever domain
   the pool hands the index to; everything it touches is block-local.
   The sanitizer's shadow state shares the bracket; on the exception
   path its findings are stashed on the pool (a divergent kernel
   deadlocks before the epilogue runs).

   Failure capture: an injected fatal fault (Fault.Fatal) always yields
   a failed block.  A deadlock — injected stall or genuine divergence —
   yields one only when capture is armed (fault plan set, or a watchdog
   budget); otherwise it re-raises, preserving the historical
   Engine.Deadlock contract for unarmed callers. *)
let simulate_block ~cfg ?trace ~ctx ~block ~init ?reinit ~body block_id =
  let ws = cfg.Config.warp_size in
  Memory.session_begin ctx.buffers;
  if ctx.launch.Thread.sanitize then
    Ompsan.block_begin ~block_id ~num_threads:block ~warp_size:ws;
  Option.iter
    (fun p ->
      Fault.block_begin p ~nonce:ctx.nonce ~block_id ~num_threads:block
        ~warp_size:ws)
    ctx.plan;
  let abort () =
    let ev = Fault.block_end () in
    (match (Ompsan.block_abort (), ctx.pool) with
    | [], _ | _, None -> ()
    | fs, Some p -> Pool.stash_aborted p fs);
    ignore (Memory.session_end ());
    ev
  in
  match
    let arena = Shared.arena cfg in
    (* a state goes back on the launch's list only after its block
       completed (below): a failed block's state is dropped *)
    let state =
      match (reinit, Ompsimd_util.Freelist.take ctx.states) with
      | Some reinit, Some state ->
          reinit state ~block_id arena;
          state
      | _ -> init ~block_id arena
    in
    let result =
      Engine.run_block ~cfg ?trace ~launch:ctx.launch ~frames:ctx.frames
        ~block_id ~num_threads:block (fun th -> body state th)
    in
    if Option.is_some reinit then Ompsimd_util.Freelist.give ctx.states state;
    (* A software-barrier device pays shared-memory residency for its
       per-block flag arrays on top of whatever the kernel allocated. *)
    (Occupancy.of_result result
       ~smem_bytes:
         (Shared.high_water arena
         + Config.sw_barrier_smem_bytes cfg ~threads:block),
     result)
  with
  | exception Fault.Fatal f -> B_failed (f, abort ())
  | exception Engine.Deadlock _ when ctx.capture ->
      let stall = Engine.take_stall () in
      let ev = abort () in
      let f =
        match ev.Fault.ev_stall with
        | Some f -> f  (* the injected stall that caused this deadlock *)
        | None ->
            (* genuine divergence, reported by the watchdog *)
            let barrier, cycle =
              match stall with
              | None -> ("", 0.0)
              | Some si ->
                  ( String.concat "+"
                      (List.map
                         (fun (s : Engine.stuck) ->
                           Printf.sprintf "%s(%d/%d)" s.Engine.stuck_name
                             s.Engine.stuck_waiting s.Engine.stuck_expected)
                         si.Engine.stall_stuck),
                    si.Engine.stall_cycle )
            in
            {
              Fault.f_kind = Fault.Barrier_stall;
              f_block = block_id;
              f_warp = -1;
              f_tid = -1;
              f_barrier = barrier;
              f_cycle = cycle;
            }
      in
      B_failed (f, ev)
  | exception e ->
      ignore (abort () : Fault.events);
      raise e
  | cost, result ->
      let san = Ompsan.block_end () in
      let ev = Fault.block_end () in
      B_ok (cost, result, Memory.session_end (), san, ev)

let launch ~cfg ?pool ?trace ?nonce ?(kernel = "<kernel>") ~grid ~block ~init
    ?reinit ~body () =
  if grid <= 0 then invalid_arg "Device.launch: grid must be positive";
  if block <= 0 then invalid_arg "Device.launch: block must be positive";
  if block > cfg.Config.max_threads_per_block then
    invalid_arg "Device.launch: block exceeds device limit";
  (* Tracing forces the sequential path: Trace.t is one shared mutable
     log.  Only a multi-domain block phase needs the host RMW lock. *)
  let parallel =
    match pool with
    | Some p -> Option.is_none trace && Pool.size p > 0
    | None -> false
  in
  let sanitize, plan, watchdog, nonce =
    match pool with
    | None -> (false, None, 0.0, 0)
    | Some p ->
        let plan = Pool.faults p in
        (* a pinned nonce leaves the pool's counter untouched *)
        let nonce =
          match (plan, nonce) with
          | None, _ -> 0
          | Some _, Some n -> n
          | Some _, None -> Pool.next_nonce p
        in
        (Pool.sanitize p, plan, Pool.watchdog p, nonce)
  in
  let launch =
    { Thread.sanitize; inject = Option.is_some plan; rmw_lock = parallel }
  in
  (* a traced launch's threads log to its own trace: its frames are its
     own, and die with it *)
  let carry = if Option.is_none trace then pool else None in
  let frames =
    match Option.bind carry (Pool.take_frames ~cfg ~block ~launch) with
    | Some f -> f
    | None -> Engine.frames ()
  in
  let buffers =
    match Option.bind carry Pool.take_buffers with
    | Some b -> b
    | None -> Memory.buffers ()
  in
  let ctx =
    {
      pool;
      launch;
      plan;
      nonce;
      capture = Option.is_some plan || watchdog > 0.0;
      frames;
      states = Ompsimd_util.Freelist.create ();
      buffers;
    }
  in
  let simulate = simulate_block ~cfg ?trace ~ctx ~block ~init ?reinit ~body in
  let results =
    match pool with
    | Some p when parallel -> Pool.parallel_init p grid simulate
    | _ -> Array.init grid simulate
  in
  (* Deterministic epilogue, in ascending block_id order regardless of
     which domain simulated what: commit the per-block L2 logs, then
     merge counters (float sums are order-sensitive, so the order is part
     of the determinism contract).  Failed blocks commit and merge
     nothing — an aborted block's partial traffic must not perturb the
     survivors' timing. *)
  Array.iter
    (function
      | B_ok (_, _, session, _, _) -> Memory.session_commit session
      | B_failed _ -> ())
    results;
  let merged = Counters.create () in
  let parks = ref 0 in
  Array.iter
    (function
      | B_ok (_, r, _, _, _) ->
          Counters.merge_into ~dst:merged r.Engine.counters;
          parks := !parks + r.Engine.parks
      | B_failed _ -> ())
    results;
  let zero_cost =
    {
      Occupancy.critical = 0.0;
      busy = 0.0;
      dram_bytes = 0.0;
      lsu_transactions = 0.0;
      active_lanes = 0;
      threads = block;
      smem_bytes = 0;
    }
  in
  let block_costs =
    Array.map
      (function B_ok (cost, _, _, _, _) -> cost | B_failed _ -> zero_cost)
      results
  in
  (* Sanitizer composition follows the same determinism recipe as the
     counters: per-block findings in ascending block_id, then the
     cross-block pass over per-cell summaries. *)
  let sanitizer =
    if not sanitize then None
    else
      Some
        (Ompsan.launch_report ~kernel
           (Array.map
              (function B_ok (_, _, _, san, _) -> san | B_failed _ -> None)
              results))
  in
  (* Failures and fault statistics, in ascending block order.  The
     watchdog check runs here: a block whose critical path exceeds the
     budget completed, but is reported hung. *)
  let rev_failures = ref [] in
  let stats = ref Fault.zero_stats in
  Array.iteri
    (fun b result ->
      match result with
      | B_failed (f, ev) ->
          rev_failures := f :: !rev_failures;
          stats :=
            Fault.add_stats !stats
              {
                Fault.zero_stats with
                Fault.corrected = ev.Fault.ev_corrected;
                exhausts = ev.Fault.ev_exhausts;
                fatal =
                  (match f.Fault.f_kind with
                  | Fault.Block_abort | Fault.Ecc_fatal -> 1
                  | _ -> 0);
                stalls =
                  (match f.Fault.f_kind with Fault.Barrier_stall -> 1 | _ -> 0);
              }
      | B_ok (cost, _, _, _, ev) ->
          stats :=
            Fault.add_stats !stats
              {
                Fault.zero_stats with
                Fault.corrected = ev.Fault.ev_corrected;
                exhausts = ev.Fault.ev_exhausts;
              };
          if watchdog > 0.0 && cost.Occupancy.critical > watchdog then begin
            rev_failures :=
              {
                Fault.f_kind = Fault.Watchdog;
                f_block = b;
                f_warp = -1;
                f_tid = -1;
                f_barrier = "";
                f_cycle = cost.Occupancy.critical;
              }
              :: !rev_failures;
            stats :=
              Fault.add_stats !stats { Fault.zero_stats with Fault.watchdogs = 1 }
          end)
    results;
  let failures = List.rev !rev_failures in
  let breakdown = Occupancy.kernel_time cfg block_costs in
  Option.iter
    (fun p ->
      Pool.give_buffers p buffers;
      Pool.give_frames p ~cfg ~block ~launch frames)
    carry;
  {
    cfg;
    grid;
    block;
    time_cycles = breakdown.Occupancy.time;
    breakdown;
    counters = merged;
    block_costs;
    sanitizer;
    failures;
    faults = !stats;
    parks = !parks;
  }

let pp_report ppf r =
  let b = r.breakdown in
  Format.fprintf ppf
    "@[<v>kernel on %s: grid=%d block=%d time=%.0f cycles@ bounds: \
     compute=%.0f memory=%.0f lsu=%.0f latency=%.0f resident=%d waves=%d@ %a"
    r.cfg.Config.name r.grid r.block r.time_cycles b.Occupancy.compute_bound
    b.Occupancy.memory_bound b.Occupancy.lsu_bound b.Occupancy.latency_bound
    b.Occupancy.resident_blocks b.Occupancy.num_waves Counters.pp r.counters;
  (* only when the runtime used the sharing space: kernels that never
     acquire keep their report text unchanged *)
  let grants = Counters.get_extra r.counters "sharing.shared_grants" in
  let fallbacks = Counters.get_extra r.counters "sharing.global_fallbacks" in
  let reuses = Counters.get_extra r.counters "sharing.pool_reuses" in
  if grants <> 0.0 || fallbacks <> 0.0 then
    Format.fprintf ppf
      "@ sharing: shared_grants=%.0f global_fallbacks=%.0f pool_reuses=%.0f"
      grants fallbacks reuses;
  (match r.sanitizer with
  | None -> ()
  | Some san when Ompsan.is_clean san ->
      Format.fprintf ppf "@ sanitizer: clean"
  | Some san ->
      List.iter
        (fun line -> Format.fprintf ppf "@ sanitizer: %s" line)
        (Ompsan.report_strings san));
  (* only with something to say: an unarmed launch's report text stays
     byte-identical to a build without the fault layer *)
  if r.failures <> [] || r.faults <> Fault.zero_stats then begin
    Format.fprintf ppf
      "@ faults: corrected=%d fatal=%d stalls=%d exhausts=%d watchdogs=%d"
      r.faults.Fault.corrected r.faults.Fault.fatal r.faults.Fault.stalls
      r.faults.Fault.exhausts r.faults.Fault.watchdogs;
    List.iter
      (fun f ->
        Format.fprintf ppf "@ failure: %s" (Fault.failure_to_string f))
      r.failures
  end;
  Format.fprintf ppf "@]"
