let bump ctx key =
  Gpusim.Counters.bump ctx.Team.th.Gpusim.Thread.counters key 1.0

let my_group ctx =
  let g = Team.geometry ctx.Team.team in
  (g, Simd_group.get_simd_group g ~tid:ctx.Team.th.Gpusim.Thread.tid)

let active_mode ctx =
  match ctx.Team.team.Team.active_task with
  | Some task -> task.Team.task_mode
  | None -> failwith "Simd.simd: no active parallel region"

(* In SPMD mode (and for singleton groups) the outlined function is
   statically known at the call site, so the compiler emits a direct —
   typically inlined — call; the if-cascade/indirect dispatch of §5.5
   only exists on the dynamic paths, where a worker resolves a function
   pointer published by its SIMD main. *)
let charge_static ctx =
  let cost = ctx.Team.team.Team.cfg.Gpusim.Config.cost in
  Gpusim.Thread.tick ctx.Team.th cost.Gpusim.Config.branch;
  ctx.Team.th.Gpusim.Thread.counters.Gpusim.Counters.calls <-
    ctx.Team.th.Gpusim.Thread.counters.Gpusim.Counters.calls + 1

(* The loop driver hand-inlines [with_simt_factor] (inside the workshare
   loop the whole SIMD group executes in lockstep, so the surrounding
   region's divergence factor does not apply to the loop body) and
   charges the call cost directly, so entering a loop allocates no
   thunk. *)
let run_loop ctx ~trip f =
  let th = ctx.Team.th in
  let saved = Gpusim.Thread.simt_factor th in
  Gpusim.Thread.set_simt_factor th 1.0;
  charge_static ctx;
  Workshare.simd_loop ctx ~trip f;
  Gpusim.Thread.set_simt_factor th saved

(* Set the lane's [lane_acc] cell to the monoid's identity and return
   the reducing loop's body, which folds iteration [iv]'s value into
   that cell.  The cell is a float-array slot, so the running value
   stays unboxed. *)
let accumulate ctx ~op red payload =
  let acc = ctx.Team.team.Team.lane_acc in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  acc.(tid) <- op.Redop.identity;
  if op == Redop.sum then fun iv -> acc.(tid) <- acc.(tid) +. red ctx iv payload
  else fun iv -> acc.(tid) <- op.Redop.combine acc.(tid) (red ctx iv payload)

let lane_total ctx =
  ctx.Team.team.Team.lane_acc.(ctx.Team.th.Gpusim.Thread.tid)

(* Fig 4, generic path: the caller is the SIMD main.  [publish] puts the
   trip count and arguments in the group's slot (the caller has set the
   body) and the arguments in the sharing space, then releases the
   workers; the main joins the loop itself (its group id is 0).
   [retire] meets the workers past the loop, hence past their fetch: the
   slice is dead and the next region in this group can recycle it. *)
let publish ctx (slot : Team.simd_slot) ~fn_id ~trip payload =
  let sharing = ctx.Team.team.Team.sharing in
  bump ctx "simd.generic_regions";
  slot.Team.simd_fn_id <- fn_id;
  slot.Team.simd_trip <- trip;
  slot.Team.simd_args <- payload;
  Payload.pack ctx.Team.th payload;
  let location =
    Sharing.acquire sharing ctx.Team.th ~bytes:(Payload.bytes payload)
  in
  slot.Team.simd_args_location <- location;
  Sharing.publish sharing ctx.Team.th location payload;
  Team.sync_warp ctx;
  location

let retire ctx location =
  Team.sync_warp ctx;
  Sharing.release ctx.Team.team.Team.sharing location

let simd ctx ?(payload = Payload.empty) ?(fn_id = -1) ~trip body =
  let g, group = my_group ctx in
  if Simd_group.get_simd_group_size g = 1 then begin
    (* Two-level behaviour (§5.4): the loop runs sequentially in-thread. *)
    bump ctx "simd.sequential";
    charge_static ctx;
    Workshare.sequential_loop ctx ~trip (fun iv -> body ctx iv payload)
  end
  else
    match active_mode ctx with
    | Mode.Spmd ->
        (* Fig 4, SPMD path: trip count and payload are thread-local. *)
        if Simd_group.is_simd_group_leader g ~tid:ctx.Team.th.Gpusim.Thread.tid
        then bump ctx "simd.spmd_regions";
        run_loop ctx ~trip (fun iv -> body ctx iv payload);
        Team.sync_warp ctx
    | Mode.Generic ->
        let slot = Team.slot ctx.Team.team ~group in
        slot.Team.simd_fn <- Some body;
        slot.Team.simd_red_fn <- None;
        let location = publish ctx slot ~fn_id ~trip payload in
        run_loop ctx ~trip (fun iv -> body ctx iv payload);
        retire ctx location

let simd_reduce ctx ?(payload = Payload.empty) ?(fn_id = -1) ~op ~trip red =
  let g, group = my_group ctx in
  if Simd_group.get_simd_group_size g = 1 then begin
    bump ctx "simd.sequential";
    charge_static ctx;
    Workshare.sequential_loop ctx ~trip (accumulate ctx ~op red payload);
    lane_total ctx
  end
  else
    match active_mode ctx with
    | Mode.Spmd ->
        run_loop ctx ~trip (accumulate ctx ~op red payload);
        let total = Reduction.simd_reduce ctx op (lane_total ctx) in
        Team.sync_warp ctx;
        total
    | Mode.Generic ->
        let slot = Team.slot ctx.Team.team ~group in
        slot.Team.simd_fn <- None;
        slot.Team.simd_red_fn <- Some red;
        slot.Team.simd_red_op <- op;
        let location = publish ctx slot ~fn_id ~trip payload in
        run_loop ctx ~trip (accumulate ctx ~op red payload);
        let total = Reduction.simd_reduce ctx op (lane_total ctx) in
        retire ctx location;
        total

let simd_sum ctx ?payload ?fn_id ~trip red =
  simd_reduce ctx ?payload ?fn_id ~op:Redop.sum ~trip red

(* --- the stepped state machine (Fig 6) ------------------------------

   A worker's loop — wait at the hand-off, fetch the published function
   and arguments, run its share of the workshare loop, meet the group
   again, repeat — runs as engine steps, not on its fiber.  The fiber
   parks once, at its first hand-off that does not complete, and is
   resumed once, at termination; in between, whenever the engine's
   scheduler reaches the worker (exactly where it would have resumed the
   fiber) it calls [advance], which runs the same code the fiber would
   have run up to the next rendezvous and arrives there through
   [Engine.arrive]: a completing arrival keeps running, a parking one
   returns.  The worker's position is its [Team.phase], named by the
   rendezvous it was last released from ([Handoff] at entry and after
   the loop's exit rendezvous).

   Every round kind steps: fused rounds, the classic lockstep rounds of
   fault-injected runs and dynamic schedules (and of diverging trip
   counts), and the group reduction.  A reducing round runs the same
   loop as any other; only its per-tid body (a fold into [lane_acc])
   and its exit differ. *)

let fetch_args ctx (slot : Team.simd_slot) =
  let team = ctx.Team.team in
  let sharers = Simd_group.get_simd_group_size (Team.geometry team) - 1 in
  Sharing.fetch ~sharers team.Team.sharing ctx.Team.th
    slot.Team.simd_args_location slot.Team.simd_args;
  Payload.unpack ctx.Team.th slot.Team.simd_args

(* The worker's body for the current round: its share of the published
   simd loop, or its fold of the published reducer into [lane_acc]. *)
let loop_body (sm : Team.steps) tid =
  match sm.Team.kind.(tid) with
  | Team.Simd_loop -> sm.Team.bodies.(tid)
  | Team.Reduce -> sm.Team.combs.(tid)

(* [advance] returns [true] at termination (resume the fiber), [false]
   once the worker parked. *)
let rec advance (team : Team.t) ctx tid =
  let sm = team.Team.sm in
  match sm.Team.phase.(tid) with
  | Team.Handoff -> await team ctx tid Team.Woken (Team.sync_warp_arrive ctx)
  | Team.Woken -> wake team ctx tid
  | Team.Entered ->
      let g = Team.geometry team in
      if
        Workshare.fused_fallback ctx g ~tid
          ~num:(Simd_group.get_simd_group_size g)
          ~trip:sm.Team.trip.(tid) ~my_seq:sm.Team.seq.(tid)
      then start_classic team ctx tid
      else finish_loop team ctx tid
  | Team.Classic -> start_classic team ctx tid
  | Team.Round -> classic_round team ctx tid
  | Team.Posted ->
      let (_ : float) = Reduction.simd_reduce_combine ctx sm.Team.ops.(tid) in
      await team ctx tid Team.Reduced (Team.sync_warp_arrive ctx)
  | Team.Reduced -> await team ctx tid Team.Handoff (Team.sync_warp_arrive ctx)

and await team ctx tid next arrived =
  team.Team.sm.Team.phase.(tid) <- next;
  arrived && advance team ctx tid

and wake team ctx tid =
  let sm = team.Team.sm in
  let group = Simd_group.get_simd_group (Team.geometry team) ~tid in
  let slot = team.Team.simd_slots.(group) in
  match (slot.Team.simd_fn, slot.Team.simd_red_fn) with
  | None, None -> true (* termination: end of the parallel region *)
  | Some fn, _ ->
      bump ctx "simd.state_machine_rounds";
      if Gpusim.Thread.tracing ctx.Team.th then
        Gpusim.Thread.trace ctx.Team.th ~tag:"simd.wake"
          (Printf.sprintf "fn=%d trip=%d" slot.Team.simd_fn_id
             slot.Team.simd_trip);
      fetch_args ctx slot;
      sm.Team.kind.(tid) <- Team.Simd_loop;
      sm.Team.fns.(tid) <- fn;
      sm.Team.args.(tid) <- slot.Team.simd_args;
      (* workers resolve a published pointer: the §5.5 dispatch *)
      enter_loop team ctx tid ~fn_id:slot.Team.simd_fn_id
        ~trip:slot.Team.simd_trip
  | None, Some red ->
      bump ctx "simd.state_machine_rounds";
      fetch_args ctx slot;
      let op = slot.Team.simd_red_op in
      sm.Team.kind.(tid) <- Team.Reduce;
      sm.Team.reds.(tid) <- red;
      sm.Team.ops.(tid) <- op;
      sm.Team.args.(tid) <- slot.Team.simd_args;
      team.Team.lane_acc.(tid) <- op.Redop.identity;
      enter_loop team ctx tid ~fn_id:slot.Team.simd_fn_id
        ~trip:slot.Team.simd_trip

(* [run_loop], charging the §5.5 dispatch a worker pays to resolve the
   published pointer, then the entry of [Workshare.simd_loop] for a
   group of two or more *)
and enter_loop team ctx tid ~fn_id ~trip =
  let sm = team.Team.sm in
  let th = ctx.Team.th in
  sm.Team.simt.(tid) <- Gpusim.Thread.simt_factor th;
  Gpusim.Thread.set_simt_factor th 1.0;
  Team.charge_microtask ctx ~fn_id;
  sm.Team.trip.(tid) <- trip;
  if Workshare.fusing ctx then begin
    sm.Team.seq.(tid) <-
      Workshare.fused_enter ctx (Team.geometry team) ~tid ~trip;
    team.Team.fused_fns.(tid) <- loop_body sm tid;
    await team ctx tid Team.Entered (Team.sync_warp_arrive ctx)
  end
  else await team ctx tid Team.Classic (Team.sync_warp_arrive ctx)

and start_classic team ctx tid =
  let sm = team.Team.sm in
  sm.Team.actor.(tid) <- Workshare.classic_begin ctx;
  sm.Team.round.(tid) <- 0;
  classic_round team ctx tid

and classic_round team ctx tid =
  let sm = team.Team.sm in
  let g = Team.geometry team in
  let num = Simd_group.get_simd_group_size g in
  let id = Simd_group.get_simd_group_id g ~tid in
  let trip = sm.Team.trip.(tid) in
  let r = sm.Team.round.(tid) in
  if r < Workshare.classic_rounds ~num ~trip then begin
    Workshare.classic_simd_round ctx ~id ~num ~trip r (loop_body sm tid);
    sm.Team.round.(tid) <- r + 1;
    await team ctx tid Team.Round (Team.lockstep_arrive ctx)
  end
  else begin
    Workshare.classic_end ctx sm.Team.actor.(tid);
    finish_loop team ctx tid
  end

(* the loop's exit: drop the deposited body, restore the factor, then
   meet the group at the exit rendezvous — after the group reduction
   for a reducing round *)
and finish_loop team ctx tid =
  let sm = team.Team.sm in
  team.Team.fused_fns.(tid) <- Workshare.drop_fn;
  Gpusim.Thread.set_simt_factor ctx.Team.th sm.Team.simt.(tid);
  match sm.Team.kind.(tid) with
  | Team.Simd_loop -> await team ctx tid Team.Handoff (Team.sync_warp_arrive ctx)
  | Team.Reduce ->
      Reduction.simd_reduce_post ctx team.Team.lane_acc.(tid);
      await team ctx tid Team.Posted (Team.sync_warp_arrive ctx)

(* The hand-off waits are the `__simd` state-machine rendezvous: they
   advance the sanitizer's epochs like any warp barrier, but the worker
   is exempted from the divergence check — its main legitimately
   crosses block-scope barriers while the worker idles here.  Workers
   only ever run simd-loop bodies — their own lane's work — so any
   enclosing SPMD attribution is undone, and restored when the worker
   leaves.  An exception aborts the whole block, so there is nothing to
   restore on that path. *)
let enter_state_machine (th : Gpusim.Thread.t) =
  if Gpusim.Thread.sanitizing th then begin
    Gpusim.Ompsan.enter_state_machine th;
    Gpusim.Ompsan.set_actor th th.Gpusim.Thread.tid
  end
  else th.Gpusim.Thread.tid

let leave_state_machine th prev_actor =
  if Gpusim.Thread.sanitizing th then begin
    ignore (Gpusim.Ompsan.set_actor th prev_actor);
    Gpusim.Ompsan.leave_state_machine th
  end

(* The team's step closures, built on its first generic region: each
   reads its tid's slots at call time.  [last_step] is [step] for a
   worker that detached from its fiber: at termination it leaves the
   state machine and makes the worker's last arrival, at the team
   barrier that closes the region. *)
let ensure_steps (team : Team.t) ctx =
  Team.init_steps team ctx;
  let sm = team.Team.sm in
  if Array.length sm.Team.bodies = 0 then begin
    let n = team.Team.num_workers in
    sm.Team.bodies <-
      Array.init n (fun tid iv ->
          sm.Team.fns.(tid) sm.Team.ctxs.(tid) iv sm.Team.args.(tid));
    let acc = team.Team.lane_acc in
    sm.Team.combs <-
      Array.init n (fun tid iv ->
          let v = sm.Team.reds.(tid) sm.Team.ctxs.(tid) iv sm.Team.args.(tid) in
          let op = sm.Team.ops.(tid) in
          acc.(tid) <-
            (if op == Redop.sum then acc.(tid) +. v
             else op.Redop.combine acc.(tid) v));
    sm.Team.step <-
      (fun th ->
        let tid = th.Gpusim.Thread.tid in
        advance team sm.Team.ctxs.(tid) tid);
    sm.Team.last_step <-
      (fun th ->
        let tid = th.Gpusim.Thread.tid in
        let ctx = sm.Team.ctxs.(tid) in
        if advance team ctx tid then begin
          leave_state_machine th sm.Team.outer.(tid);
          Team.team_barrier_last ctx
        end;
        false)
  end

(* Enter the state machine and run the worker on its fiber until it
   parks ([false]) or reaches termination ([true], having left the
   state machine). *)
let start ctx =
  let team = ctx.Team.team in
  let th = ctx.Team.th in
  let tid = th.Gpusim.Thread.tid in
  ensure_steps team ctx;
  let sm = team.Team.sm in
  sm.Team.ctxs.(tid) <- ctx;
  sm.Team.phase.(tid) <- Team.Handoff;
  sm.Team.outer.(tid) <- enter_state_machine th;
  advance team ctx tid && (leave_state_machine th sm.Team.outer.(tid); true)

let state_machine ctx =
  if not (start ctx) then begin
    let th = ctx.Team.th in
    let sm = ctx.Team.team.Team.sm in
    Gpusim.Engine.suspend_stepped th sm.Team.step;
    leave_state_machine th sm.Team.outer.(th.Gpusim.Thread.tid)
  end

let state_machine_last ctx =
  if start ctx then Team.team_barrier_last ctx
  else Gpusim.Engine.detach ctx.Team.th ctx.Team.team.Team.sm.Team.last_step

let signal_termination ctx =
  Gpusim.Thread.trace ctx.Team.th ~tag:"simd.terminate" "";
  let team = ctx.Team.team in
  let _, group = my_group ctx in
  let slot = Team.slot team ~group in
  slot.Team.simd_fn <- None;
  slot.Team.simd_red_fn <- None;
  slot.Team.simd_fn_id <- -1;
  Team.sync_warp ctx
