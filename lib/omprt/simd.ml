let bump ctx key =
  Gpusim.Counters.bump ctx.Team.th.Gpusim.Thread.counters key 1.0

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

(* The sequential reducing loop's body: set the lane's [lane_acc] cell
   to the monoid's identity and fold iteration [iv]'s value into that
   cell.  The cell is a float-array slot, so the running value stays
   unboxed. *)
let accumulate ctx ~op red payload =
  let acc = ctx.Team.team.Team.lane_acc in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  acc.(tid) <- op.Redop.identity;
  if op == Redop.sum then fun iv -> acc.(tid) <- acc.(tid) +. red ctx iv payload
  else fun iv -> acc.(tid) <- op.Redop.combine acc.(tid) (red ctx iv payload)

(* --- the simd-loop machine (§5.3, Figs 6 and 8) ----------------------

   Every multi-lane simd loop runs through one machine, whatever the
   lane's role.  A lane's position is its [Team.phase], named by the
   rendezvous it was last released from, and its loop lives in its
   per-tid slots of [Team.steps]; [advance] runs the lane's code up to
   its next rendezvous and arrives there through [Engine.arrive]: a
   completing arrival keeps running, a failed one returns [false].

   - A SIMD worker in a generic region (the stepped state machine, Fig
     6) waits at the hand-off, fetches the published function and
     arguments, runs the loop, and goes back to the hand-off.  Its
     fiber parks once, at its first hand-off that does not complete;
     in between, the engine calls [advance] as the worker's step
     exactly where it would have resumed the fiber.
   - A driving lane — a SIMD main, or any lane of an SPMD group —
     enters at the loop's entry with its body already local, runs the
     same phases on its own fiber, parks at a failed arrival and steps
     on when resumed, until the loop's exit releases it ([Done]).

   The loop itself (Fig 8) meets the group at its entry, runs the
   lockstep rounds, and meets the group at its exit — a reducing loop
   first combines the lanes' values through the group reduction's two
   rendezvous.  What differs by role stays outside: a main publishes
   the loop and later releases its sharing slice, a worker fetches it,
   and the call is charged as a direct call for a driving lane and as
   the §5.5 dispatch for a worker. *)

(* Iteration [iv] of lane [tid]'s current loop: the body, or the fold
   of the reducer's value into the lane's [lane_acc] cell. *)
let run_iteration (team : Team.t) tid iv =
  let sm = team.Team.sm in
  let ctx = team.Team.ctxs.(tid) in
  match sm.Team.kind.(tid) with
  | Team.Simd_loop -> sm.Team.fns.(tid) ctx iv sm.Team.args.(tid)
  | Team.Reduce ->
      let v = sm.Team.reds.(tid) ctx iv sm.Team.args.(tid) in
      let op = sm.Team.ops.(tid) in
      let acc = team.Team.lane_acc in
      acc.(tid) <-
        (if op == Redop.sum then acc.(tid) +. v else op.Redop.combine acc.(tid) v)

let lane_th (team : Team.t) tid = team.Team.ctxs.(tid).Team.th
let rounds ~num ~trip = (trip + num - 1) / num

(* Lane [l]'s share of lockstep round [r]: every lane steps through
   ceil(trip/num) rounds, masked off when its iteration number falls
   beyond the trip count — this is both how SIMT hardware executes the
   loop and what makes idle-lane waste (trip not divisible by the group
   size) visible.  In a remainder round the masked-off lanes still
   occupy their issue slots, so the active lanes carry the whole
   group's width (S6.5).  The factor save/restore is hand-inlined: a
   [with_simt_factor] thunk would allocate a closure per round. *)
let lane_round team th ~tid ~l ~num ~trip ~overhead r =
  Gpusim.Thread.tick th overhead;
  let iv = (r * num) + l in
  if iv < trip then begin
    let active = min num (trip - (r * num)) in
    if active = num then run_iteration team tid iv
    else begin
      let saved = Gpusim.Thread.simt_factor th in
      Gpusim.Thread.set_simt_factor th
        (saved *. (float_of_int num /. float_of_int active));
      run_iteration team tid iv;
      Gpusim.Thread.set_simt_factor th saved
    end
  end

(* --- fused rounds ---

   The classic rounds park every lane on a zero-cost alignment barrier
   after every round; with bodies of a few memory accesses the
   continuation traffic dominates the host time of the simd-heavy
   experiments.  A fused loop keeps the entry rendezvous — whose
   completing arriver the engine resumes *before* any released waiter —
   and turns the rounds into direct calls: the first lane through the
   entry drives all lanes' iterations round-major in ascending lane
   order, replicating the per-lane tick/SIMT-factor/sanitizer sequence
   the classic rounds perform and aligning the group's clocks at each
   round boundary exactly as the zero-cost barrier release did.  The
   lanes it drove wake to find the group's sequence number advanced and
   skip straight to the loop exit.

   Per-lane virtual-clock math is execution-order independent (each
   lane's own charges plus a commutative max-align per round), so fusing
   only changes which deterministic interleaving the order-sensitive
   models (coalescing window, L2 sessions) observe: the canonical
   ascending-lane round is the SIMT instruction the lockstep rounds
   model, where the classic order was an artifact of fiber scheduling.
   The warp's atomic epoch advances once per lane per round exactly as
   the per-lane barrier arrivals did, so atomic-contention accounting is
   unchanged by fusing. *)

(* Whether a simd loop entered now runs fused: not while a dynamic
   schedule is in flight (its chunk assignment is defined by the
   round-level interleaving of the classic rounds), nor under fault
   injection (stall faults park their victims at the per-round
   barriers, which fused rounds never reach). *)
let fusing ctx =
  ctx.Team.team.Team.dyn_active = 0
  && not (Gpusim.Thread.injecting ctx.Team.th)

(* A group whose lanes disagree on the trip count cannot be driven — and
   must not be: under classic execution divergent trips deadlock at the
   lockstep barriers with sanitizer findings attached, which is exactly
   the surface tests and users rely on. *)
let uniform_trip (sm : Team.steps) ~base ~num ~trip =
  let ok = ref true in
  for l = 0 to num - 1 do
    if sm.Team.trip.(base + l) <> trip then ok := false
  done;
  !ok

(* One round boundary: the group's clocks align to the round maximum
   (the lockstep barrier's cost is 0.0, so alignment is the entire
   release). *)
let align_round team ~base ~num =
  let tmax = ref (Gpusim.Thread.clock (lane_th team base)) in
  for l = 1 to num - 1 do
    let c = Gpusim.Thread.clock (lane_th team (base + l)) in
    if c > !tmax then tmax := c
  done;
  for l = 0 to num - 1 do
    Gpusim.Thread.align_clock (lane_th team (base + l)) !tmax
  done

(* Sanitizer taps of a driven loop: per-tid attribution while the
   driver executes other lanes' iterations (the classic rounds'
   [set_actor] on entry), a lockstep rendezvous per lane per round, and
   the actors restored on exit. *)
let san_set_actors (team : Team.t) ~base ~num =
  for l = 0 to num - 1 do
    team.Team.sm.Team.actor.(base + l) <-
      Gpusim.Ompsan.set_actor (lane_th team (base + l)) (base + l)
  done

let san_restore_actors (team : Team.t) ~base ~num =
  for l = 0 to num - 1 do
    ignore
      (Gpusim.Ompsan.set_actor (lane_th team (base + l))
         team.Team.sm.Team.actor.(base + l))
  done

let san_round team g ~base ~num =
  let mask = Simd_group.simdmask g ~tid:base in
  let bar = Team.lockstep_barrier team (lane_th team base) ~mask in
  for l = 0 to num - 1 do
    Team.san_warp_arrive (lane_th team (base + l)) ~mask bar
  done

let drive_rounds ctx g ~base ~num ~trip =
  let team = ctx.Team.team in
  let overhead = Workshare.step_cost ctx in
  let san = Gpusim.Thread.sanitizing ctx.Team.th in
  if san then san_set_actors team ~base ~num;
  for r = 0 to rounds ~num ~trip - 1 do
    for l = 0 to num - 1 do
      let th = lane_th team (base + l) in
      lane_round team th ~tid:(base + l) ~l ~num ~trip ~overhead r;
      (* the lane's classic barrier arrival bumped the warp's atomic
         epoch right after its body; keep that wipe structure *)
      let w = th.Gpusim.Thread.warp in
      w.Gpusim.Thread.atomic_gen <- w.Gpusim.Thread.atomic_gen + 1
    done;
    if san then san_round team g ~base ~num;
    align_round team ~base ~num
  done;
  if san then san_restore_actors team ~base ~num;
  for l = 0 to num - 1 do
    Gpusim.Thread.tick (lane_th team (base + l)) overhead
  done

(* After the entry rendezvous: if no lane drove the group yet and the
   trip counts agree, drive every lane's rounds.  [true] when no lane
   drove — the trip counts diverge — and this lane must run its own
   classic rounds, so the divergence surfaces (deadlock, with sanitizer
   findings) exactly as under classic execution. *)
let fused_fallback ctx g ~tid ~trip ~my_seq =
  let team = ctx.Team.team in
  let group = Simd_group.get_simd_group g ~tid in
  let num = Simd_group.get_simd_group_size g in
  let base = Simd_group.leader_tid g ~group in
  if
    team.Team.fused_seq.(group) = my_seq
    && uniform_trip team.Team.sm ~base ~num ~trip
  then begin
    team.Team.fused_seq.(group) <- my_seq + 1;
    drive_rounds ctx g ~base ~num ~trip
  end;
  team.Team.fused_seq.(group) = my_seq

(* --- the phases --- *)

(* Inside the loop the whole SIMD group executes in lockstep, so the
   surrounding region's divergence factor does not apply to the body:
   set it aside until the loop's exit.  The caller charges the call
   next, under the loop's factor. *)
let begin_loop (sm : Team.steps) th tid =
  sm.Team.simt.(tid) <- Gpusim.Thread.simt_factor th;
  Gpusim.Thread.set_simt_factor th 1.0

let fetch_args ctx (slot : Team.simd_slot) =
  let team = ctx.Team.team in
  let sharers = Simd_group.get_simd_group_size (Team.geometry team) - 1 in
  Sharing.fetch ~sharers team.Team.sharing ctx.Team.th
    slot.Team.simd_args_location slot.Team.simd_args;
  Payload.unpack ctx.Team.th slot.Team.simd_args

(* [advance] returns [true] once the lane is done: a driving lane
   released from the loop's exit, or a worker at termination (resume
   its fiber); [false] once it parked. *)
let rec advance (team : Team.t) ctx tid =
  let sm = team.Team.sm in
  match sm.Team.phase.(tid) with
  | Team.Handoff -> await team ctx tid Team.Woken (Team.sync_warp_arrive ctx)
  | Team.Woken -> wake team ctx tid
  | Team.Entered ->
      if
        fused_fallback ctx (Team.geometry team) ~tid ~trip:sm.Team.trip.(tid)
          ~my_seq:sm.Team.seq.(tid)
      then start_classic team ctx tid
      else finish_loop team ctx tid
  | Team.Classic -> start_classic team ctx tid
  | Team.Round -> classic_round team ctx tid
  | Team.Posted ->
      team.Team.lane_acc.(tid) <-
        Reduction.simd_reduce_combine ctx sm.Team.ops.(tid);
      await team ctx tid Team.Reduced (Team.sync_warp_arrive ctx)
  | Team.Reduced -> await team ctx tid sm.Team.home.(tid) (Team.sync_warp_arrive ctx)
  | Team.Done -> true

and await team ctx tid next arrived =
  team.Team.sm.Team.phase.(tid) <- next;
  arrived && advance team ctx tid

(* A worker released from the hand-off reads its group's slot: the
   published loop, or termination. *)
and wake team ctx tid =
  let sm = team.Team.sm in
  let group = Simd_group.get_simd_group (Team.geometry team) ~tid in
  let slot = team.Team.simd_slots.(group) in
  match slot.Team.simd_loop with
  | None -> true (* termination: end of the parallel region *)
  | Some Team.Simd_loop ->
      bump ctx "simd.state_machine_rounds";
      if Gpusim.Thread.tracing ctx.Team.th then
        Gpusim.Thread.trace ctx.Team.th ~tag:"simd.wake"
          (Printf.sprintf "fn=%d trip=%d" slot.Team.simd_fn_id
             slot.Team.simd_trip);
      fetch_args ctx slot;
      sm.Team.kind.(tid) <- Team.Simd_loop;
      sm.Team.fns.(tid) <- slot.Team.simd_fn;
      sm.Team.args.(tid) <- slot.Team.simd_args;
      enter_published team ctx tid slot
  | Some Team.Reduce ->
      bump ctx "simd.state_machine_rounds";
      fetch_args ctx slot;
      let op = slot.Team.simd_red_op in
      sm.Team.kind.(tid) <- Team.Reduce;
      sm.Team.reds.(tid) <- slot.Team.simd_red_fn;
      sm.Team.ops.(tid) <- op;
      sm.Team.args.(tid) <- slot.Team.simd_args;
      team.Team.lane_acc.(tid) <- op.Redop.identity;
      enter_published team ctx tid slot

(* workers resolve a published pointer: the §5.5 dispatch *)
and enter_published team ctx tid (slot : Team.simd_slot) =
  begin_loop team.Team.sm ctx.Team.th tid;
  Team.charge_microtask ctx ~fn_id:slot.Team.simd_fn_id;
  enter_loop team ctx tid ~trip:slot.Team.simd_trip

(* the loop's entry: a fused loop reads the group's sequence number
   first, to tell after the rendezvous whether a lane drove it *)
and enter_loop team ctx tid ~trip =
  let sm = team.Team.sm in
  sm.Team.trip.(tid) <- trip;
  if fusing ctx then begin
    sm.Team.seq.(tid) <-
      team.Team.fused_seq.(Simd_group.get_simd_group (Team.geometry team) ~tid);
    await team ctx tid Team.Entered (Team.sync_warp_arrive ctx)
  end
  else await team ctx tid Team.Classic (Team.sync_warp_arrive ctx)

(* Simd-loop iterations belong to the executing lane itself, not to the
   SPMD region's logical thread: restore per-tid attribution so the
   sanitizer can see lanes of one group racing on a cell, until the
   rounds end. *)
and start_classic team ctx tid =
  let sm = team.Team.sm in
  let th = ctx.Team.th in
  sm.Team.actor.(tid) <-
    (if Gpusim.Thread.sanitizing th then Gpusim.Ompsan.set_actor th tid else tid);
  sm.Team.round.(tid) <- 0;
  classic_round team ctx tid

and classic_round team ctx tid =
  let sm = team.Team.sm in
  let g = Team.geometry team in
  let num = Simd_group.get_simd_group_size g in
  let trip = sm.Team.trip.(tid) in
  let r = sm.Team.round.(tid) in
  let th = ctx.Team.th in
  if r < rounds ~num ~trip then begin
    lane_round team th ~tid ~l:(Simd_group.get_simd_group_id g ~tid) ~num
      ~trip ~overhead:(Workshare.step_cost ctx) r;
    sm.Team.round.(tid) <- r + 1;
    await team ctx tid Team.Round (Team.lockstep_arrive ctx)
  end
  else begin
    if Gpusim.Thread.sanitizing th then
      ignore (Gpusim.Ompsan.set_actor th sm.Team.actor.(tid));
    Gpusim.Thread.tick th (Workshare.step_cost ctx);
    finish_loop team ctx tid
  end

(* the loop's exit: restore the factor, then meet the group at the exit
   rendezvous — after the group reduction for a reducing loop *)
and finish_loop team ctx tid =
  let sm = team.Team.sm in
  Gpusim.Thread.set_simt_factor ctx.Team.th sm.Team.simt.(tid);
  match sm.Team.kind.(tid) with
  | Team.Simd_loop -> await team ctx tid sm.Team.home.(tid) (Team.sync_warp_arrive ctx)
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

(* The team's step state, sized on its first multi-lane simd loop, with
   the workers' step closures: each reads its tid's slots at call time.
   [last_step] is [step] for a worker that detached from its fiber: at
   termination it leaves the state machine and makes the worker's last
   arrival, at the team barrier that closes the region.  Returns the
   lane's slots with its context stored. *)
let steps (team : Team.t) ctx =
  let sm = team.Team.sm in
  if Array.length sm.Team.phase = 0 then begin
    Team.init_steps team;
    sm.Team.step <-
      (fun th ->
        let tid = th.Gpusim.Thread.tid in
        advance team team.Team.ctxs.(tid) tid);
    sm.Team.last_step <-
      (fun th ->
        let tid = th.Gpusim.Thread.tid in
        let ctx = team.Team.ctxs.(tid) in
        if advance team ctx tid then begin
          leave_state_machine th sm.Team.outer.(tid);
          Team.team_barrier_last ctx
        end;
        false)
  end;
  Team.set_lane_ctx team ctx;
  sm

(* A driving lane's loop, its body already in its slots: enter, then
   park at each failed arrival and step on when resumed, until the
   loop's exit releases the lane. *)
let rec drive_on team ctx tid =
  Gpusim.Engine.park ctx.Team.th;
  if not (advance team ctx tid) then drive_on team ctx tid

let drive ctx (sm : Team.steps) ~kind ~trip payload =
  let team = ctx.Team.team in
  let th = ctx.Team.th in
  let tid = th.Gpusim.Thread.tid in
  sm.Team.kind.(tid) <- kind;
  sm.Team.args.(tid) <- payload;
  sm.Team.home.(tid) <- Team.Done;
  begin_loop sm th tid;
  charge_static ctx;
  if not (enter_loop team ctx tid ~trip) then drive_on team ctx tid

(* The calling lane's group's slot. *)
let group_slot ctx g =
  Team.slot ctx.Team.team
    ~group:(Simd_group.get_simd_group g ~tid:ctx.Team.th.Gpusim.Thread.tid)

(* Fig 4, generic path: the caller is the SIMD main.  [publish] puts the
   trip count and arguments in the group's slot (the caller has set the
   body) and the arguments in the sharing space, then releases the
   workers; the main joins the loop itself (its group id is 0).  Past
   the loop's exit the workers are past their fetch: the slice is dead
   and the next region in this group can recycle it. *)
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

(* Fig 4: an SPMD group's lanes all reach [simd] with the trip count
   and payload already local and drop straight into the loop; a generic
   group's main publishes the loop to its workers first. *)
let simd ctx ?(payload = Payload.empty) ?(fn_id = -1) ~trip body =
  let g = Team.geometry ctx.Team.team in
  if Simd_group.get_simd_group_size g = 1 then begin
    (* Two-level behaviour (§5.4): the loop runs sequentially in-thread. *)
    bump ctx "simd.sequential";
    charge_static ctx;
    Workshare.sequential_loop ctx ~trip (fun iv -> body ctx iv payload)
  end
  else begin
    let sm = steps ctx.Team.team ctx in
    sm.Team.fns.(ctx.Team.th.Gpusim.Thread.tid) <- body;
    match active_mode ctx with
    | Mode.Spmd ->
        if Simd_group.is_simd_group_leader g ~tid:ctx.Team.th.Gpusim.Thread.tid
        then bump ctx "simd.spmd_regions";
        drive ctx sm ~kind:Team.Simd_loop ~trip payload
    | Mode.Generic ->
        let slot = group_slot ctx g in
        slot.Team.simd_loop <- Some Team.Simd_loop;
        slot.Team.simd_fn <- body;
        let location = publish ctx slot ~fn_id ~trip payload in
        drive ctx sm ~kind:Team.Simd_loop ~trip payload;
        Sharing.release ctx.Team.team.Team.sharing location
  end

let simd_reduce ctx ?(payload = Payload.empty) ?(fn_id = -1) ~op ~trip red =
  let g = Team.geometry ctx.Team.team in
  let team = ctx.Team.team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  if Simd_group.get_simd_group_size g = 1 then begin
    bump ctx "simd.sequential";
    charge_static ctx;
    Workshare.sequential_loop ctx ~trip (accumulate ctx ~op red payload)
  end
  else begin
    let sm = steps team ctx in
    sm.Team.reds.(tid) <- red;
    sm.Team.ops.(tid) <- op;
    team.Team.lane_acc.(tid) <- op.Redop.identity;
    match active_mode ctx with
    | Mode.Spmd -> drive ctx sm ~kind:Team.Reduce ~trip payload
    | Mode.Generic ->
        let slot = group_slot ctx g in
        slot.Team.simd_loop <- Some Team.Reduce;
        slot.Team.simd_red_fn <- red;
        slot.Team.simd_red_op <- op;
        let location = publish ctx slot ~fn_id ~trip payload in
        drive ctx sm ~kind:Team.Reduce ~trip payload;
        Sharing.release team.Team.sharing location
  end;
  team.Team.lane_acc.(tid)

let simd_sum ctx ?payload ?fn_id ~trip red =
  simd_reduce ctx ?payload ?fn_id ~op:Redop.sum ~trip red

(* Enter the state machine and run the worker on its fiber until it
   parks ([false]) or reaches termination ([true], having left the
   state machine). *)
let start ctx =
  let team = ctx.Team.team in
  let th = ctx.Team.th in
  let tid = th.Gpusim.Thread.tid in
  let sm = steps team ctx in
  sm.Team.phase.(tid) <- Team.Handoff;
  sm.Team.home.(tid) <- Team.Handoff;
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
  let slot = group_slot ctx (Team.geometry ctx.Team.team) in
  slot.Team.simd_loop <- None;
  slot.Team.simd_fn_id <- -1;
  Team.sync_warp ctx
