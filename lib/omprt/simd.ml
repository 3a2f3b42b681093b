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

(* A reducing loop's body folds each iteration's value into the
   executing lane's [lane_acc] cell under the loop's monoid, kept beside
   it: the cell is a float-array slot and [fold] inlines into the body,
   so the value is never boxed. *)
let[@inline] fold ctx v =
  let team = ctx.Team.team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  let acc = team.Team.lane_acc in
  let op = team.Team.lane_op.(tid) in
  acc.(tid) <-
    (if op == Redop.sum then acc.(tid) +. v else op.Redop.combine acc.(tid) v)

(* --- the worker machine (§3.1, §5.3, Figs 6 and 8) -------------------

   Both levels' idle workers and every multi-lane simd loop run one
   machine.  A thread's position is its [Team.phase] and its state its
   per-tid slots of [Team.steps]; [advance] runs its code up to the next
   rendezvous and arrives there through [Engine.arrive]: a completing
   arrival keeps running, a failed one returns [false].  A thread holds
   a fiber only while it runs region or kernel code.

   - A generic-teams worker (§3.1) lives as steps: it idles at the team
     barrier, reads the team main's signal, fetches and unpacks the
     payload, runs its part of the region and makes the region's closing
     arrival.  An SPMD lane or a SIMD main starts a fiber for the
     region's code ([Running]); a SIMD worker goes on into the hand-off.
   - A SIMD worker (Fig 6) waits at the hand-off, fetches the published
     loop and arguments, runs the loop and goes back to the hand-off; the
     null function sends it to the region's closing arrival.  A
     teams-SPMD worker enters from its fiber, which parks at its first
     hand-off that does not complete and resumes past the closing
     arrival — or returns at once when no kernel code follows.
   - A driving lane — a SIMD main, or any lane of an SPMD group —
     enters at the loop's entry on its own fiber, parks at a failed
     arrival and steps on when resumed, until the loop's exit ([Done]).

   The loop itself (Fig 8) meets the group at its entry, runs the
   lockstep rounds, and meets the group at its exit — a reducing loop
   first combines the lanes' values through the group reduction's two
   rendezvous.  What differs by role stays outside: a main publishes
   the loop and later releases its sharing slice, a worker fetches it,
   and the call is charged as a direct call for a driving lane and as
   the §5.5 dispatch for a worker. *)

(* Iteration [iv] of lane [tid]'s current loop, in the lane's own
   context: a reducing body folds into the lane's [lane_acc] cell. *)
let run_iteration (team : Team.t) tid iv =
  team.Team.sm.Team.fns.(tid) team.Team.ctxs.(tid) iv

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

(* --- a thread's part in a region (Fig 3) --- *)

let leave_region (team : Team.t) th ~saved ~prev =
  Gpusim.Thread.set_simt_factor th saved;
  team.Team.in_region.(th.Gpusim.Thread.tid) <- false;
  if Gpusim.Thread.sanitizing th then ignore (Gpusim.Ompsan.set_actor th prev)

(* The calling lane's group's slot. *)
let group_slot ctx g =
  Team.slot ctx.Team.team
    ~group:(Simd_group.get_simd_group g ~tid:ctx.Team.th.Gpusim.Thread.tid)

(* The SIMD main ends a generic region: it publishes a null function
   pointer and releases its workers (Fig 3). *)
let signal_termination ctx =
  Gpusim.Thread.trace ctx.Team.th ~tag:"simd.terminate" "";
  let slot = group_slot ctx (Team.geometry ctx.Team.team) in
  slot.Team.simd_loop <- None;
  slot.Team.simd_fn_id <- -1;
  Team.sync_warp ctx

(* The region's code on the calling thread's fiber, under hand-inlined
   bookkeeping: this is the region-dispatch hot path, where a wrapper
   taking a thunk would allocate a closure per call; the restore runs
   on both exits.  An SPMD lane runs the code redundantly, on behalf of
   its group's one OpenMP thread: its accesses are attributed to the
   group leader, so the sanitizer sees one logical lane.  A SIMD main
   acts alone for its group — any enclosing SPMD attribution is undone
   (distinct leaders stay distinct actors), and one active lane per
   [group_size] still costs a full warp's issue slots — and terminates
   its workers' state machine at the end. *)
let run_region ctx (task : Team.parallel_task) =
  let team = ctx.Team.team in
  let th = ctx.Team.th in
  let tid = th.Gpusim.Thread.tid in
  let main = Mode.equal task.Team.task_mode Mode.Generic in
  if main then Gpusim.Thread.trace th ~tag:"parallel.leader" "";
  let prev =
    if not (Gpusim.Thread.sanitizing th) then tid
    else if main then Gpusim.Ompsan.set_actor th tid
    else
      let g = Team.geometry team in
      Gpusim.Ompsan.set_actor th
        (Simd_group.leader_tid g ~group:(Simd_group.get_simd_group g ~tid))
  in
  team.Team.in_region.(tid) <- true;
  let saved = Gpusim.Thread.simt_factor th in
  if main then
    Gpusim.Thread.set_simt_factor th (float_of_int task.Team.group_size);
  match
    Team.charge_microtask ctx ~fn_id:task.Team.fn_id;
    task.Team.fn ctx
  with
  | () ->
      leave_region team th ~saved ~prev;
      if main then signal_termination ctx
  | exception e ->
      leave_region team th ~saved ~prev;
      raise e

(* Whether [tid] takes part in [task] as a SIMD worker, from the state
   machine, rather than by running the region's code. *)
let simd_worker (team : Team.t) (task : Team.parallel_task) tid =
  Mode.equal task.Team.task_mode Mode.Generic
  && not (Simd_group.is_simd_group_leader (Team.geometry team) ~tid)

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

(* A SIMD worker enters the state machine at the hand-off. *)
let enter_worker (sm : Team.steps) th tid =
  sm.Team.phase.(tid) <- Team.Handoff;
  sm.Team.home.(tid) <- Team.Handoff;
  sm.Team.outer.(tid) <- enter_state_machine th

(* [advance] returns [false] once the thread parked, and [true] once it
   is done here: a driving lane past the loop's exit, a teams-SPMD
   worker past the region's closing arrival, a generic-teams worker at
   the kernel's end. *)
let rec advance (team : Team.t) ctx tid =
  let sm = team.Team.sm in
  match sm.Team.phase.(tid) with
  | Team.Idle -> await team ctx tid Team.Signalled (Team.team_arrive ctx)
  | Team.Signalled -> signalled team ctx tid
  | Team.Running -> run_task team ctx tid
  | Team.Closing ->
      let next =
        match team.Team.params.Team.teams_mode with
        | Mode.Generic -> Team.Idle
        | Mode.Spmd -> Team.Done
      in
      await team ctx tid next (Team.team_arrive ctx)
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
        Reduction.simd_reduce_combine ctx team.Team.lane_op.(tid);
      await team ctx tid Team.Reduced (Team.sync_warp_arrive ctx)
  | Team.Reduced -> await team ctx tid sm.Team.home.(tid) (Team.sync_warp_arrive ctx)
  | Team.Done -> true

and await team ctx tid next arrived =
  team.Team.sm.Team.phase.(tid) <- next;
  arrived && advance team ctx tid

(* A generic-teams worker released from the team barrier reads the
   team main's signal: a region to fetch and run, or the kernel's end.
   A SIMD worker steps on into the state machine; any other thread runs
   the region's code on a fiber it starts here. *)
and signalled team ctx tid =
  match team.Team.parallel_signal with
  | None -> true
  | Some task ->
      bump ctx "target.state_machine_wakeups";
      Sharing.fetch ~sharers:team.Team.num_workers team.Team.sharing
        ctx.Team.th task.Team.payload_location task.Team.payload;
      Payload.unpack ctx.Team.th task.Team.payload;
      let sm = team.Team.sm in
      if simd_worker team task tid then begin
        enter_worker sm ctx.Team.th tid;
        advance team ctx tid
      end
      else begin
        sm.Team.phase.(tid) <- Team.Running;
        Gpusim.Engine.start_fiber ctx.Team.th sm.Team.step;
        false
      end

(* On the fiber [signalled] started: the region's code, then the thread
   is steps again, owing the region's closing arrival. *)
and run_task team ctx tid =
  run_region ctx (Option.get team.Team.parallel_signal);
  ctx.Team.th.Gpusim.Thread.step <- team.Team.sm.Team.step;
  team.Team.sm.Team.phase.(tid) <- Team.Closing;
  advance team ctx tid

(* A worker released from the hand-off reads its group's slot: the
   published loop, or termination — the worker leaves the state machine
   for the region's closing arrival.  A published loop's body, shape and
   monoid become the worker's own (the accumulator starts at the
   monoid's identity; only a reducing body folds into it), and the
   worker resolves the published pointer: the §5.5 dispatch. *)
and wake team ctx tid =
  let sm = team.Team.sm in
  let group = Simd_group.get_simd_group (Team.geometry team) ~tid in
  let slot = team.Team.simd_slots.(group) in
  match slot.Team.simd_loop with
  | None ->
      leave_state_machine ctx.Team.th sm.Team.outer.(tid);
      sm.Team.phase.(tid) <- Team.Closing;
      advance team ctx tid
  | Some kind ->
      bump ctx "simd.state_machine_rounds";
      (* a reducing loop's wake has never been traced *)
      if kind = Team.Simd_loop && Gpusim.Thread.tracing ctx.Team.th then
        Gpusim.Thread.trace ctx.Team.th ~tag:"simd.wake"
          (Printf.sprintf "fn=%d trip=%d" slot.Team.simd_fn_id
             slot.Team.simd_trip);
      fetch_args ctx slot;
      let op = slot.Team.simd_red_op in
      sm.Team.kind.(tid) <- kind;
      sm.Team.fns.(tid) <- slot.Team.simd_fn;
      team.Team.lane_op.(tid) <- op;
      team.Team.lane_acc.(tid) <- op.Redop.identity;
      begin_loop sm ctx.Team.th tid;
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

(* The team's step state, sized when the team first needs it, with the
   workers' step closure: it reads its tid's slots at call time.
   Returns the thread's slots with its context stored. *)
let steps (team : Team.t) ctx =
  let sm = team.Team.sm in
  if Array.length sm.Team.phase = 0 then begin
    Team.init_steps team;
    sm.Team.step <-
      (fun th ->
        let tid = th.Gpusim.Thread.tid in
        advance team team.Team.ctxs.(tid) tid)
  end;
  Team.set_lane_ctx team ctx;
  sm

(* A driving lane's loop, its body already in its slots: enter, then
   park at each failed arrival and step on when resumed, until the
   loop's exit releases the lane. *)
let rec drive_on team ctx tid =
  Gpusim.Engine.park ctx.Team.th;
  if not (advance team ctx tid) then drive_on team ctx tid

let drive ctx (sm : Team.steps) ~kind ~trip =
  let team = ctx.Team.team in
  let th = ctx.Team.th in
  let tid = th.Gpusim.Thread.tid in
  sm.Team.kind.(tid) <- kind;
  sm.Team.home.(tid) <- Team.Done;
  begin_loop sm th tid;
  charge_static ctx;
  if not (enter_loop team ctx tid ~trip) then drive_on team ctx tid

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

(* A loop shape as the slot publishes it; [Some kind] would allocate at
   every generic loop's entry. *)
let published = function
  | Team.Simd_loop -> Some Team.Simd_loop
  | Team.Reduce -> Some Team.Reduce

(* Fig 4: a singleton group runs the loop in-thread (§5.4); an SPMD
   group's lanes all reach [simd] with the trip count and payload
   already local and drop straight into the loop; a generic group's main
   publishes the loop, its shape and its monoid [op] to its workers
   first.  A reducing loop's caller has set its [lane_acc] cell and
   monoid. *)
let run ctx ~kind ~op ~payload ~fn_id ~trip body =
  let team = ctx.Team.team in
  let g = Team.geometry team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  if Simd_group.get_simd_group_size g = 1 then begin
    bump ctx "simd.sequential";
    charge_static ctx;
    Workshare.sequential_loop ctx ~trip (body ctx)
  end
  else begin
    let sm = steps team ctx in
    sm.Team.fns.(tid) <- body;
    match active_mode ctx with
    | Mode.Spmd ->
        (* a reducing loop has never counted as an SPMD simd region,
           and the count is a reported metric *)
        if kind = Team.Simd_loop && Simd_group.is_simd_group_leader g ~tid then
          bump ctx "simd.spmd_regions";
        drive ctx sm ~kind ~trip
    | Mode.Generic ->
        let slot = group_slot ctx g in
        slot.Team.simd_loop <- published kind;
        slot.Team.simd_fn <- body;
        slot.Team.simd_red_op <- op;
        let location = publish ctx slot ~fn_id ~trip payload in
        drive ctx sm ~kind ~trip;
        Sharing.release team.Team.sharing location
  end

let simd ctx ?(payload = Payload.empty) ?(fn_id = -1) ~trip body =
  run ctx ~kind:Team.Simd_loop ~op:Redop.sum ~payload ~fn_id ~trip body

let simd_reduce ctx ?(payload = Payload.empty) ?(fn_id = -1) ~op ~trip body =
  let team = ctx.Team.team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  team.Team.lane_op.(tid) <- op;
  team.Team.lane_acc.(tid) <- op.Redop.identity;
  run ctx ~kind:Team.Reduce ~op ~payload ~fn_id ~trip body;
  team.Team.lane_acc.(tid)

let simd_sum ctx ?payload ?fn_id ~trip body =
  simd_reduce ctx ?payload ?fn_id ~op:Redop.sum ~trip body

(* The calling fiber's thread goes on as steps from [phase]: its
   fiber's code returns next, the thread owing its next arrival, or
   finished when the machine ran to its end without parking. *)
let live_on_steps ctx (sm : Team.steps) phase =
  let th = ctx.Team.th in
  let tid = th.Gpusim.Thread.tid in
  sm.Team.phase.(tid) <- phase;
  th.Gpusim.Thread.step <- sm.Team.step;
  if advance ctx.Team.team ctx tid then
    th.Gpusim.Thread.step <- Gpusim.Thread.fiber

let worker ctx = live_on_steps ctx (steps ctx.Team.team ctx) Team.Idle

let region ctx (task : Team.parallel_task) ~last =
  let team = ctx.Team.team in
  let th = ctx.Team.th in
  let tid = th.Gpusim.Thread.tid in
  if simd_worker team task tid then begin
    let sm = steps team ctx in
    enter_worker sm th tid;
    if last then live_on_steps ctx sm Team.Handoff
    else if not (advance team ctx tid) then
      Gpusim.Engine.suspend_stepped th sm.Team.step
  end
  else begin
    run_region ctx task;
    if last then Team.team_barrier_last ctx else Team.team_barrier_wait ctx
  end
