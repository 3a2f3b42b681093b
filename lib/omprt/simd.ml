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

let static_call ctx run =
  charge_static ctx;
  run ()

(* Both loop drivers hand-inline [with_simt_factor] (inside the workshare
   loop the whole SIMD group executes in lockstep, so the surrounding
   region's divergence factor does not apply to the loop body) and charge
   the call cost directly: the thunk chain the previous shape threaded
   through [invoke_microtask] allocated three closures per region call,
   and on the reduction path its captured accumulator boxed a float per
   loop element. *)
let run_loop ctx ~dispatch ~fn_id ~trip body payload =
  let th = ctx.Team.th in
  let saved = Gpusim.Thread.simt_factor th in
  Gpusim.Thread.set_simt_factor th 1.0;
  if dispatch then Team.charge_microtask ctx ~fn_id else charge_static ctx;
  Workshare.simd_loop ctx ~trip (fun iv -> body ctx iv payload);
  Gpusim.Thread.set_simt_factor th saved

let accumulate_loop ctx ~dispatch ~op ~fn_id ~trip red payload =
  let th = ctx.Team.th in
  let saved = Gpusim.Thread.simt_factor th in
  Gpusim.Thread.set_simt_factor th 1.0;
  if dispatch then Team.charge_microtask ctx ~fn_id else charge_static ctx;
  let acc =
    if op == Redop.sum then
      (* the common case: fold with a register accumulator *)
      Workshare.simd_fold_sum ctx ~trip (fun iv -> red ctx iv payload)
    else begin
      let acc = ref op.Redop.identity in
      Workshare.simd_loop ctx ~trip (fun iv ->
          acc := op.Redop.combine !acc (red ctx iv payload));
      !acc
    end
  in
  Gpusim.Thread.set_simt_factor th saved;
  acc

let simd ctx ?(payload = Payload.empty) ?(fn_id = -1) ~trip body =
  let team = ctx.Team.team in
  let g, group = my_group ctx in
  let gs = Simd_group.get_simd_group_size g in
  if gs = 1 then begin
    (* Two-level behaviour (§5.4): the loop runs sequentially in-thread. *)
    bump ctx "simd.sequential";
    ignore fn_id;
    static_call ctx (fun () ->
        Workshare.sequential_loop ctx ~trip (fun iv -> body ctx iv payload))
  end
  else
    match active_mode ctx with
    | Mode.Spmd ->
        (* Fig 4, SPMD path: trip count and payload are thread-local. *)
        if Simd_group.is_simd_group_leader g ~tid:ctx.Team.th.Gpusim.Thread.tid
        then bump ctx "simd.spmd_regions";
        run_loop ctx ~dispatch:false ~fn_id ~trip body payload;
        Team.sync_warp ctx
    | Mode.Generic ->
        (* Fig 4, generic path: the caller is the SIMD main. *)
        bump ctx "simd.generic_regions";
        let slot = Team.slot team ~group in
        slot.Team.simd_fn <- Some body;
        slot.Team.simd_red_fn <- None;
        slot.Team.simd_fn_id <- fn_id;
        slot.Team.simd_trip <- trip;
        slot.Team.simd_args <- payload;
        Payload.pack ctx.Team.th payload;
        let location =
          Sharing.acquire team.Team.sharing ctx.Team.th
            ~bytes:(Payload.bytes payload)
        in
        slot.Team.simd_args_location <- location;
        Sharing.publish team.Team.sharing ctx.Team.th location payload;
        Team.sync_warp ctx;
        (* the SIMD main participates in the loop: its group id is 0 *)
        run_loop ctx ~dispatch:false ~fn_id ~trip body payload;
        Team.sync_warp ctx;
        (* workers are past the loop, hence past their fetch: the slice
           is dead and the next region in this group can recycle it *)
        Sharing.release team.Team.sharing location

let simd_reduce ctx ?(payload = Payload.empty) ?(fn_id = -1) ~op ~trip red =
  let team = ctx.Team.team in
  let g, group = my_group ctx in
  let gs = Simd_group.get_simd_group_size g in
  if gs = 1 then begin
    bump ctx "simd.sequential";
    ignore fn_id;
    charge_static ctx;
    if op == Redop.sum then
      Workshare.sequential_fold_sum ctx ~trip (fun iv -> red ctx iv payload)
    else begin
      let acc = ref op.Redop.identity in
      Workshare.sequential_loop ctx ~trip (fun iv ->
          acc := op.Redop.combine !acc (red ctx iv payload));
      !acc
    end
  end
  else
    match active_mode ctx with
    | Mode.Spmd ->
        let acc = accumulate_loop ctx ~dispatch:false ~op ~fn_id ~trip red payload in
        let total = Reduction.simd_reduce ctx op acc in
        Team.sync_warp ctx;
        total
    | Mode.Generic ->
        bump ctx "simd.generic_regions";
        let slot = Team.slot team ~group in
        slot.Team.simd_fn <- None;
        slot.Team.simd_red_fn <- Some red;
        slot.Team.simd_red_op <- op;
        slot.Team.simd_fn_id <- fn_id;
        slot.Team.simd_trip <- trip;
        slot.Team.simd_args <- payload;
        Payload.pack ctx.Team.th payload;
        let location =
          Sharing.acquire team.Team.sharing ctx.Team.th
            ~bytes:(Payload.bytes payload)
        in
        slot.Team.simd_args_location <- location;
        Sharing.publish team.Team.sharing ctx.Team.th location payload;
        Team.sync_warp ctx;
        let acc = accumulate_loop ctx ~dispatch:false ~op ~fn_id ~trip red payload in
        let total = Reduction.simd_reduce ctx op acc in
        Team.sync_warp ctx;
        Sharing.release team.Team.sharing location;
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
   counts), sum folds, other monoids, and the group reduction. *)

let fetch_args ctx (slot : Team.simd_slot) =
  let team = ctx.Team.team in
  let sharers = Simd_group.get_simd_group_size (Team.geometry team) - 1 in
  Sharing.fetch ~sharers team.Team.sharing ctx.Team.th
    slot.Team.simd_args_location slot.Team.simd_args;
  Payload.unpack ctx.Team.th slot.Team.simd_args

(* [advance] returns [true] at termination (resume the fiber), [false]
   once the worker parked. *)
let rec advance (team : Team.t) ctx tid =
  let sm = team.Team.sm in
  match sm.Team.phase.(tid) with
  | Team.Handoff -> await team ctx tid Team.Woken (Team.sync_warp_arrive ctx)
  | Team.Woken -> wake team ctx tid
  | Team.Entered ->
      let g = Team.geometry team in
      let fold = sm.Team.kind.(tid) = Team.Sum_fold in
      if
        Workshare.fused_fallback ctx g ~tid
          ~num:(Simd_group.get_simd_group_size g)
          ~trip:sm.Team.trip.(tid) ~my_seq:sm.Team.seq.(tid) ~fold
      then start_classic team ctx tid
      else begin
        if fold then sm.Team.acc.(tid) <- team.Team.fused_acc.(tid);
        finish_loop team ctx tid
      end
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
      sm.Team.reds.(tid) <- red;
      sm.Team.ops.(tid) <- op;
      sm.Team.args.(tid) <- slot.Team.simd_args;
      if op == Redop.sum then sm.Team.kind.(tid) <- Team.Sum_fold
      else begin
        sm.Team.kind.(tid) <- Team.Combine;
        sm.Team.acc.(tid) <- op.Redop.identity
      end;
      enter_loop team ctx tid ~fn_id:slot.Team.simd_fn_id
        ~trip:slot.Team.simd_trip

(* [run_loop]/[accumulate_loop] with [~dispatch:true], then the entry of
   [Workshare.simd_loop]/[simd_fold_sum] for a group of two or more *)
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
    (match sm.Team.kind.(tid) with
    | Team.Sum_fold -> team.Team.fused_reds.(tid) <- sm.Team.folds.(tid)
    | Team.Simd_loop -> team.Team.fused_fns.(tid) <- sm.Team.bodies.(tid)
    | Team.Combine -> team.Team.fused_fns.(tid) <- sm.Team.combs.(tid));
    await team ctx tid Team.Entered (Team.sync_warp_arrive ctx)
  end
  else await team ctx tid Team.Classic (Team.sync_warp_arrive ctx)

and start_classic team ctx tid =
  let sm = team.Team.sm in
  sm.Team.actor.(tid) <- Workshare.classic_begin ctx;
  sm.Team.round.(tid) <- 0;
  if sm.Team.kind.(tid) = Team.Sum_fold then sm.Team.acc.(tid) <- 0.0;
  classic_round team ctx tid

and classic_round team ctx tid =
  let sm = team.Team.sm in
  let g = Team.geometry team in
  let num = Simd_group.get_simd_group_size g in
  let id = Simd_group.get_simd_group_id g ~tid in
  let trip = sm.Team.trip.(tid) in
  let r = sm.Team.round.(tid) in
  if r < Workshare.classic_rounds ~num ~trip then begin
    (match sm.Team.kind.(tid) with
    | Team.Sum_fold ->
        sm.Team.acc.(tid) <-
          Workshare.classic_fold_round ctx ~id ~num ~trip r sm.Team.folds.(tid)
            sm.Team.acc.(tid)
    | Team.Simd_loop ->
        Workshare.classic_simd_round ctx ~id ~num ~trip r sm.Team.bodies.(tid)
    | Team.Combine ->
        Workshare.classic_simd_round ctx ~id ~num ~trip r sm.Team.combs.(tid));
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
  team.Team.fused_reds.(tid) <- Workshare.drop_red;
  Gpusim.Thread.set_simt_factor ctx.Team.th sm.Team.simt.(tid);
  if sm.Team.kind.(tid) = Team.Simd_loop then
    await team ctx tid Team.Handoff (Team.sync_warp_arrive ctx)
  else begin
    Reduction.simd_reduce_post ctx sm.Team.acc.(tid);
    await team ctx tid Team.Posted (Team.sync_warp_arrive ctx)
  end

(* The team's step closures, built on its first generic region: each
   reads its tid's slots at call time. *)
let ensure_steps (team : Team.t) ctx =
  Team.init_steps team ctx;
  let sm = team.Team.sm in
  if Array.length sm.Team.bodies = 0 then begin
    let n = team.Team.num_workers in
    sm.Team.bodies <-
      Array.init n (fun tid iv ->
          sm.Team.fns.(tid) sm.Team.ctxs.(tid) iv sm.Team.args.(tid));
    sm.Team.folds <-
      Array.init n (fun tid iv ->
          sm.Team.reds.(tid) sm.Team.ctxs.(tid) iv sm.Team.args.(tid));
    sm.Team.combs <-
      Array.init n (fun tid iv ->
          sm.Team.acc.(tid) <-
            sm.Team.ops.(tid).Redop.combine sm.Team.acc.(tid)
              (sm.Team.reds.(tid) sm.Team.ctxs.(tid) iv sm.Team.args.(tid)));
    sm.Team.step <-
      (fun th ->
        let tid = th.Gpusim.Thread.tid in
        advance team sm.Team.ctxs.(tid) tid)
  end

let state_machine ctx =
  let team = ctx.Team.team in
  let th = ctx.Team.th in
  let tid = th.Gpusim.Thread.tid in
  ensure_steps team ctx;
  let sm = team.Team.sm in
  sm.Team.ctxs.(tid) <- ctx;
  sm.Team.phase.(tid) <- Team.Handoff;
  (* The hand-off waits are the `__simd` state-machine rendezvous: they
     advance the sanitizer's epochs like any warp barrier, but the
     worker is exempted from the divergence check — its main
     legitimately crosses block-scope barriers while the worker idles
     here.  An exception aborts the whole block, so there is nothing to
     restore on that path. *)
  let prev_actor =
    if Gpusim.Thread.sanitizing th then begin
      Gpusim.Ompsan.enter_state_machine th;
      (* Workers only ever run simd-loop bodies — their own lane's work;
         undo any enclosing SPMD attribution. *)
      Gpusim.Ompsan.set_actor th tid
    end
    else tid
  in
  if not (advance team ctx tid) then Gpusim.Engine.suspend_stepped th sm.Team.step;
  if Gpusim.Thread.sanitizing th then begin
    ignore (Gpusim.Ompsan.set_actor th prev_actor);
    Gpusim.Ompsan.leave_state_machine th
  end

let signal_termination ctx =
  Gpusim.Thread.trace ctx.Team.th ~tag:"simd.terminate" "";
  let team = ctx.Team.team in
  let _, group = my_group ctx in
  let slot = Team.slot team ~group in
  slot.Team.simd_fn <- None;
  slot.Team.simd_red_fn <- None;
  slot.Team.simd_fn_id <- -1;
  Team.sync_warp ctx
