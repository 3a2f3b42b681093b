type schedule = Static | Chunked of int | Dynamic of int

let check_geometry_args ~id ~num ~trip =
  if num <= 0 then invalid_arg "Workshare: worker count must be positive";
  if id < 0 || id >= num then invalid_arg "Workshare: worker id out of range";
  if trip < 0 then invalid_arg "Workshare: negative trip count"

let iterations schedule ~id ~num ~trip =
  check_geometry_args ~id ~num ~trip;
  match schedule with
  | Dynamic _ -> invalid_arg "Workshare.iterations: dynamic has no static set"
  | Static ->
      let rec go i acc = if i >= trip then List.rev acc else go (i + num) (i :: acc) in
      go id []
  | Chunked chunk ->
      if chunk <= 0 then invalid_arg "Workshare: chunk must be positive";
      let rec chunks base acc =
        if base >= trip then List.rev acc
        else
          let hi = min trip (base + chunk) in
          let acc = List.rev_append (List.init (hi - base) (fun k -> base + k)) acc in
          chunks (base + (num * chunk)) acc
      in
      chunks (id * chunk) []


(* Per-iteration loop overhead: induction update + bound compare/branch. *)
let step_cost (ctx : Team.ctx) =
  let cost = ctx.team.Team.cfg.Gpusim.Config.cost in
  cost.Gpusim.Config.alu +. cost.Gpusim.Config.branch

(* One fetch-add on the team's shared loop counter.  In SPMD mode the
   whole SIMD group is one OpenMP thread, so the group's main grabs and
   broadcasts the base through scratch; in generic mode only mains execute
   loop code and grab directly. *)
let group_grab (ctx : Team.ctx) ~chunk =
  let team = ctx.Team.team in
  let cost = team.Team.cfg.Gpusim.Config.cost in
  let grab () =
    Gpusim.Thread.tick ctx.Team.th cost.Gpusim.Config.atomic;
    ctx.Team.th.Gpusim.Thread.counters.Gpusim.Counters.atomics <-
      ctx.Team.th.Gpusim.Thread.counters.Gpusim.Counters.atomics + 1;
    let base = team.Team.dyn_counter in
    team.Team.dyn_counter <- base + chunk;
    base
  in
  let g = Team.geometry team in
  let gs = Simd_group.get_simd_group_size g in
  let spmd_task =
    match team.Team.active_task with
    | Some task -> task.Team.task_mode = Mode.Spmd
    | None -> true
  in
  if gs = 1 || not spmd_task then grab ()
  else begin
    let tid = ctx.Team.th.Gpusim.Thread.tid in
    let group = Simd_group.get_simd_group g ~tid in
    let leader = Simd_group.leader_tid g ~group in
    if tid = leader then
      team.Team.red_scratch.(leader) <- float_of_int (grab ());
    Team.sync_warp ctx;
    let base = int_of_float team.Team.red_scratch.(leader) in
    Team.sync_warp ctx;
    base
  end

let dynamic_loop ctx ~chunk ~trip f =
  if chunk <= 0 then invalid_arg "Workshare: chunk must be positive";
  let team = ctx.Team.team in
  let overhead = step_cost ctx in
  (* entry: reset the shared counter once, fenced by region barriers *)
  Team.region_barrier_wait ctx;
  if ctx.Team.th.Gpusim.Thread.tid = 0 then team.Team.dyn_counter <- 0;
  (* while any OpenMP thread is grabbing chunks, simd loops run classic:
     the grab order is defined by round-level fiber interleaving *)
  team.Team.dyn_active <- team.Team.dyn_active + 1;
  Team.region_barrier_wait ctx;
  let rec work () =
    let base = group_grab ctx ~chunk in
    if base < trip then begin
      let hi = min trip (base + chunk) in
      for i = base to hi - 1 do
        Gpusim.Thread.tick ctx.Team.th overhead;
        f i
      done;
      work ()
    end
  in
  work ();
  team.Team.dyn_active <- team.Team.dyn_active - 1;
  (* the implicit barrier at the end of a worksharing loop, which also
     protects the counter for the next loop *)
  Team.region_barrier_wait ctx

let run_schedule ctx schedule ~id ~num ~trip f =
  check_geometry_args ~id ~num ~trip;
  let overhead = step_cost ctx in
  let run i =
    Gpusim.Thread.tick ctx.Team.th overhead;
    f i
  in
  (match schedule with
  | Dynamic chunk -> dynamic_loop ctx ~chunk ~trip f
  | Static ->
      let i = ref id in
      while !i < trip do
        run !i;
        i := !i + num
      done
  | Chunked chunk ->
      if chunk <= 0 then invalid_arg "Workshare: chunk must be positive";
      let base = ref (id * chunk) in
      while !base < trip do
        let hi = min trip (!base + chunk) in
        for i = !base to hi - 1 do
          run i
        done;
        base := !base + (num * chunk)
      done);
  (* trailing bound check that exits the loop *)
  Gpusim.Thread.tick ctx.Team.th overhead

(* distribute splits the iteration space into one contiguous chunk per
   team (LLVM's default distribute schedule: dist_schedule(static) with
   chunk = ceil(trip/teams)), which keeps small iteration spaces spread
   across all SMs. *)
let team_chunk ctx ~trip =
  let team = ctx.Team.team in
  let num_teams = team.Team.params.Team.num_teams in
  let chunk = (trip + num_teams - 1) / num_teams in
  let base = min trip (team.Team.block_id * chunk) in
  let stop = min trip (base + chunk) in
  (base, stop)

let distribute ctx ?(schedule = Static) ~trip f =
  let base, stop = team_chunk ctx ~trip in
  match schedule with
  | Static | Dynamic _ ->
      (* dist_schedule is static; a dynamic request degrades gracefully *)
      run_schedule ctx Static ~id:0 ~num:1 ~trip:(stop - base)
        (fun i -> f (base + i))
  | Chunked _ ->
      run_schedule ctx schedule ~id:ctx.Team.team.Team.block_id
        ~num:ctx.Team.team.Team.params.Team.num_teams ~trip f

let omp_thread ctx =
  let team = ctx.Team.team in
  let g = Team.geometry team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  (Simd_group.get_simd_group g ~tid, g.Simd_group.num_groups)

let omp_for ctx ?(schedule = Static) ~trip f =
  let id, num = omp_thread ctx in
  run_schedule ctx schedule ~id ~num ~trip f

let distribute_parallel_for ctx ?(schedule = Static) ~trip f =
  (* combined construct: a contiguous team chunk, workshared across the
     team's OpenMP threads *)
  let base, stop = team_chunk ctx ~trip in
  let group, num_groups = omp_thread ctx in
  run_schedule ctx schedule ~id:group ~num:num_groups ~trip:(stop - base)
    (fun i -> f (base + i))

(* --- fused lockstep execution ------------------------------------------

   The classic simd loop parks every lane on a zero-cost alignment
   barrier after every round; with bodies of a few memory accesses the
   effect-continuation traffic (capture + two stack switches per lane per
   round) dominates the host time of the simd-heavy experiments.  The
   fused path keeps the entry [sync_warp] rendezvous — whose completing
   arriver the engine resumes *before* any released waiter — and turns
   the rounds into direct calls: every lane deposits its thread handle,
   loop closure and trip count in the team's fused-lockstep scratch, and
   the first lane through the rendezvous drives all lanes' iterations
   round-major in ascending lane order, replicating the per-lane
   tick/SIMT-factor/sanitizer sequence the classic rounds perform and
   aligning the group's clocks at each round boundary exactly as the
   zero-cost barrier release did.  Parked lanes wake to find the group's
   sequence number advanced and skip straight to the loop exit.

   Per-lane virtual-clock math is execution-order independent (each
   lane's own charges plus a commutative max-align per round), so fusing
   only changes which deterministic interleaving the order-sensitive
   models (coalescing window, L2 sessions) observe: the canonical
   ascending-lane round is the SIMT instruction the lockstep rounds
   model, where the classic order was an artifact of fiber scheduling.
   The warp's atomic epoch advances once per lane per round exactly as
   the per-lane barrier arrivals did, so atomic-contention accounting is
   unchanged by fusing.

   Fault-injected runs keep the classic path: stall faults park their
   victims at the per-round barriers, which the fused rounds never
   reach. *)

let drop_fn : int -> unit = fun _ -> ()
let drop_red : int -> float = fun _ -> 0.0

let deposit (team : Team.t) (th : Gpusim.Thread.t) ~tid ~trip =
  if Array.length team.Team.fused_ths = 0 then
    team.Team.fused_ths <- Array.make (Array.length team.Team.fused_trip) th;
  team.Team.fused_ths.(tid) <- th;
  team.Team.fused_trip.(tid) <- trip

(* A group whose lanes disagree on the trip count cannot be driven — and
   must not be: under classic execution divergent trips deadlock at the
   lockstep barriers with sanitizer findings attached, which is exactly
   the surface tests and users rely on.  The driver declines and every
   lane falls back to its own classic rounds. *)
let uniform_trip (team : Team.t) ~base ~num ~trip =
  let ok = ref true in
  for l = 0 to num - 1 do
    if team.Team.fused_trip.(base + l) <> trip then ok := false
  done;
  !ok

(* One round boundary, driver-side: the group's clocks align to the
   round maximum (the lockstep barrier's cost is 0.0, so alignment is
   the entire release).  The per-lane atomic-epoch bumps happen in the
   lane loop, where each classic arrival performed them. *)
let align_round (ths : Gpusim.Thread.t array) ~base ~num =
  let lead = ths.(base) in
  let tmax = ref (Gpusim.Thread.clock lead) in
  for l = 1 to num - 1 do
    let c = Gpusim.Thread.clock ths.(base + l) in
    if c > !tmax then tmax := c
  done;
  for l = 0 to num - 1 do
    Gpusim.Thread.align_clock ths.(base + l) !tmax
  done

(* Sanitizer bracket around a driven loop: per-tid attribution while the
   driver executes other lanes' iterations (the classic path's
   [set_actor] on loop entry), restored on exit. *)
let san_set_actors (team : Team.t) ~base ~num =
  let ths = team.Team.fused_ths in
  for l = 0 to num - 1 do
    team.Team.fused_actor.(base + l) <-
      Gpusim.Ompsan.set_actor ths.(base + l) (base + l)
  done

let san_restore_actors (team : Team.t) ~base ~num =
  let ths = team.Team.fused_ths in
  for l = 0 to num - 1 do
    ignore (Gpusim.Ompsan.set_actor ths.(base + l) team.Team.fused_actor.(base + l))
  done

let san_round (team : Team.t) g ~base ~num =
  let ths = team.Team.fused_ths in
  let mask = Simd_group.simdmask g ~tid:base in
  let bar = Team.lockstep_barrier team ths.(base) ~mask in
  for l = 0 to num - 1 do
    Team.san_warp_arrive ths.(base + l) ~mask bar
  done

let drive_simd ctx g ~group ~num ~trip =
  let team = ctx.Team.team in
  let base = Simd_group.leader_tid g ~group in
  let ths = team.Team.fused_ths in
  let fns = team.Team.fused_fns in
  let overhead = step_cost ctx in
  let san = Gpusim.Thread.sanitizing ctx.Team.th in
  if san then san_set_actors team ~base ~num;
  let rounds = (trip + num - 1) / num in
  for r = 0 to rounds - 1 do
    let rbase = r * num in
    let rem = trip - rbase in
    let active = if rem >= num then num else rem in
    for l = 0 to num - 1 do
      let th = ths.(base + l) in
      Gpusim.Thread.tick th overhead;
      let iv = rbase + l in
      if iv < trip then
        if active = num then fns.(base + l) iv
        else begin
          let saved = Gpusim.Thread.simt_factor th in
          Gpusim.Thread.set_simt_factor th
            (saved *. (float_of_int num /. float_of_int active));
          fns.(base + l) iv;
          Gpusim.Thread.set_simt_factor th saved
        end;
      (* the lane's classic barrier arrival bumped the warp's atomic
         epoch right after its body; keep that wipe structure *)
      let w = th.Gpusim.Thread.warp in
      w.Gpusim.Thread.atomic_gen <- w.Gpusim.Thread.atomic_gen + 1
    done;
    if san then san_round team g ~base ~num;
    align_round ths ~base ~num
  done;
  if san then san_restore_actors team ~base ~num;
  for l = 0 to num - 1 do
    Gpusim.Thread.tick ths.(base + l) overhead
  done

let drive_fold ctx g ~group ~num ~trip =
  let team = ctx.Team.team in
  let base = Simd_group.leader_tid g ~group in
  let ths = team.Team.fused_ths in
  let reds = team.Team.fused_reds in
  let acc = team.Team.fused_acc in
  let overhead = step_cost ctx in
  let san = Gpusim.Thread.sanitizing ctx.Team.th in
  if san then san_set_actors team ~base ~num;
  for l = 0 to num - 1 do
    acc.(base + l) <- 0.0
  done;
  let rounds = (trip + num - 1) / num in
  for r = 0 to rounds - 1 do
    let rbase = r * num in
    let rem = trip - rbase in
    let active = if rem >= num then num else rem in
    for l = 0 to num - 1 do
      let th = ths.(base + l) in
      Gpusim.Thread.tick th overhead;
      let iv = rbase + l in
      if iv < trip then
        if active = num then acc.(base + l) <- acc.(base + l) +. reds.(base + l) iv
        else begin
          let saved = Gpusim.Thread.simt_factor th in
          Gpusim.Thread.set_simt_factor th
            (saved *. (float_of_int num /. float_of_int active));
          let v = reds.(base + l) iv in
          Gpusim.Thread.set_simt_factor th saved;
          acc.(base + l) <- acc.(base + l) +. v
        end;
      let w = th.Gpusim.Thread.warp in
      w.Gpusim.Thread.atomic_gen <- w.Gpusim.Thread.atomic_gen + 1
    done;
    if san then san_round team g ~base ~num;
    align_round ths ~base ~num
  done;
  if san then san_restore_actors team ~base ~num;
  for l = 0 to num - 1 do
    Gpusim.Thread.tick ths.(base + l) overhead
  done

(* The classic barrier-per-round execution, starting after the entry
   rendezvous: each lane steps through its own rounds, parking on the
   zero-cost lockstep barrier after every one.  Runs under fault
   injection, with a dynamic schedule in flight, and as the fallback
   when a group's lanes diverge on the trip count.  The rounds are
   built from the pieces below, which the SIMD state machine's stepped
   workers run between their own lockstep arrivals. *)

(* Simd-loop iterations belong to the executing lane itself, not to the
   SPMD region's logical thread: restore per-tid attribution so the
   sanitizer can see lanes of one group racing on a cell.  Returns the
   actor to restore in [classic_end]. *)
let classic_begin (ctx : Team.ctx) =
  let th = ctx.Team.th in
  let tid = th.Gpusim.Thread.tid in
  if Gpusim.Thread.sanitizing th then Gpusim.Ompsan.set_actor th tid else tid

let classic_end (ctx : Team.ctx) prev_actor =
  let th = ctx.Team.th in
  if Gpusim.Thread.sanitizing th then
    ignore (Gpusim.Ompsan.set_actor th prev_actor);
  Gpusim.Thread.tick th (step_cost ctx)

let classic_rounds ~num ~trip = (trip + num - 1) / num

(* Lockstep round [r]: every lane steps through ceil(trip/num) rounds,
   masked off when its iteration number falls beyond the trip count —
   this is both how SIMT hardware executes the loop and what makes
   idle-lane waste (trip not divisible by the group size) visible.  In a
   remainder round the masked-off lanes still occupy their issue slots,
   so the active lanes carry the whole group's width: this is the
   idle-thread waste of a trip count that the group size does not
   divide (S6.5).  The factor save/restore is hand-inlined: a
   [with_simt_factor] thunk would capture the body's accumulator. *)
let classic_simd_round (ctx : Team.ctx) ~id ~num ~trip r (f : int -> unit) =
  let th = ctx.Team.th in
  let iv = id + (r * num) in
  Gpusim.Thread.tick th (step_cost ctx);
  if iv < trip then begin
    let active = min num (trip - (r * num)) in
    if active = num then f iv
    else begin
      let saved = Gpusim.Thread.simt_factor th in
      Gpusim.Thread.set_simt_factor th
        (saved *. (float_of_int num /. float_of_int active));
      f iv;
      Gpusim.Thread.set_simt_factor th saved
    end
  end

let classic_fold_round (ctx : Team.ctx) ~id ~num ~trip r (f : int -> float) acc
    =
  let th = ctx.Team.th in
  let iv = id + (r * num) in
  Gpusim.Thread.tick th (step_cost ctx);
  if iv >= trip then acc
  else
    let active = min num (trip - (r * num)) in
    if active = num then acc +. f iv
    else begin
      let saved = Gpusim.Thread.simt_factor th in
      Gpusim.Thread.set_simt_factor th
        (saved *. (float_of_int num /. float_of_int active));
      let v = f iv in
      Gpusim.Thread.set_simt_factor th saved;
      acc +. v
    end

let classic_simd_rounds ctx ~id ~num ~trip f =
  let prev_actor = classic_begin ctx in
  for r = 0 to classic_rounds ~num ~trip - 1 do
    classic_simd_round ctx ~id ~num ~trip r f;
    Team.lockstep_align ctx
  done;
  classic_end ctx prev_actor

let classic_fold_rounds ctx ~id ~num ~trip (f : int -> float) =
  let prev_actor = classic_begin ctx in
  let acc = ref 0.0 in
  for r = 0 to classic_rounds ~num ~trip - 1 do
    acc := classic_fold_round ctx ~id ~num ~trip r f !acc;
    Team.lockstep_align ctx
  done;
  classic_end ctx prev_actor;
  !acc

(* Whether a simd loop runs fused: not while a dynamic schedule is in
   flight, nor under fault injection. *)
let fusing (ctx : Team.ctx) =
  ctx.Team.team.Team.dyn_active = 0
  && not (Gpusim.Thread.injecting ctx.Team.th)

(* The fused loop in two halves around its entry rendezvous.  Before:
   the lane deposits its handle and trip count (the caller deposits its
   body) and reads the group's sequence number.  After: the first lane
   through drives every lane's rounds; [true] means no lane drove — the
   trip counts diverge — and this lane must run its own classic
   rounds. *)
let fused_enter (ctx : Team.ctx) g ~tid ~trip =
  let team = ctx.Team.team in
  deposit team ctx.Team.th ~tid ~trip;
  team.Team.fused_seq.(Simd_group.get_simd_group g ~tid)

let fused_fallback (ctx : Team.ctx) g ~tid ~num ~trip ~my_seq ~fold =
  let team = ctx.Team.team in
  let group = Simd_group.get_simd_group g ~tid in
  if
    team.Team.fused_seq.(group) = my_seq
    && uniform_trip team ~base:(Simd_group.leader_tid g ~group) ~num ~trip
  then begin
    team.Team.fused_seq.(group) <- my_seq + 1;
    if fold then drive_fold ctx g ~group ~num ~trip
    else drive_simd ctx g ~group ~num ~trip
  end;
  team.Team.fused_seq.(group) = my_seq

let fused_simd_loop ctx g ~tid ~id ~trip ~num f =
  let team = ctx.Team.team in
  let my_seq = fused_enter ctx g ~tid ~trip in
  team.Team.fused_fns.(tid) <- f;
  Team.sync_warp ctx;
  if fused_fallback ctx g ~tid ~num ~trip ~my_seq ~fold:false then
    (* divergent trip counts: the driver declined; every lane runs its
       own classic rounds so the divergence surfaces (deadlock, with
       sanitizer findings) exactly as under classic execution *)
    classic_simd_rounds ctx ~id ~num ~trip f;
  (* drop the deposited closure so its captures don't outlive the loop *)
  team.Team.fused_fns.(tid) <- drop_fn

let fused_simd_fold ctx g ~tid ~id ~trip ~num f =
  let team = ctx.Team.team in
  let my_seq = fused_enter ctx g ~tid ~trip in
  team.Team.fused_reds.(tid) <- f;
  Team.sync_warp ctx;
  if fused_fallback ctx g ~tid ~num ~trip ~my_seq ~fold:true then begin
    let r = classic_fold_rounds ctx ~id ~num ~trip f in
    team.Team.fused_reds.(tid) <- drop_red;
    r
  end
  else begin
    team.Team.fused_reds.(tid) <- drop_red;
    team.Team.fused_acc.(tid)
  end

let simd_loop ctx ~trip f =
  let team = ctx.Team.team in
  let g = Team.geometry team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  let id = Simd_group.get_simd_group_id g ~tid in
  let num = Simd_group.get_simd_group_size g in
  if num = 1 then run_schedule ctx Static ~id:0 ~num:1 ~trip f
  else if fusing ctx then fused_simd_loop ctx g ~tid ~id ~trip ~num f
  else begin
    Team.sync_warp ctx;
    classic_simd_rounds ctx ~id ~num ~trip f
  end

let sequential_loop ctx ~trip f = run_schedule ctx Static ~id:0 ~num:1 ~trip f

(* Sum-specialized folds over the two loop shapes above.  The generic
   reduction path accumulates through a [ref] captured by a closure and
   an [op.combine] closure call, which boxes a float per element; these
   keep the running sum in a local (register-allocated) accumulator.
   The tick sequence is identical to running the generic loop with a
   body doing the same work, so simulated reports do not change. *)
let sequential_fold_sum ctx ~trip (f : int -> float) =
  check_geometry_args ~id:0 ~num:1 ~trip;
  let overhead = step_cost ctx in
  let th = ctx.Team.th in
  let acc = ref 0.0 in
  for i = 0 to trip - 1 do
    Gpusim.Thread.tick th overhead;
    acc := !acc +. f i
  done;
  Gpusim.Thread.tick th overhead;
  !acc

let simd_fold_sum ctx ~trip (f : int -> float) =
  let team = ctx.Team.team in
  let g = Team.geometry team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  let id = Simd_group.get_simd_group_id g ~tid in
  let num = Simd_group.get_simd_group_size g in
  if num = 1 then sequential_fold_sum ctx ~trip f
  else if fusing ctx then fused_simd_fold ctx g ~tid ~id ~trip ~num f
  else begin
    Team.sync_warp ctx;
    classic_fold_rounds ctx ~id ~num ~trip f
  end

(* The executing lane for single/master: OpenMP thread 0's SIMD main —
   i.e. tid 0, which executes region code in both modes. *)
let master ctx f =
  if ctx.Team.th.Gpusim.Thread.tid = 0 then f ()

let single ctx f =
  master ctx f;
  Team.region_barrier_wait ctx
