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

(* The loops below run iteration [i] of [0, trip) as [f (offset + i)]:
   a caller that works on a sub-range passes its start instead of
   wrapping [f] in a closure per call. *)
let dynamic_loop ctx ~chunk ~trip ~offset f =
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
  let base = ref (group_grab ctx ~chunk) in
  while !base < trip do
    let hi = min trip (!base + chunk) in
    for i = !base to hi - 1 do
      Gpusim.Thread.tick ctx.Team.th overhead;
      f (offset + i)
    done;
    base := group_grab ctx ~chunk
  done;
  team.Team.dyn_active <- team.Team.dyn_active - 1;
  (* the implicit barrier at the end of a worksharing loop, which also
     protects the counter for the next loop *)
  Team.region_barrier_wait ctx

let run_schedule ctx schedule ~id ~num ~trip ~offset f =
  check_geometry_args ~id ~num ~trip;
  let th = ctx.Team.th in
  let overhead = step_cost ctx in
  (match schedule with
  | Dynamic chunk -> dynamic_loop ctx ~chunk ~trip ~offset f
  | Static ->
      let i = ref id in
      while !i < trip do
        Gpusim.Thread.tick th overhead;
        f (offset + !i);
        i := !i + num
      done
  | Chunked chunk ->
      if chunk <= 0 then invalid_arg "Workshare: chunk must be positive";
      let base = ref (id * chunk) in
      while !base < trip do
        let hi = min trip (!base + chunk) in
        for i = !base to hi - 1 do
          Gpusim.Thread.tick th overhead;
          f (offset + i)
        done;
        base := !base + (num * chunk)
      done);
  (* trailing bound check that exits the loop *)
  Gpusim.Thread.tick th overhead

(* distribute splits the iteration space into one contiguous chunk per
   team (LLVM's default distribute schedule: dist_schedule(static) with
   chunk = ceil(trip/teams)), which keeps small iteration spaces spread
   across all SMs.  The team's chunk is [team_base, team_stop). *)
let team_chunk ctx ~trip =
  let num_teams = ctx.Team.team.Team.params.Team.num_teams in
  (trip + num_teams - 1) / num_teams

let team_base ctx ~trip = min trip (ctx.Team.team.Team.block_id * team_chunk ctx ~trip)
let team_stop ctx ~trip = min trip (team_base ctx ~trip + team_chunk ctx ~trip)

let distribute ctx ?(schedule = Static) ~trip f =
  match schedule with
  | Static | Dynamic _ ->
      (* dist_schedule is static; a dynamic request degrades gracefully *)
      let base = team_base ctx ~trip in
      run_schedule ctx Static ~id:0 ~num:1 ~trip:(team_stop ctx ~trip - base)
        ~offset:base f
  | Chunked _ ->
      run_schedule ctx schedule ~id:ctx.Team.team.Team.block_id
        ~num:ctx.Team.team.Team.params.Team.num_teams ~trip ~offset:0 f

(* The calling lane's OpenMP thread (its SIMD group) and the region's
   count of them. *)
let omp_thread ctx =
  Simd_group.get_simd_group (Team.geometry ctx.Team.team)
    ~tid:ctx.Team.th.Gpusim.Thread.tid

let omp_threads ctx = (Team.geometry ctx.Team.team).Simd_group.num_groups

let omp_for ctx ?(schedule = Static) ~trip f =
  run_schedule ctx schedule ~id:(omp_thread ctx) ~num:(omp_threads ctx) ~trip
    ~offset:0 f

let distribute_parallel_for ctx ?(schedule = Static) ~trip f =
  (* combined construct: a contiguous team chunk, workshared across the
     team's OpenMP threads *)
  let base = team_base ctx ~trip in
  run_schedule ctx schedule ~id:(omp_thread ctx) ~num:(omp_threads ctx)
    ~trip:(team_stop ctx ~trip - base) ~offset:base f

let sequential_loop ctx ~trip f =
  run_schedule ctx Static ~id:0 ~num:1 ~trip ~offset:0 f

(* The executing lane for single/master: OpenMP thread 0's SIMD main —
   i.e. tid 0, which executes region code in both modes. *)
let master ctx f =
  if ctx.Team.th.Gpusim.Thread.tid = 0 then f ()

let single ctx f =
  master ctx f;
  Team.region_barrier_wait ctx
