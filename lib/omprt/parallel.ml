let bump ctx key =
  Gpusim.Counters.bump ctx.Team.th.Gpusim.Thread.counters key 1.0

(* The calling thread's task cell for this region, as [Some] for
   [active_task]: one cell per tid, rewritten in place on every entry.
   Every SPMD thread re-enters [__parallel] with the same values, so the
   cells agree; each thread rewrites only its own, and only between two
   of its own regions. *)
let effective_task team ~tid ~mode ~simd_len ~payload ~fn_id fn =
  let cfg = team.Team.cfg in
  let ws = cfg.Gpusim.Config.warp_size in
  (* §5.4.1: no warp barrier at all means generic-mode groups cannot
     rendezvous; degrade to singleton groups (sequential simd loops).  A
     software-emulated barrier keeps generic mode functional — just
     costlier per rendezvous. *)
  let simd_len =
    if
      Mode.equal mode Mode.Generic
      && cfg.Gpusim.Config.barrier_impl = Gpusim.Config.No_barrier
    then 1
    else simd_len
  in
  if simd_len <= 0 || simd_len > ws || ws mod simd_len <> 0 then
    invalid_arg "Parallel.parallel: simd_len must divide the warp size";
  if team.Team.num_workers mod simd_len <> 0 then
    invalid_arg "Parallel.parallel: simd_len must divide the worker count";
  (* §5.4: without simd groups (size one) the region always runs SPMD. *)
  let task_mode = if simd_len = 1 then Mode.Spmd else mode in
  match team.Team.tasks.(tid) with
  | Some task as cell ->
      task.Team.fn <- fn;
      task.Team.fn_id <- fn_id;
      task.Team.payload <- payload;
      task.Team.task_mode <- task_mode;
      task.Team.group_size <- simd_len;
      task.Team.payload_location <- Sharing.none;
      cell
  | None ->
      let cell =
        Some
          {
            Team.fn;
            fn_id;
            payload;
            task_mode;
            group_size = simd_len;
            payload_location = Sharing.none;
          }
      in
      team.Team.tasks.(tid) <- cell;
      cell

let enter_region ctx active =
  let team = ctx.Team.team in
  let task = Option.get active in
  let geom = Team.geometry_for team ~group_size:task.Team.group_size in
  team.Team.active_geometry <- geom;
  team.Team.active_task <- active;
  (* SIMD mains only consume sharing-space slices in generic mode; an
     SPMD region's payloads stay thread-local (§5.4). *)
  let sharing_groups =
    match task.Team.task_mode with
    | Mode.Generic -> (Option.get geom).Simd_group.num_groups
    | Mode.Spmd -> 0
  in
  Sharing.configure team.Team.sharing ~num_groups:sharing_groups

let leave_region team =
  team.Team.active_geometry <- None;
  team.Team.active_task <- None

let parallel ctx ~mode ~simd_len ?(payload = Payload.empty) ?(fn_id = -1)
    ?(last = false) fn =
  let team = ctx.Team.team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  if tid < team.Team.num_workers && team.Team.in_region.(tid) then
    failwith
      "Parallel.parallel: nested parallel regions are not supported on the \
       device (LLVM serializes them); restructure the kernel or inline the \
       nested body";
  let active = effective_task team ~tid ~mode ~simd_len ~payload ~fn_id fn in
  let task = Option.get active in
  match Team.role team ~tid with
  | Team.Team_main ->
      (* Teams-generic: signal the workers, wait for them to finish. *)
      bump ctx "parallel.regions";
      if Gpusim.Thread.tracing ctx.Team.th then
        Gpusim.Thread.trace ctx.Team.th ~tag:"parallel.signal"
          (Printf.sprintf "fn=%d mode=%s gs=%d" task.Team.fn_id
             (Mode.to_string task.Team.task_mode)
             task.Team.group_size);
      enter_region ctx active;
      Payload.pack ctx.Team.th payload;
      let location =
        Sharing.acquire team.Team.sharing ctx.Team.th
          ~bytes:(Payload.bytes payload)
      in
      Sharing.publish team.Team.sharing ctx.Team.th location payload;
      task.Team.payload_location <- location;
      team.Team.parallel_signal <- active;
      Team.team_barrier_wait ctx;
      (* workers execute the region here *)
      Team.team_barrier_wait ctx;
      (* past the closing barrier every worker has fetched: the region's
         slice can go back to the allocator *)
      Sharing.release team.Team.sharing location;
      team.Team.parallel_signal <- None;
      leave_region team
  | Team.Worker ->
      (* Teams-SPMD: every thread reaches the same __parallel call. *)
      if tid = 0 then bump ctx "parallel.regions";
      (* Every thread re-enters redundantly (same values); the state is
         left in place after the closing barrier because a slower sibling
         may still be returning while a faster one has already opened the
         next region — clearing here would race with its enter. *)
      enter_region ctx active;
      Payload.pack ctx.Team.th payload;
      Simd.region ctx task ~last
  | Team.Inactive_main_lane ->
      failwith "Parallel.parallel: inactive main-warp lane reached __parallel"
