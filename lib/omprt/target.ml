let target_init (ctx : Team.ctx) =
  (* Shared team-state initialization: a small fixed cost per thread. *)
  let cost = ctx.Team.team.Team.cfg.Gpusim.Config.cost in
  Gpusim.Thread.tick ctx.Team.th cost.Gpusim.Config.call;
  Gpusim.Thread.trace ctx.Team.th ~tag:"target_init" ""

let team_state_machine _body (ctx : Team.ctx) =
  let team = ctx.Team.team in
  let rec idle () =
    (* Workers immediately encounter a thread barrier and remain idle
       until the main thread publishes a parallel region (§3.1). *)
    Team.team_barrier_wait ctx;
    match team.Team.parallel_signal with
    | None -> () (* kernel termination *)
    | Some task ->
        Gpusim.Counters.bump ctx.Team.th.Gpusim.Thread.counters
          "target.state_machine_wakeups" 1.0;
        Sharing.fetch ~sharers:team.Team.num_workers team.Team.sharing
          ctx.Team.th task.Team.payload_location task.Team.payload;
        Payload.unpack ctx.Team.th task.Team.payload;
        Parallel.exec_on_thread ctx task;
        Team.team_barrier_wait ctx;
        idle ()
  in
  idle ()

let target_deinit (ctx : Team.ctx) =
  let team = ctx.Team.team in
  match team.Team.params.Team.teams_mode with
  | Mode.Spmd -> ()
  | Mode.Generic ->
      (* Publish the termination signal and release the workers. *)
      team.Team.parallel_signal <- None;
      Team.team_barrier_wait ctx

let thread_main body team (th : Gpusim.Thread.t) =
  let ctx = { Team.th; team } in
  target_init ctx;
  match Team.role team ~tid:th.Gpusim.Thread.tid with
  | Team.Worker -> (
      match team.Team.params.Team.teams_mode with
      | Mode.Spmd ->
          (* In teams-SPMD every worker redundantly runs the top-level
             body as the (single logical) team main; attribute those
             accesses to one actor so the sanitizer ignores the
             redundancy. *)
          if !Gpusim.Ompsan.enabled then ignore (Gpusim.Ompsan.set_actor th 0);
          body ctx
      | Mode.Generic -> team_state_machine body ctx)
  | Team.Team_main ->
      (* The team main runs alone in the extra warp: every instruction it
         issues occupies a full warp's issue slots (§5.1 / Fig 2). *)
      Gpusim.Thread.with_simt_factor th
        (float_of_int team.Team.cfg.Gpusim.Config.warp_size) (fun () ->
          body ctx;
          target_deinit ctx)
  | Team.Inactive_main_lane -> ()

let launch ~cfg ?pool ?trace ?block_class ~params ?(dispatch_table_size = 0)
    body =
  let block = Team.block_threads ~cfg params in
  Gpusim.Device.launch ~cfg ?pool ?trace ?block_class
    ~grid:params.Team.num_teams ~block
    ~init:(fun ~block_id arena ->
      let team = Team.create ~cfg ~arena ~params ~block_id in
      team.Team.dispatch_table_size <- dispatch_table_size;
      team)
    ~body:(thread_main body) ()
