let target_init (ctx : Team.ctx) =
  (* Shared team-state initialization: a small fixed cost per thread. *)
  let cost = ctx.Team.team.Team.cfg.Gpusim.Config.cost in
  Gpusim.Thread.tick ctx.Team.th cost.Gpusim.Config.call;
  Gpusim.Thread.trace ctx.Team.th ~tag:"target_init" ""

let target_deinit (ctx : Team.ctx) =
  let team = ctx.Team.team in
  match team.Team.params.Team.teams_mode with
  | Mode.Spmd -> ()
  | Mode.Generic ->
      (* Publish the termination signal and release the workers. *)
      team.Team.parallel_signal <- None;
      Team.team_barrier_wait ctx

(* The team main runs alone in the extra warp: every instruction it
   issues occupies a full warp's issue slots (§5.1 / Fig 2).  The factor
   save/restore is hand-inlined, as in a region's: a thunk would
   allocate per block. *)
let run_team_main body ctx =
  let th = ctx.Team.th in
  let saved = Gpusim.Thread.simt_factor th in
  Gpusim.Thread.set_simt_factor th
    (float_of_int ctx.Team.team.Team.cfg.Gpusim.Config.warp_size);
  match
    body ctx;
    target_deinit ctx
  with
  | () -> Gpusim.Thread.set_simt_factor th saved
  | exception e ->
      Gpusim.Thread.set_simt_factor th saved;
      raise e

let thread_main body team (th : Gpusim.Thread.t) =
  let ctx = Team.lane_ctx team th in
  target_init ctx;
  match Team.role team ~tid:th.Gpusim.Thread.tid with
  | Team.Worker -> (
      match team.Team.params.Team.teams_mode with
      | Mode.Spmd ->
          (* In teams-SPMD every worker redundantly runs the top-level
             body as the (single logical) team main; attribute those
             accesses to one actor so the sanitizer ignores the
             redundancy. *)
          if Gpusim.Thread.sanitizing th then
            ignore (Gpusim.Ompsan.set_actor th 0);
          body ctx
      | Mode.Generic ->
          (* workers idle at the team barrier, as steps, until the main
             publishes a parallel region (§3.1) *)
          Simd.worker ctx)
  | Team.Team_main -> run_team_main body ctx
  | Team.Inactive_main_lane -> ()

let launch ~cfg ?pool ?trace ?nonce ?kernel ~params ?(dispatch_table_size = 0)
    body =
  let block = Team.block_threads ~cfg params in
  Gpusim.Device.launch ~cfg ?pool ?trace ?nonce ?kernel
    ~grid:params.Team.num_teams ~block
    ~init:(fun ~block_id arena ->
      let team = Team.create ~cfg ~arena ~params ~block_id in
      team.Team.dispatch_table_size <- dispatch_table_size;
      team)
    ~reinit:(fun team ~block_id arena ->
      Team.reset team ~arena ~block_id;
      team.Team.dispatch_table_size <- dispatch_table_size)
    ~body:(thread_main body) ()
