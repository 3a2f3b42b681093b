let log2i n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* Cost of one shuffle-combine step per lane: a register exchange plus
   the combine ALU op. *)
let shuffle_step_cost (ctx : Team.ctx) =
  let cost = ctx.Team.th.Gpusim.Thread.cfg.Gpusim.Config.cost in
  cost.Gpusim.Config.alu +. cost.Gpusim.Config.flop

(* The group reduction in two halves around its first rendezvous, so the
   SIMD state machine's stepped workers can run it between arrivals:
   each lane posts its contribution, then combines the group's. *)
let simd_reduce_post ctx v =
  ctx.Team.team.Team.red_scratch.(ctx.Team.th.Gpusim.Thread.tid) <- v

let simd_reduce_combine ctx (op : Redop.t) =
  let team = ctx.Team.team in
  let g = Team.geometry team in
  let gs = Simd_group.get_simd_group_size g in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  let scratch = team.Team.red_scratch in
  (* Tree depth in cost, deterministic sequential fold in value. *)
  Gpusim.Thread.tick ctx.Team.th
    (float_of_int (log2i gs) *. shuffle_step_cost ctx);
  let group = Simd_group.get_simd_group g ~tid in
  let base = group * gs in
  if op == Redop.sum then begin
    (* same left fold from the same 0.0 identity, but the float
       accumulator stays unboxed with no closure call per lane *)
    let acc = ref 0.0 in
    for lane = 0 to gs - 1 do
      acc := !acc +. scratch.(base + lane)
    done;
    !acc
  end
  else begin
    let acc = ref op.Redop.identity in
    for lane = 0 to gs - 1 do
      acc := op.Redop.combine !acc scratch.(base + lane)
    done;
    !acc
  end

let simd_reduce ctx (op : Redop.t) v =
  let g = Team.geometry ctx.Team.team in
  if Simd_group.get_simd_group_size g = 1 then v
  else begin
    simd_reduce_post ctx v;
    Team.sync_warp ctx;
    let acc = simd_reduce_combine ctx op in
    Team.sync_warp ctx;
    acc
  end

let simd_sum ctx v = simd_reduce ctx Redop.sum v

let team_reduce ctx (op : Redop.t) v =
  let team = ctx.Team.team in
  let g = Team.geometry team in
  let gs = Simd_group.get_simd_group_size g in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  let scratch = team.Team.red_scratch in
  (* One contribution per OpenMP thread: lane 0 of each group writes. *)
  scratch.(tid) <- v;
  Gpusim.Shared.touch ctx.Team.th ~bytes:8;
  Team.region_barrier_wait ctx;
  let num_groups = g.Simd_group.num_groups in
  Gpusim.Thread.tick ctx.Team.th
    (float_of_int (log2i (max 2 num_groups)) *. shuffle_step_cost ctx);
  let acc = ref op.Redop.identity in
  for group = 0 to num_groups - 1 do
    let leader = Simd_group.leader_tid g ~group in
    (* SPMD lanes of one group must agree on their contribution. *)
    if not (Simd_group.is_simd_group_leader g ~tid) then
      assert (scratch.(tid) = scratch.(tid / gs * gs));
    acc := op.Redop.combine !acc scratch.(leader)
  done;
  Gpusim.Shared.touch ctx.Team.th ~bytes:(8 * num_groups);
  Team.region_barrier_wait ctx;
  !acc
