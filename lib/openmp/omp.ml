type ctx = Omprt.Team.ctx

let target_teams ~cfg ?trace ?(clauses = Clause.none)
    ?(payload = Omprt.Payload.empty) body =
  let params, parallel_mode, simdlen = Clause.resolve ~cfg clauses in
  Omprt.Target.launch ~cfg ?trace ~params ~dispatch_table_size:4 (fun ctx ->
      Omprt.Parallel.parallel ctx ~mode:parallel_mode ~simd_len:simdlen
        ~payload ~fn_id:0 ~last:true body)

let target_teams_distribute ~cfg ?trace ?(clauses = Clause.none) ~trip body =
  let params, _, _ = Clause.resolve ~cfg clauses in
  let params = { params with Omprt.Team.teams_mode = Omprt.Mode.Generic } in
  Omprt.Target.launch ~cfg ?trace ~params ~dispatch_table_size:4 (fun ctx ->
      Omprt.Workshare.distribute ctx
        ~schedule:(Clause.workshare_schedule clauses)
        ~trip
        (fun i -> body ctx i))

let parallel_for ctx ?(clauses = Clause.none)
    ?(payload = Omprt.Payload.empty) ~trip body =
  let mode = Option.value clauses.Clause.parallel_mode ~default:Omprt.Mode.Spmd in
  let simd_len = Option.value clauses.Clause.simdlen ~default:1 in
  Omprt.Parallel.parallel ctx ~mode ~simd_len ~payload ~fn_id:1 (fun ctx ->
      Omprt.Workshare.omp_for ctx
        ~schedule:(Clause.workshare_schedule clauses)
        ~trip body)

let distribute_parallel_for ctx ?(schedule = Clause.Static) ~trip body =
  let schedule =
    Clause.workshare_schedule { Clause.none with Clause.schedule } in
  Omprt.Workshare.distribute_parallel_for ctx ~schedule ~trip body

let for_ ctx ?(schedule = Clause.Static) ~trip body =
  let schedule =
    Clause.workshare_schedule { Clause.none with Clause.schedule } in
  Omprt.Workshare.omp_for ctx ~schedule ~trip body

let simd ctx ?payload ~trip body =
  Omprt.Simd.simd ctx ?payload ~fn_id:2 ~trip (fun _ iv -> body iv)

let simd_sum ctx ?payload ~trip body =
  Omprt.Simd.simd_sum ctx ?payload ~fn_id:3 ~trip (fun ctx iv ->
      Omprt.Simd.fold ctx (body iv))

let barrier = Omprt.Team.region_barrier_wait
let single = Omprt.Workshare.single
let master = Omprt.Workshare.master

let team_num (ctx : ctx) = ctx.Omprt.Team.team.Omprt.Team.block_id

let num_teams (ctx : ctx) =
  ctx.Omprt.Team.team.Omprt.Team.params.Omprt.Team.num_teams

let geometry (ctx : ctx) = Omprt.Team.geometry ctx.Omprt.Team.team

let thread_num (ctx : ctx) =
  Omprt.Simd_group.get_simd_group (geometry ctx)
    ~tid:ctx.Omprt.Team.th.Gpusim.Thread.tid

let num_threads (ctx : ctx) = (geometry ctx).Omprt.Simd_group.num_groups

let simd_lane (ctx : ctx) =
  Omprt.Simd_group.get_simd_group_id (geometry ctx)
    ~tid:ctx.Omprt.Team.th.Gpusim.Thread.tid

let simd_width (ctx : ctx) =
  Omprt.Simd_group.get_simd_group_size (geometry ctx)

let collapse2 ~n1 ~n2 k =
  if n1 < 0 || n2 <= 0 then invalid_arg "Omp.collapse2: bad extents";
  k (fun flat -> (flat / n2, flat mod n2))

let collapse3 ~n1 ~n2 ~n3 k =
  if n1 < 0 || n2 <= 0 || n3 <= 0 then invalid_arg "Omp.collapse3: bad extents";
  k (fun flat -> (flat / (n2 * n3), flat / n3 mod n2, flat mod n3))
