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

let state_machine ctx =
  let team = ctx.Team.team in
  let _, group = my_group ctx in
  let slot = Team.slot team ~group in
  let g, _ = my_group ctx in
  let fetch_args () =
    let sharers = Simd_group.get_simd_group_size g - 1 in
    Sharing.fetch ~sharers team.Team.sharing ctx.Team.th
      slot.Team.simd_args_location slot.Team.simd_args;
    Payload.unpack ctx.Team.th slot.Team.simd_args
  in
  let rec wait_for_work () =
    Team.sync_warp ctx;
    match (slot.Team.simd_fn, slot.Team.simd_red_fn) with
    | None, None -> () (* termination: end of the parallel region *)
    | Some fn, _ ->
        bump ctx "simd.state_machine_rounds";
        if Gpusim.Thread.tracing ctx.Team.th then
          Gpusim.Thread.trace ctx.Team.th ~tag:"simd.wake"
            (Printf.sprintf "fn=%d trip=%d" slot.Team.simd_fn_id
               slot.Team.simd_trip);
        fetch_args ();
        (* workers resolve a published pointer: the §5.5 dispatch *)
        run_loop ctx ~dispatch:true ~fn_id:slot.Team.simd_fn_id
          ~trip:slot.Team.simd_trip fn slot.Team.simd_args;
        Team.sync_warp ctx;
        wait_for_work ()
    | None, Some red ->
        bump ctx "simd.state_machine_rounds";
        fetch_args ();
        let op = slot.Team.simd_red_op in
        let acc =
          accumulate_loop ctx ~dispatch:true ~op ~fn_id:slot.Team.simd_fn_id
            ~trip:slot.Team.simd_trip red slot.Team.simd_args
        in
        let (_ : float) = Reduction.simd_reduce ctx op acc in
        Team.sync_warp ctx;
        wait_for_work ()
  in
  (* The hand-off waits below are the `__simd` state-machine rendezvous:
     they advance the sanitizer's epochs like any warp barrier, but the
     worker is exempted from the divergence check — its main legitimately
     crosses block-scope barriers while the worker idles here. *)
  let th = ctx.Team.th in
  let prev_actor =
    if Gpusim.Thread.sanitizing th then begin
      Gpusim.Ompsan.enter_state_machine th;
      (* Workers only ever run simd-loop bodies — their own lane's work;
         undo any enclosing SPMD attribution. *)
      Gpusim.Ompsan.set_actor th th.Gpusim.Thread.tid
    end
    else th.Gpusim.Thread.tid
  in
  Fun.protect
    ~finally:(fun () ->
      if Gpusim.Thread.sanitizing th then begin
        ignore (Gpusim.Ompsan.set_actor th prev_actor);
        Gpusim.Ompsan.leave_state_machine th
      end)
    wait_for_work

let signal_termination ctx =
  Gpusim.Thread.trace ctx.Team.th ~tag:"simd.terminate" "";
  let team = ctx.Team.team in
  let _, group = my_group ctx in
  let slot = Team.slot team ~group in
  slot.Team.simd_fn <- None;
  slot.Team.simd_red_fn <- None;
  slot.Team.simd_fn_id <- -1;
  Team.sync_warp ctx
