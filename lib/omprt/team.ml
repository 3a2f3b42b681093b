module Mask = Ompsimd_util.Mask

type params = {
  num_teams : int;
  num_threads : int;
  teams_mode : Mode.t;
  sharing_bytes : int;
}

(* Where a lane resumes in the simd-loop machine (see Simd): named by
   the rendezvous it was last released from. *)
type phase =
  | Handoff  (* a worker about to arrive at the hand-off *)
  | Woken  (* a worker released from the hand-off: read the slot *)
  | Entered  (* released from a fused loop's entry *)
  | Classic  (* released from a classic loop's entry *)
  | Round  (* released from a classic round's lockstep *)
  | Posted  (* released from the group reduction's first rendezvous *)
  | Reduced  (* released from its second *)
  | Done  (* a driving lane released from the loop's exit *)

(* The shape of a lane's current simd loop. *)
type loop_kind =
  | Simd_loop
  | Reduce  (* a reducing loop: fold into [lane_acc], then the group combines *)

(* A (warp, mask) -> barrier table behind two last-key memos, per tid
   and per warp: the lanes of a warp share each (warp, mask) barrier, so
   after the first lane's table lookup its siblings resolve without
   touching the Hashtbl at all, and a lane re-syncing on the same mask
   (every simd round) skips even the warp memo. *)
type barrier_memo = {
  table : (int, Gpusim.Barrier.t) Hashtbl.t;
  tid_key : int array;
  tid_bar : Gpusim.Barrier.t array;  (* read only under a matching key *)
  warp_key : int array;
  warp_bar : Gpusim.Barrier.t array;
}

type ctx = { th : Gpusim.Thread.t; team : t }
and microtask = ctx -> Payload.t -> unit
and simd_body = ctx -> int -> Payload.t -> unit

and parallel_task = {
  mutable fn : microtask;
  mutable fn_id : int;
  mutable payload : Payload.t;
  mutable task_mode : Mode.t;
  mutable group_size : int;
  mutable payload_location : Sharing.location;
}

and simd_reducer = ctx -> int -> Payload.t -> float

and simd_slot = {
  mutable simd_loop : loop_kind option;  (* [None]: termination *)
  mutable simd_fn : simd_body;
  mutable simd_red_fn : simd_reducer;
  mutable simd_red_op : Redop.t;
  mutable simd_fn_id : int;
  mutable simd_trip : int;
  mutable simd_args : Payload.t;
  mutable simd_args_location : Sharing.location;
}

(* Per-tid state of the simd-loop machine (see Simd): a lane between
   two rendezvous is a phase plus these slots, so a stepped worker runs
   as engine steps and a driving lane parks its fiber and steps on.
   Empty until the team's first multi-lane simd loop (see
   [init_steps]); the step closures read their tid's slots at call
   time, so neither a round nor a region entry allocates. *)
and steps = {
  mutable phase : phase array;
  mutable kind : loop_kind array;
  mutable trip : int array;
  mutable round : int array;
  mutable seq : int array;
  mutable actor : int array;
  mutable simt : float array;
  mutable fns : simd_body array;
  mutable reds : simd_reducer array;
  mutable ops : Redop.t array;
  mutable args : Payload.t array;
  mutable step : Gpusim.Thread.t -> bool;
  mutable last_step : Gpusim.Thread.t -> bool;
  mutable outer : int array;
  mutable home : phase array;
}

and t = {
  cfg : Gpusim.Config.t;
  mutable block_id : int;
  params : params;
  num_workers : int;
  main_tid : int option;
  team_barrier : Gpusim.Barrier.t;
  warp_barriers : barrier_memo;
  region_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
  lockstep_barriers : barrier_memo;
  sharing : Sharing.t;
  simd_slots : simd_slot array;
  mutable parallel_signal : parallel_task option;
  mutable active_geometry : Simd_group.t option;
  mutable active_task : parallel_task option;
  mutable dispatch_table_size : int;
  red_scratch : float array;
  mutable dyn_counter : int;
  mutable dyn_active : int;
  in_region : bool array;
  (* Per-group fused-loop sequence numbers (see Simd): the lane that
     drives a group's rounds bumps its count, so the lanes it drove know
     their rounds already ran when they wake. *)
  fused_seq : int array;
  (* Per-tid running value of a reducing simd loop: its body folds each
     iteration into the lane's cell, which a float array keeps unboxed. *)
  lane_acc : float array;
  geometries : Simd_group.t option array;
  sm : steps;
  (* Per-tid lane contexts and region-task cells, built on a lane's
     first use and reused in place by every later block of the team
     (see [lane_ctx], Parallel): entering a region or a thread's body
     allocates nothing. *)
  mutable ctxs : ctx array;
  tasks : parallel_task option array;
}

let block_threads ~(cfg : Gpusim.Config.t) params =
  match params.teams_mode with
  | Mode.Spmd -> params.num_threads
  | Mode.Generic -> params.num_threads + cfg.Gpusim.Config.warp_size

(* The launch-geometry rule, stated once: callers that must know up
   front whether a device can run these params (the clause check, the
   serve fleet) ask here, and [create] enforces the same answer. *)
let check_params ~(cfg : Gpusim.Config.t) params =
  let ws = cfg.Gpusim.Config.warp_size in
  if params.num_threads <= 0 || params.num_threads mod ws <> 0 then
    Error
      (Printf.sprintf
         "num_threads %d is not a positive multiple of the warp size %d"
         params.num_threads ws)
  else
    let block = block_threads ~cfg params in
    if block > cfg.Gpusim.Config.max_threads_per_block then
      Error
        (Printf.sprintf "a block of %d threads exceeds the device limit %d" block
           cfg.Gpusim.Config.max_threads_per_block)
    else Ok ()

(* The sharing-fits rule, stated once: the sharing space is the first
   and only reservation on a block's fresh shared-memory arena, so a
   reservation of [bytes] fits when it is positive and within the
   block's shared memory.  Separate from [check_params] because the
   offload path shrinks a clause's reservation to the kernel's
   footprint at launch; [create] enforces both. *)
let check_sharing ~(cfg : Gpusim.Config.t) ~bytes =
  let smem = cfg.Gpusim.Config.shared_mem_per_block in
  if bytes <= 0 || bytes > smem then
    Error
      (Printf.sprintf
         "a %d B sharing space does not fit the %d B of shared memory per block"
         bytes smem)
  else Ok ()

(* Display names of the runtime's barriers, formatted only when a stall
   report or the sanitizer reads them (see Barrier.create_named). *)
let team_name block_id _ = Printf.sprintf "team%d" block_id
let region_name block_id expected = Printf.sprintf "region%d/%d" block_id expected
let warp_name warp mask = Printf.sprintf "warp%d:%08x" warp mask
let lockstep_name warp mask = Printf.sprintf "lockstep%d:%08x" warp mask

let no_body : simd_body = fun _ _ _ -> ()
let no_reducer : simd_reducer = fun _ _ _ -> 0.0

let reset_slot s =
  s.simd_loop <- None;
  s.simd_fn <- no_body;
  s.simd_red_fn <- no_reducer;
  s.simd_red_op <- Redop.sum;
  s.simd_fn_id <- -1;
  s.simd_trip <- 0;
  s.simd_args <- Payload.empty;
  s.simd_args_location <- Sharing.none

(* The memo slots hold barriers directly, [min_int] keys marking the
   empty ones: an option would be a fresh allocation every time a lane
   switches masks. *)
let barrier_memo ~total ~ws =
  let warps = (total + ws - 1) / ws in
  let empty = Gpusim.Barrier.create ~name:"memo.empty" ~expected:1 ~cost:0.0 () in
  {
    table = Hashtbl.create 16;
    tid_key = Array.make total min_int;
    tid_bar = Array.make total empty;
    warp_key = Array.make warps min_int;
    warp_bar = Array.make warps empty;
  }

let create ~cfg ~arena ~params ~block_id =
  let ws = cfg.Gpusim.Config.warp_size in
  (match
     Result.bind (check_params ~cfg params) (fun () ->
         check_sharing ~cfg ~bytes:params.sharing_bytes)
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Team.create: " ^ msg));
  let total = block_threads ~cfg params in
  let num_workers = params.num_threads in
  let main_tid =
    match params.teams_mode with
    | Mode.Generic -> Some num_workers
    | Mode.Spmd -> None
  in
  let expected = num_workers + (match main_tid with Some _ -> 1 | None -> 0) in
  let fresh_slot () =
    {
      simd_loop = None;
      simd_fn = no_body;
      simd_red_fn = no_reducer;
      simd_red_op = Redop.sum;
      simd_fn_id = -1;
      simd_trip = 0;
      simd_args = Payload.empty;
      simd_args_location = Sharing.none;
    }
  in
  {
    cfg;
    block_id;
    params;
    num_workers;
    main_tid;
    team_barrier =
      Gpusim.Barrier.create_named ~namer:team_name ~a:block_id ~b:0 ~expected
        ~cost:cfg.Gpusim.Config.cost.Gpusim.Config.block_barrier ();
    warp_barriers = barrier_memo ~total ~ws;
    region_barriers = Hashtbl.create 4;
    lockstep_barriers = barrier_memo ~total ~ws;
    sharing = Sharing.create ~arena ~bytes:params.sharing_bytes;
    simd_slots = Array.init num_workers (fun _ -> fresh_slot ());
    parallel_signal = None;
    active_geometry = None;
    active_task = None;
    dispatch_table_size = 0;
    red_scratch = Array.make num_workers 0.0;
    dyn_counter = 0;
    dyn_active = 0;
    in_region = Array.make num_workers false;
    fused_seq = Array.make num_workers 0;
    lane_acc = Array.make total 0.0;
    geometries = Array.make (ws + 1) None;
    ctxs = [||];
    tasks = Array.make total None;
    sm =
      {
        phase = [||];
        kind = [||];
        trip = [||];
        round = [||];
        seq = [||];
        actor = [||];
        simt = [||];
        fns = [||];
        reds = [||];
        ops = [||];
        args = [||];
        step = Gpusim.Thread.fiber;
        last_step = Gpusim.Thread.fiber;
        outer = [||];
        home = [||];
      };
  }

(* Restore a completed block's team to what [create] builds for
   [block_id] on [arena], keeping what is a pure function of the launch:
   the barrier tables (warp and lockstep barriers are named by warp and
   mask, region and team barriers are renamed to the new block) with
   their memos, the geometry cache and the step closures.  Everything a
   block reads or accumulates is reset, and the sharing space is
   reserved again on the new arena. *)
let reset t ~arena ~block_id =
  t.block_id <- block_id;
  Gpusim.Barrier.rename t.team_barrier block_id;
  Hashtbl.iter (fun _ b -> Gpusim.Barrier.rename b block_id) t.region_barriers;
  Sharing.reset t.sharing ~arena;
  Array.iter reset_slot t.simd_slots;
  t.parallel_signal <- None;
  t.active_geometry <- None;
  t.active_task <- None;
  t.dispatch_table_size <- 0;
  Array.fill t.red_scratch 0 (Array.length t.red_scratch) 0.0;
  t.dyn_counter <- 0;
  t.dyn_active <- 0;
  Array.fill t.in_region 0 (Array.length t.in_region) false;
  Array.fill t.fused_seq 0 (Array.length t.fused_seq) 0;
  Array.fill t.lane_acc 0 (Array.length t.lane_acc) 0.0;
  let sm = t.sm in
  let n = Array.length sm.phase in
  Array.fill sm.phase 0 n Handoff;
  Array.fill sm.fns 0 n no_body;
  Array.fill sm.reds 0 n no_reducer;
  Array.fill sm.ops 0 n Redop.sum;
  Array.fill sm.args 0 n Payload.empty

(* Size the step state for the team's workers, once, on its first
   multi-lane simd loop. *)
let init_steps t =
  let sm = t.sm in
  let n = t.num_workers in
  sm.phase <- Array.make n Handoff;
  sm.kind <- Array.make n Simd_loop;
  sm.trip <- Array.make n 0;
  sm.round <- Array.make n 0;
  sm.seq <- Array.make n 0;
  sm.actor <- Array.make n 0;
  sm.outer <- Array.make n 0;
  sm.home <- Array.make n Handoff;
  sm.simt <- Array.make n 1.0;
  sm.fns <- Array.make n no_body;
  sm.reds <- Array.make n no_reducer;
  sm.ops <- Array.make n Redop.sum;
  sm.args <- Array.make n Payload.empty

(* Make [ctx] its lane's context (a caller may build its own). *)
let set_lane_ctx t ctx =
  if Array.length t.ctxs = 0 then
    t.ctxs <- Array.make (block_threads ~cfg:t.cfg t.params) ctx;
  t.ctxs.(ctx.th.Gpusim.Thread.tid) <- ctx

(* [th]'s context on this team: the cached one while the lane runs on
   the same thread (a recycled block frame keeps its threads), a fresh
   one stored for next time otherwise. *)
let lane_ctx t (th : Gpusim.Thread.t) =
  let tid = th.Gpusim.Thread.tid in
  if Array.length t.ctxs > 0 && t.ctxs.(tid).th == th then t.ctxs.(tid)
  else begin
    let c = { th; team = t } in
    set_lane_ctx t c;
    c
  end

(* The region geometry for [group_size], built once per team. *)
let geometry_for t ~group_size =
  match t.geometries.(group_size) with
  | Some _ as g -> g
  | None ->
      let g =
        Some
          (Simd_group.make ~warp_size:t.cfg.Gpusim.Config.warp_size
             ~num_workers:t.num_workers ~group_size)
      in
      t.geometries.(group_size) <- g;
      g

type role = Team_main | Worker | Inactive_main_lane

let role t ~tid =
  if tid < t.num_workers then Worker
  else
    match t.main_tid with
    | Some m when tid = m -> Team_main
    | Some _ | None -> Inactive_main_lane

let geometry t =
  match t.active_geometry with
  | Some g -> g
  | None -> failwith "Team.geometry: no parallel region is active"

let slot t ~group =
  if group < 0 || group >= Array.length t.simd_slots then
    invalid_arg "Team.slot: group out of range";
  t.simd_slots.(group)

(* Sanitizer taps: every rendezvous the runtime performs is reported to
   Ompsan *before* the engine wait, with the participant set the barrier
   expects, so the shadow epochs advance exactly where real
   synchronization happens.  One load-and-branch when disabled. *)
let san_warp_arrive (th : Gpusim.Thread.t) ~mask bar =
  if Gpusim.Thread.sanitizing th then begin
    let ws = th.Gpusim.Thread.cfg.Gpusim.Config.warp_size in
    let warp = th.Gpusim.Thread.warp.Gpusim.Thread.warp_index in
    let participants = List.map (fun l -> (warp * ws) + l) (Mask.to_list mask) in
    Gpusim.Ompsan.barrier_arrive th ~block_scope:false ~mask
      ~bar_id:(Gpusim.Barrier.id bar)
      ~bar_name:(Gpusim.Barrier.name bar)
      ~expected:(Gpusim.Barrier.expected bar)
      ~participants
  end

(* Callers check [sanitizing] first, so an unsanitized arrival builds
   no participant list. *)
let san_block_arrive (th : Gpusim.Thread.t) ~participants bar =
  Gpusim.Ompsan.barrier_arrive th ~block_scope:true ~mask:0
    ~bar_id:(Gpusim.Barrier.id bar)
    ~bar_name:(Gpusim.Barrier.name bar)
    ~expected:(Gpusim.Barrier.expected bar)
    ~participants

(* The barrier [m] holds for [th]'s (warp, mask) pair, made by [make]
   on first use. *)
let memo_barrier m t (th : Gpusim.Thread.t) ~mask
    (make : t -> warp:int -> mask:int -> Gpusim.Barrier.t) =
  let tid = th.Gpusim.Thread.tid in
  let warp = th.Gpusim.Thread.warp.Gpusim.Thread.warp_index in
  let key = (warp * 0x1_0000_0000) lor mask in
  if m.tid_key.(tid) = key then m.tid_bar.(tid)
  else begin
    let b =
      if m.warp_key.(warp) = key then m.warp_bar.(warp)
      else begin
        let b =
          match Hashtbl.find_opt m.table key with
          | Some b -> b
          | None ->
              let b = make t ~warp ~mask in
              Hashtbl.add m.table key b;
              b
        in
        m.warp_key.(warp) <- key;
        m.warp_bar.(warp) <- b;
        b
      end
    in
    m.tid_key.(tid) <- key;
    m.tid_bar.(tid) <- b;
    b
  end

let make_warp_barrier t ~warp ~mask =
  let participants = Mask.popcount mask in
  Gpusim.Barrier.create_named ~namer:warp_name ~a:warp ~b:mask
    ~spin:(Gpusim.Config.warp_barrier_spins t.cfg)
    ~expected:participants
    ~cost:(Gpusim.Config.warp_barrier_cost t.cfg ~participants)
    ()

let make_lockstep_barrier _ ~warp ~mask =
  Gpusim.Barrier.create_named ~namer:lockstep_name ~a:warp ~b:mask
    ~expected:(Mask.popcount mask) ~cost:0.0 ()

let warp_barrier_for t th ~mask =
  memo_barrier t.warp_barriers t th ~mask make_warp_barrier

let lockstep_barrier t th ~mask =
  memo_barrier t.lockstep_barriers t th ~mask make_lockstep_barrier

(* Each rendezvous below is written once, as its arrival (see
   Gpusim.Engine.arrive), which the simd-loop machine's lanes use
   directly; a fiber's wait is that arrival plus the park. *)
let lockstep_arrive ctx =
  let g = geometry ctx.team in
  Simd_group.get_simd_group_size g <= 1
  ||
  let mask = Simd_group.simdmask g ~tid:ctx.th.Gpusim.Thread.tid in
  let bar = lockstep_barrier ctx.team ctx.th ~mask in
  san_warp_arrive ctx.th ~mask bar;
  Gpusim.Engine.arrive bar ctx.th

(* Hardware masked sync, or its software emulation (spin on shared-memory
   flags) — either way a real blocking rendezvous; they differ only in
   cost shape (see Config.warp_barrier_cost).  Without an explicit
   wavefront barrier (§5.4.1) AMD wavefronts are still implicitly
   lockstep, which is all the SPMD path needs; the generic state
   machine — which needs a *blocking* rendezvous — was already degraded
   to singleton groups by __parallel. *)
let sync_warp_arrive ctx =
  match ctx.team.cfg.Gpusim.Config.barrier_impl with
  | Gpusim.Config.No_barrier -> lockstep_arrive ctx
  | Gpusim.Config.Hw_barrier | Gpusim.Config.Sw_barrier ->
      let g = geometry ctx.team in
      Simd_group.get_simd_group_size g <= 1
      ||
      let th = ctx.th in
      let mask = Simd_group.simdmask g ~tid:th.Gpusim.Thread.tid in
      let bar = warp_barrier_for ctx.team th ~mask in
      th.Gpusim.Thread.counters.Gpusim.Counters.warp_barriers <-
        th.Gpusim.Thread.counters.Gpusim.Counters.warp_barriers + 1;
      san_warp_arrive th ~mask bar;
      Gpusim.Engine.arrive bar th

let sync_warp ctx = if not (sync_warp_arrive ctx) then Gpusim.Engine.park ctx.th

let team_participants t =
  let workers = List.init t.num_workers Fun.id in
  match t.main_tid with Some m -> workers @ [ m ] | None -> workers

(* the team barrier's arrival preamble: counter and sanitizer tap *)
let team_bar ctx =
  let th = ctx.th in
  th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers <-
    th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers + 1;
  let bar = ctx.team.team_barrier in
  if Gpusim.Thread.sanitizing th then
    san_block_arrive th ~participants:(team_participants ctx.team) bar;
  bar

let team_barrier_wait ctx = Gpusim.Engine.barrier_wait (team_bar ctx) ctx.th
let team_barrier_last ctx = Gpusim.Engine.arrive_last (team_bar ctx) ctx.th

let executing_threads t =
  match t.active_task with
  | None -> failwith "Team.executing_threads: no parallel region is active"
  | Some task -> (
      match task.task_mode with
      | Mode.Spmd -> t.num_workers
      | Mode.Generic -> (geometry t).Simd_group.num_groups)

let region_participants t =
  match (Option.get t.active_task).task_mode with
  | Mode.Spmd -> List.init t.num_workers Fun.id
  | Mode.Generic ->
      let g = geometry t in
      List.init g.Simd_group.num_groups (fun group ->
          Simd_group.leader_tid g ~group)

let region_barrier_wait ctx =
  let expected = executing_threads ctx.team in
  if expected > 1 then begin
    let bar =
      match Hashtbl.find_opt ctx.team.region_barriers expected with
      | Some b -> b
      | None ->
          let b =
            Gpusim.Barrier.create_named ~namer:region_name
              ~a:ctx.team.block_id ~b:expected ~expected
              ~cost:ctx.team.cfg.Gpusim.Config.cost.Gpusim.Config.block_barrier
              ()
          in
          Hashtbl.add ctx.team.region_barriers expected b;
          b
    in
    ctx.th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers <-
      ctx.th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers + 1;
    if Gpusim.Thread.sanitizing ctx.th then
      san_block_arrive ctx.th ~participants:(region_participants ctx.team) bar;
    Gpusim.Engine.barrier_wait bar ctx.th
  end

let charge ctx cost n =
  if n < 0 then invalid_arg "Team.charge: negative count";
  Gpusim.Thread.tick ctx.th (float_of_int n *. cost)

let charge_flops ctx n =
  charge ctx ctx.team.cfg.Gpusim.Config.cost.Gpusim.Config.flop n

let charge_alu ctx n =
  charge ctx ctx.team.cfg.Gpusim.Config.cost.Gpusim.Config.alu n

let charge_special ctx n =
  charge ctx ctx.team.cfg.Gpusim.Config.cost.Gpusim.Config.special n

(* Charge-only half of [invoke_microtask], so hot callers can charge the
   dispatch and then make a direct call instead of threading a thunk. *)
let charge_microtask ctx ~fn_id =
  let cfg = ctx.team.cfg in
  let cost = cfg.Gpusim.Config.cost in
  let c =
    if fn_id >= 0 && fn_id < ctx.team.dispatch_table_size then
      (* if-cascade: one compare per entry scanned, then a direct call *)
      (float_of_int (fn_id + 1) *. cost.Gpusim.Config.icmp_cascade)
      +. cost.Gpusim.Config.call
    else cost.Gpusim.Config.indirect_call
  in
  Gpusim.Thread.tick ctx.th c;
  ctx.th.Gpusim.Thread.counters.Gpusim.Counters.calls <-
    ctx.th.Gpusim.Thread.counters.Gpusim.Counters.calls + 1

let invoke_microtask ctx ~fn_id run =
  charge_microtask ctx ~fn_id;
  run ()
