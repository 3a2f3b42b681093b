module Mask = Ompsimd_util.Mask

type params = {
  num_teams : int;
  num_threads : int;
  teams_mode : Mode.t;
  sharing_bytes : int;
}

let default_params =
  {
    num_teams = 1;
    num_threads = 32;
    teams_mode = Mode.Spmd;
    sharing_bytes = Sharing.default_bytes;
  }

(* Where a stepped SIMD worker resumes (see Simd): named by the
   rendezvous it was last released from. *)
type phase =
  | Handoff  (* about to arrive at the hand-off *)
  | Woken  (* released from the hand-off: read the slot *)
  | Entered  (* released from a fused loop's entry *)
  | Classic  (* released from a classic loop's entry *)
  | Round  (* released from a classic round's lockstep *)
  | Posted  (* released from the group reduction's first rendezvous *)
  | Reduced  (* released from its second *)

(* The loop shape of a worker's current round. *)
type loop_kind =
  | Simd_loop
  | Sum_fold  (* a sum reduction, folded in a register *)
  | Combine  (* another monoid, combined per iteration *)

type ctx = { th : Gpusim.Thread.t; team : t }
and microtask = ctx -> Payload.t -> unit
and simd_body = ctx -> int -> Payload.t -> unit

and parallel_task = {
  fn : microtask;
  fn_id : int;
  payload : Payload.t;
  task_mode : Mode.t;
  group_size : int;
  mutable payload_location : Sharing.location;
}

and simd_reducer = ctx -> int -> Payload.t -> float

and simd_slot = {
  mutable simd_fn : simd_body option;
  mutable simd_red_fn : simd_reducer option;
  mutable simd_red_op : Redop.t;
  mutable simd_fn_id : int;
  mutable simd_trip : int;
  mutable simd_args : Payload.t;
  mutable simd_args_location : Sharing.location;
}

(* Per-tid state of the stepped SIMD state machine (see Simd): a worker
   between two rendezvous is a phase plus these slots, so the
   engine can run it as a step instead of resuming its fiber.  Empty
   until the team's first generic region (see [init_steps]); the
   closures read their tid's slots at call time, so neither a round nor
   a region entry allocates. *)
and steps = {
  mutable ctxs : ctx array;
  mutable phase : phase array;
  mutable kind : loop_kind array;
  mutable trip : int array;
  mutable round : int array;
  mutable seq : int array;
  mutable actor : int array;
  mutable simt : float array;
  mutable acc : float array;
  mutable fns : simd_body array;
  mutable reds : simd_reducer array;
  mutable ops : Redop.t array;
  mutable args : Payload.t array;
  mutable step : Gpusim.Thread.t -> bool;
  mutable bodies : (int -> unit) array;
  mutable folds : (int -> float) array;
  mutable combs : (int -> unit) array;
}

and t = {
  cfg : Gpusim.Config.t;
  mutable block_id : int;
  params : params;
  num_workers : int;
  main_tid : int option;
  team_barrier : Gpusim.Barrier.t;
  warp_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
  region_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
  lockstep_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
  (* per-tid last-key memos over the two tables above, backed by a
     per-warp layer: the 32 lanes of a warp share each (warp, mask)
     barrier, so after the first lane's table lookup its siblings
     resolve without touching the Hashtbl at all *)
  wb_memo_key : int array;
  wb_memo_bar : Gpusim.Barrier.t option array;
  ls_memo_key : int array;
  ls_memo_bar : Gpusim.Barrier.t option array;
  wb_warp_key : int array;
  wb_warp_bar : Gpusim.Barrier.t option array;
  ls_warp_key : int array;
  ls_warp_bar : Gpusim.Barrier.t option array;
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
  (* Fused-lockstep scratch (see Workshare.simd_loop): each lane deposits
     its thread handle, loop body and trip count before the entry
     rendezvous; the lane the engine resumes first drives every lane's
     rounds directly and bumps the group's sequence number so the parked
     lanes skip execution when they wake.  [fused_ths] is sized lazily on
     first use (Barrier-style) because a dummy Thread.t is not
     constructible here. *)
  mutable fused_ths : Gpusim.Thread.t array;
  fused_fns : (int -> unit) array;
  fused_reds : (int -> float) array;
  fused_acc : float array;
  fused_trip : int array;
  fused_actor : int array;
  fused_seq : int array;
  geometries : Simd_group.t option array;
  sm : steps;
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

(* Display names of the runtime's barriers, formatted only when a stall
   report or the sanitizer reads them (see Barrier.create_named). *)
let team_name block_id _ = Printf.sprintf "team%d" block_id
let region_name block_id expected = Printf.sprintf "region%d/%d" block_id expected
let warp_name warp mask = Printf.sprintf "warp%d:%08x" warp mask
let lockstep_name warp mask = Printf.sprintf "lockstep%d:%08x" warp mask

let no_body : simd_body = fun _ _ _ -> ()
let no_reducer : simd_reducer = fun _ _ _ -> 0.0

let reset_slot s =
  s.simd_fn <- None;
  s.simd_red_fn <- None;
  s.simd_red_op <- Redop.sum;
  s.simd_fn_id <- -1;
  s.simd_trip <- 0;
  s.simd_args <- Payload.empty;
  s.simd_args_location <- Sharing.none

let create ~cfg ~arena ~params ~block_id =
  let ws = cfg.Gpusim.Config.warp_size in
  (match check_params ~cfg params with
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
      simd_fn = None;
      simd_red_fn = None;
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
    warp_barriers = Hashtbl.create 16;
    region_barriers = Hashtbl.create 4;
    lockstep_barriers = Hashtbl.create 16;
    wb_memo_key = Array.make total min_int;
    wb_memo_bar = Array.make total None;
    ls_memo_key = Array.make total min_int;
    ls_memo_bar = Array.make total None;
    wb_warp_key = Array.make ((total + ws - 1) / ws) min_int;
    wb_warp_bar = Array.make ((total + ws - 1) / ws) None;
    ls_warp_key = Array.make ((total + ws - 1) / ws) min_int;
    ls_warp_bar = Array.make ((total + ws - 1) / ws) None;
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
    fused_ths = [||];
    fused_fns = Array.make total (fun (_ : int) -> ());
    fused_reds = Array.make total (fun (_ : int) -> 0.0);
    fused_acc = Array.make total 0.0;
    fused_trip = Array.make total 0;
    fused_actor = Array.make total 0;
    fused_seq = Array.make num_workers 0;
    geometries = Array.make (ws + 1) None;
    sm =
      {
        ctxs = [||];
        phase = [||];
        kind = [||];
        trip = [||];
        round = [||];
        seq = [||];
        actor = [||];
        simt = [||];
        acc = [||];
        fns = [||];
        reds = [||];
        ops = [||];
        args = [||];
        step = Gpusim.Thread.fiber;
        bodies = [||];
        folds = [||];
        combs = [||];
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
  let total = Array.length t.fused_trip in
  Array.fill t.fused_fns 0 total (fun (_ : int) -> ());
  Array.fill t.fused_reds 0 total (fun (_ : int) -> 0.0);
  Array.fill t.fused_acc 0 total 0.0;
  Array.fill t.fused_trip 0 total 0;
  Array.fill t.fused_actor 0 total 0;
  Array.fill t.fused_seq 0 (Array.length t.fused_seq) 0;
  let sm = t.sm in
  let n = Array.length sm.phase in
  Array.fill sm.phase 0 n Handoff;
  Array.fill sm.fns 0 n no_body;
  Array.fill sm.reds 0 n no_reducer;
  Array.fill sm.ops 0 n Redop.sum;
  Array.fill sm.args 0 n Payload.empty

(* Size the step state for the team's workers, on its first generic
   region; [ctx] fills the context slots until each worker stores its
   own. *)
let init_steps t ctx =
  let sm = t.sm in
  if Array.length sm.phase = 0 then begin
    let n = t.num_workers in
    sm.ctxs <- Array.make n ctx;
    sm.phase <- Array.make n Handoff;
    sm.kind <- Array.make n Simd_loop;
    sm.trip <- Array.make n 0;
    sm.round <- Array.make n 0;
    sm.seq <- Array.make n 0;
    sm.actor <- Array.make n 0;
    sm.simt <- Array.make n 1.0;
    sm.acc <- Array.make n 0.0;
    sm.fns <- Array.make n no_body;
    sm.reds <- Array.make n no_reducer;
    sm.ops <- Array.make n Redop.sum;
    sm.args <- Array.make n Payload.empty
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

let san_block_arrive (th : Gpusim.Thread.t) ~participants bar =
  if Gpusim.Thread.sanitizing th then
    Gpusim.Ompsan.barrier_arrive th ~block_scope:true ~mask:0
      ~bar_id:(Gpusim.Barrier.id bar)
      ~bar_name:(Gpusim.Barrier.name bar)
      ~expected:(Gpusim.Barrier.expected bar)
      ~participants:(participants ())

let warp_barrier_for t (th : Gpusim.Thread.t) ~mask =
  let tid = th.Gpusim.Thread.tid in
  let warp = th.Gpusim.Thread.warp.Gpusim.Thread.warp_index in
  let key = (warp * 0x1_0000_0000) lor mask in
  match t.wb_memo_bar.(tid) with
  | Some b when t.wb_memo_key.(tid) = key -> b
  | _ ->
      let b =
        match t.wb_warp_bar.(warp) with
        | Some b when t.wb_warp_key.(warp) = key -> b
        | _ ->
            let b =
              match Hashtbl.find_opt t.warp_barriers key with
              | Some b -> b
              | None ->
                  let b =
                    let participants = Mask.popcount mask in
                    Gpusim.Barrier.create_named ~namer:warp_name ~a:warp
                      ~b:mask
                      ~spin:(Gpusim.Config.warp_barrier_spins t.cfg)
                      ~expected:participants
                      ~cost:
                        (Gpusim.Config.warp_barrier_cost t.cfg ~participants)
                      ()
                  in
                  Hashtbl.add t.warp_barriers key b;
                  b
            in
            t.wb_warp_key.(warp) <- key;
            t.wb_warp_bar.(warp) <- Some b;
            b
      in
      t.wb_memo_key.(tid) <- key;
      t.wb_memo_bar.(tid) <- Some b;
      b

let lockstep_barrier t (th : Gpusim.Thread.t) ~mask =
  let tid = th.Gpusim.Thread.tid in
  let warp = th.Gpusim.Thread.warp.Gpusim.Thread.warp_index in
  let key = (warp * 0x1_0000_0000) lor mask in
  match t.ls_memo_bar.(tid) with
  | Some b when t.ls_memo_key.(tid) = key -> b
  | _ ->
      let b =
        match t.ls_warp_bar.(warp) with
        | Some b when t.ls_warp_key.(warp) = key -> b
        | _ ->
            let b =
              match Hashtbl.find_opt t.lockstep_barriers key with
              | Some b -> b
              | None ->
                  let b =
                    Gpusim.Barrier.create_named ~namer:lockstep_name ~a:warp
                      ~b:mask ~expected:(Ompsimd_util.Mask.popcount mask)
                      ~cost:0.0 ()
                  in
                  Hashtbl.add t.lockstep_barriers key b;
                  b
            in
            t.ls_warp_key.(warp) <- key;
            t.ls_warp_bar.(warp) <- Some b;
            b
      in
      t.ls_memo_key.(tid) <- key;
      t.ls_memo_bar.(tid) <- Some b;
      b

(* Each rendezvous below comes in two shapes over one preamble: the
   fiber wait, and the stepped arrival ([*_arrive], see
   Gpusim.Engine.arrive) that the SIMD state machine's steps use. *)
let lockstep_bar ctx g =
  let mask = Simd_group.simdmask g ~tid:ctx.th.Gpusim.Thread.tid in
  let bar = lockstep_barrier ctx.team ctx.th ~mask in
  san_warp_arrive ctx.th ~mask bar;
  bar

let lockstep_align ctx =
  let g = geometry ctx.team in
  if Simd_group.get_simd_group_size g > 1 then
    Gpusim.Engine.barrier_wait (lockstep_bar ctx g) ctx.th

let lockstep_arrive ctx =
  let g = geometry ctx.team in
  Simd_group.get_simd_group_size g <= 1
  || Gpusim.Engine.arrive (lockstep_bar ctx g) ctx.th

(* Hardware masked sync, or its software emulation (spin on shared-memory
   flags) — either way a real blocking rendezvous; they differ only in
   cost shape (see Config.warp_barrier_cost). *)
let warp_bar ctx g =
  let mask = Simd_group.simdmask g ~tid:ctx.th.Gpusim.Thread.tid in
  let bar = warp_barrier_for ctx.team ctx.th ~mask in
  ctx.th.Gpusim.Thread.counters.Gpusim.Counters.warp_barriers <-
    ctx.th.Gpusim.Thread.counters.Gpusim.Counters.warp_barriers + 1;
  san_warp_arrive ctx.th ~mask bar;
  bar

let sync_warp ctx =
  let g = geometry ctx.team in
  if Simd_group.get_simd_group_size g > 1 then
    match ctx.team.cfg.Gpusim.Config.barrier_impl with
    | Gpusim.Config.Hw_barrier | Gpusim.Config.Sw_barrier ->
        Gpusim.Engine.barrier_wait (warp_bar ctx g) ctx.th
    | Gpusim.Config.No_barrier ->
        (* No explicit wavefront barrier (§5.4.1), but AMD wavefronts are
           implicitly lockstep, which is all the SPMD path needs; the
           generic state machine — which needs a *blocking* rendezvous —
           was already degraded to singleton groups by __parallel. *)
        lockstep_align ctx

let sync_warp_arrive ctx =
  let g = geometry ctx.team in
  Simd_group.get_simd_group_size g <= 1
  ||
  match ctx.team.cfg.Gpusim.Config.barrier_impl with
  | Gpusim.Config.Hw_barrier | Gpusim.Config.Sw_barrier ->
      Gpusim.Engine.arrive (warp_bar ctx g) ctx.th
  | Gpusim.Config.No_barrier -> lockstep_arrive ctx

let team_barrier_wait ctx =
  ctx.th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers <-
    ctx.th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers + 1;
  san_block_arrive ctx.th
    ~participants:(fun () ->
      let workers = List.init ctx.team.num_workers Fun.id in
      match ctx.team.main_tid with
      | Some m -> workers @ [ m ]
      | None -> workers)
    ctx.team.team_barrier;
  Gpusim.Engine.barrier_wait ctx.team.team_barrier ctx.th

let executing_threads t =
  match t.active_task with
  | None -> failwith "Team.executing_threads: no parallel region is active"
  | Some task -> (
      match task.task_mode with
      | Mode.Spmd -> t.num_workers
      | Mode.Generic -> (geometry t).Simd_group.num_groups)

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
    san_block_arrive ctx.th
      ~participants:(fun () ->
        match (Option.get ctx.team.active_task).task_mode with
        | Mode.Spmd -> List.init ctx.team.num_workers Fun.id
        | Mode.Generic ->
            let g = geometry ctx.team in
            List.init g.Simd_group.num_groups (fun group ->
                Simd_group.leader_tid g ~group))
      bar;
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
