open Effect
open Effect.Deep

exception Deadlock of string

type block_result = {
  block_id : int;
  num_threads : int;
  critical_cycles : float;
  busy_cycles : float;
  active_lanes : int;  (** lanes that did any work *)
  counters : Counters.t;
  parks : int;
}

(* Structured companion to the Deadlock message, stashed domain-locally
   just before the raise so Device can build a failure report without
   parsing the string.  Stuck barriers are listed by display name (ids
   are process-unique atomics whose order depends on pool interleaving;
   names and waiter counts are deterministic), sorted for a canonical
   rendering. *)
type stuck = { stuck_name : string; stuck_waiting : int; stuck_expected : int }

type stall_info = {
  stall_block : int;
  stall_completed : int;
  stall_threads : int;
  stall_cycle : float;  (* max thread clock at detection *)
  stall_stuck : stuck list;
}

let stall_slot : stall_info option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_stall () =
  let slot = Domain.DLS.get stall_slot in
  let s = !slot in
  slot := None;
  s

(* A fiber parks one way: it records its failed arrival in the
   scheduler state and performs [Suspend] — a constant constructor, so
   the perform itself allocates nothing — whose handler keeps the
   continuation and makes the recorded resume hook the thread's
   [Thread.step]: [Thread.fiber] for a plain wait ([park]), or a step
   for a thread that lives on as steps ([suspend_stepped]), which the
   ring calls on reaching the thread instead of resuming it.  Released
   waiters are queued in a fixed ring of threads (capacity
   [num_threads + 1]: a thread is parked at most once) and consumed
   FIFO; a parked fiber's continuation is kept per tid in [ks], since a
   thread has at most one.  [live] lists the barriers the block parked
   on, in order of first park, for the deadlock report.

   Two kinds of waiter have no continuation at all.  A detached thread
   ([detach]) gave its fiber back and lives on as steps only.  A thread
   that finished at a barrier ([arrive_last]) has [exited] as its step:
   the release that reaches it counts it finished instead of queueing
   it.  [completed] counts finished threads: a thread body that
   returns, less one for each body that returned while still owing an
   arrival (it is counted when that arrival's barrier releases it). *)
type _ Effect.t += Suspend : unit Effect.t

type sched = {
  rths : Thread.t array;  (* released-waiter ring *)
  mutable head : int;
  mutable tail : int;
  cap : int;
  (* barriers parked on in this run, [nlive] of them, each at its
     [Barrier.live_index]; grown by doubling, kept with the frame *)
  mutable live : Barrier.t array;
  mutable nlive : int;
  (* the failed arrival [arrive] recorded for the [Suspend] or [detach]
     next, and the resume hook [Suspend] installs *)
  mutable pending_bar : Barrier.t;
  mutable pending_th : Thread.t;
  mutable pending_step : Thread.t -> bool;
  (* per-tid continuation of a parked fiber, lazily created *)
  mutable ks : (unit, unit) continuation array;
  mutable completed : int;
  mutable parks : int;
}

(* The running block's scheduler, stashed on each of its warps (see
   Thread.engine_sched): barrier arrivals are the simulator's single
   most frequent event, and the stash makes finding the scheduler a
   field load.  [run_block] sets it after building [s] and resets it on
   every exit path, so a warp never carries a stale scheduler. *)
type Thread.engine_sched += Sched of sched

(* The step of a thread that finished at a barrier it still waits on. *)
let exited (_ : Thread.t) = false

let sched_push s th =
  s.rths.(s.tail) <- th;
  let tail = s.tail + 1 in
  s.tail <- (if tail = s.cap then 0 else tail)

(* Resume order matches the historical list-based scheduler: batches are
   FIFO across releases, and within a release the most recently parked
   waiter runs first.  A waiter that finished at the barrier only
   counts: nothing of it runs again. *)
let push_release s bar =
  for i = Barrier.waiting bar - 1 downto 0 do
    let th = Barrier.waiter bar i in
    if th.Thread.step == exited then s.completed <- s.completed + 1
    else sched_push s th
  done;
  Barrier.clear bar

let sched_of (th : Thread.t) ~what =
  match th.Thread.warp.Thread.esched with
  | Sched s -> s
  | _ -> invalid_arg (what ^ ": the thread's block is not running")

(* The barrier an arrival really meets: an injected stall's victim parks
   on a private, never-completing barrier instead of arriving at [bar],
   so its mask-mates wait forever and the block surfaces as a
   (captured) deadlock. *)
let arrival_barrier bar th =
  (* Any synchronization orders the warp's outstanding atomics: contention
     is only counted between consecutive sync points.  Bumping the
     generation invalidates every per-line count in O(1). *)
  let warp = th.Thread.warp in
  warp.Thread.atomic_gen <- warp.Thread.atomic_gen + 1;
  if Thread.injecting th then
    match Fault.stall_here th ~abandoned:bar with
    | Some stalled -> stalled
    | None -> bar
  else bar

let register s bar =
  let n = s.nlive in
  if n = Array.length s.live then begin
    let bigger = Array.make (Int.max 8 (2 * n)) bar in
    Array.blit s.live 0 bigger 0 n;
    s.live <- bigger
  end;
  s.live.(n) <- bar;
  Barrier.set_live_index bar n;
  s.nlive <- n + 1

let park_arrival s bar th =
  (* the arrival already tried to complete: it cannot be the last, so it
     always parks *)
  Barrier.park bar th;
  if Barrier.live_index bar < 0 then register s bar

let keep_k s (th : Thread.t) k =
  if Array.length s.ks = 0 then s.ks <- Array.make s.cap k;
  s.ks.(th.Thread.tid) <- k;
  s.parks <- s.parks + 1

let arrive bar th =
  let s = sched_of th ~what:"Engine.arrive" in
  let bar = arrival_barrier bar th in
  if Barrier.try_complete bar th then begin
    push_release s bar;
    true
  end
  else begin
    (* a fiber only records the arrival, which its [park],
       [suspend_stepped] or [detach] parks next *)
    if th.Thread.step == Thread.fiber then begin
      s.pending_bar <- bar;
      s.pending_th <- th
    end
    else park_arrival s bar th;
    false
  end

let suspend_stepped th step =
  let s = sched_of th ~what:"Engine.suspend_stepped" in
  s.pending_step <- step;
  perform Suspend

let park th = suspend_stepped th Thread.fiber

let barrier_wait bar th = if not (arrive bar th) then park th

let detach th step =
  let s = sched_of th ~what:"Engine.detach" in
  if s.pending_th != th || th.Thread.step != Thread.fiber then
    invalid_arg "Engine.detach: no arrival of this fiber is recorded";
  park_arrival s s.pending_bar th;
  th.Thread.step <- step;
  (* the thread's body returns next, before the thread has finished *)
  s.completed <- s.completed - 1

let arrive_last bar th =
  let s = sched_of th ~what:"Engine.arrive_last" in
  let bar = arrival_barrier bar th in
  let on_fiber = th.Thread.step == Thread.fiber in
  if Barrier.try_complete bar th then begin
    push_release s bar;
    (* a fiber's thread is counted when its body returns *)
    if not on_fiber then s.completed <- s.completed + 1
  end
  else begin
    if on_fiber then s.completed <- s.completed - 1;
    th.Thread.step <- exited;
    park_arrival s bar th
  end

(* One block frame: the warps, threads and scheduler of a block shape,
   recycled across the blocks of one launch (see [frames]).  The effect
   handler is built once per frame: it reads everything per-run from the
   scheduler record. *)
type frame = {
  warps : Thread.warp_state array;
  threads : Thread.t array;
  sched : sched;
  handler : (unit, unit) handler;
}

type frames = frame Ompsimd_util.Freelist.t

let frames = Ompsimd_util.Freelist.create

let make_frame ~cfg ?trace ~launch ~block_id ~num_threads ~counters () =
  let ws = cfg.Config.warp_size in
  let num_warps = (num_threads + ws - 1) / ws in
  let warps =
    Array.init num_warps (fun w -> Thread.make_warp ~cfg ~launch ~warp_index:w)
  in
  let threads =
    Array.init num_threads (fun tid ->
        Thread.create ~cfg ~counters ?trace ~block_id ~tid ~warp:warps.(tid / ws) ())
  in
  (* [live] holds each barrier once, by its slot: two live barriers may
     share a display name (e.g. per-warp barriers created in a loop), and
     the slot keeps them apart in the deadlock report.  Entries stay
     registered after release (the slot is only reset when the run
     ends), so the deadlock formatter below must skip barriers with zero
     parked waiters to report only the actually-stuck ones. *)
  let s =
    {
      rths = Array.make (num_threads + 1) threads.(0);
      head = 0;
      tail = 0;
      cap = num_threads + 1;
      live = [||];
      nlive = 0;
      pending_bar = Barrier.create ~name:"engine.none" ~expected:1 ~cost:0.0 ();
      pending_th = threads.(0);
      pending_step = Thread.fiber;
      ks = [||];
      completed = 0;
      parks = 0;
    }
  in
  (* The Suspend handler is the single hottest closure in the simulator
     (every fiber park goes through it); allocating it — and the [Some]
     around it — once per frame instead of once per perform keeps the
     park path allocation-free outside the continuation itself. *)
  let on_suspend : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        let th = s.pending_th in
        keep_k s th k;
        park_arrival s s.pending_bar th;
        th.Thread.step <- s.pending_step)
  in
  let handler =
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with Suspend -> on_suspend | _ -> None);
    }
  in
  { warps; threads; sched = s; handler }

(* Restore a recycled frame to what [make_frame] builds for [block_id]:
   only a frame whose block completed is recycled, so its ring is empty,
   every barrier it parked on has been unregistered and no thread is
   stepped; [ks] holds only continuations already resumed, each
   overwritten before it is read again. *)
let reset_frame f ~block_id ~counters =
  Array.iter Thread.reset_warp f.warps;
  Array.iter (fun th -> Thread.reset th ~block_id ~counters) f.threads;
  let s = f.sched in
  s.head <- 0;
  s.tail <- 0;
  s.completed <- 0;
  s.parks <- 0

let run_block ~cfg ?trace ?(launch = Thread.default_launch) ?frames ~block_id
    ~num_threads body =
  if num_threads <= 0 then
    invalid_arg "Engine.run_block: num_threads must be positive";
  if num_threads > cfg.Config.max_threads_per_block then
    invalid_arg "Engine.run_block: block exceeds max_threads_per_block";
  let counters = Counters.create () in
  let f =
    match Option.bind frames Ompsimd_util.Freelist.take with
    | Some f ->
        reset_frame f ~block_id ~counters;
        f
    | None ->
        make_frame ~cfg ?trace ~launch ~block_id ~num_threads ~counters ()
  in
  let warps = f.warps and threads = f.threads and s = f.sched in
  Array.iter (fun w -> w.Thread.esched <- Sched s) warps;
  let handler = f.handler in
  (* Initial threads start in tid order, each on the fiber its
     predecessor's body returned on: a new fiber starts only after a
     thread parked its own.  A parked fiber is resumed only once every
     thread has started, so a resumed chain starts no thread. *)
  let next = ref 0 in
  let rec chain th =
    body th;
    s.completed <- s.completed + 1;
    if !next < num_threads then begin
      let th = threads.(!next) in
      incr next;
      chain th
    end
  in
  (* a finished block's warps stash nothing: its memory session (and
     through it the L2 it forked) must not outlive the run *)
  let finally () =
    Array.iter
      (fun w ->
        w.Thread.esched <- Thread.No_sched;
        w.Thread.msession <- Thread.No_session)
      warps
  in
  (* unregister the run's barriers, so any that outlive it (a recycled
     frame's team state) register again in the next run *)
  let unmark () =
    for i = 0 to s.nlive - 1 do
      Barrier.set_live_index s.live.(i) (-1)
    done;
    s.nlive <- 0
  in
  (try
     (* initial threads run in tid order; resumptions queue behind them.
        A stepped thread's hook runs where its fiber would have been
        resumed, and asks for the fiber back by returning [true]. *)
     while !next < num_threads do
       let th = threads.(!next) in
       incr next;
       match_with chain th handler
     done;
     while s.head <> s.tail do
       let th = s.rths.(s.head) in
       let head = s.head + 1 in
       s.head <- (if head = s.cap then 0 else head);
       let step = th.Thread.step in
       if step == Thread.fiber then continue s.ks.(th.Thread.tid) ()
       else if step th then begin
         th.Thread.step <- Thread.fiber;
         continue s.ks.(th.Thread.tid) ()
       end
     done
   with e ->
     finally ();
     unmark ();
     raise e);
  finally ();
  let completed = s.completed in
  if completed <> num_threads then begin
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "block %d: %d/%d threads finished; stuck barriers:"
         block_id completed num_threads);
    let stuck = ref [] in
    (* in order of first park, each numbered by its slot: the text is a
       function of the block, whatever ran before it *)
    for i = 0 to s.nlive - 1 do
      let bar = s.live.(i) in
      if Barrier.waiting bar > 0 then begin
        Buffer.add_string buf
          (Printf.sprintf " [%s#%d %d/%d]" (Barrier.name bar) i
             (Barrier.waiting bar) (Barrier.expected bar));
        stuck :=
          {
            stuck_name = Barrier.name bar;
            stuck_waiting = Barrier.waiting bar;
            stuck_expected = Barrier.expected bar;
          }
          :: !stuck
      end
    done;
    let stall =
      {
        stall_block = block_id;
        stall_completed = completed;
        stall_threads = num_threads;
        stall_cycle =
          Array.fold_left
            (fun acc th -> Float.max acc (Thread.clock th))
            0.0 threads;
        stall_stuck = List.sort compare !stuck;
      }
    in
    Domain.DLS.get stall_slot := Some stall;
    unmark ();
    raise (Deadlock (Buffer.contents buf))
  end;
  let critical =
    Array.fold_left (fun acc th -> Float.max acc (Thread.clock th)) 0.0 threads
  in
  let active_lanes =
    Array.fold_left
      (fun acc th -> if Thread.busy th > 0.0 then acc + 1 else acc)
      0 threads
  in
  (* only a completed block hands its frame to the launch's next block *)
  unmark ();
  Option.iter (fun fs -> Ompsimd_util.Freelist.give fs f) frames;
  {
    block_id;
    num_threads;
    critical_cycles = critical;
    busy_cycles = Counters.busy_cycles counters;
    active_lanes;
    counters;
    parks = s.parks;
  }
