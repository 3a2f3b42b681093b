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

type _ Effect.t += Wait : Barrier.t * Thread.t -> unit Effect.t

(* The barrier-park hot path performs [Yield] — a constant constructor,
   so the perform itself allocates nothing — with the arrival stashed in
   the scheduler state; [Wait] carries its payload explicitly and remains
   for the cold paths (fault-injected stalls, arrivals outside a
   run_block).  Released waiters are queued in a fixed ring of parallel
   thread/continuation arrays (capacity [num_threads + 1]: a thread is
   parked at most once) and consumed FIFO; [live] tracks barriers with
   parked threads for the deadlock report. *)
type _ Effect.t += Yield : unit Effect.t

type sched = {
  mutable rths : Thread.t array;  (* released-waiter ring *)
  mutable rks : (unit, unit) continuation array;  (* lazily created *)
  mutable head : int;
  mutable tail : int;
  cap : int;
  live : (int, Barrier.t) Hashtbl.t;
  (* the arrival being parked by the in-flight [Yield] *)
  mutable pending_bar : Barrier.t;
  mutable pending_th : Thread.t;
}

let sched_slot : sched option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The running block's scheduler, stashed on each of its warps (see
   Thread.engine_sched): barrier arrivals are the simulator's single
   most frequent event, and the stash turns the per-arrival DLS lookup
   into a field load.  [run_block] sets it after building [s] and
   resets it on every exit path, so a warp never carries a stale
   scheduler. *)
type Thread.engine_sched += Sched of sched

let sched_push s th k =
  if Array.length s.rks = 0 then s.rks <- Array.make s.cap k;
  s.rths.(s.tail) <- th;
  s.rks.(s.tail) <- k;
  let tail = s.tail + 1 in
  s.tail <- (if tail = s.cap then 0 else tail)

(* Resume order matches the historical list-based scheduler: batches are
   FIFO across releases, and within a release the most recently parked
   waiter runs first. *)
let push_release s bar =
  for i = Barrier.waiting bar - 1 downto 0 do
    sched_push s (Barrier.waiter_th bar i) (Barrier.waiter_k bar i)
  done;
  Barrier.clear bar

let barrier_wait bar th =
  (* Any synchronization orders the warp's outstanding atomics: contention
     is only counted between consecutive sync points.  Bumping the
     generation invalidates every per-line count in O(1). *)
  let warp = th.Thread.warp in
  warp.Thread.atomic_gen <- warp.Thread.atomic_gen + 1;
  (* Injected stall: the victim parks on a private, never-completing
     barrier instead of arriving here — its mask-mates wait forever and
     the block surfaces as a (captured) deadlock. *)
  (if Thread.injecting th then
     match Fault.stall_here th ~abandoned:bar with
     | Some stalled -> perform (Wait (stalled, th))
     | None -> ());
  match warp.Thread.esched with
  | Sched s ->
      (* fast path: the last expected arriver releases the barrier and
         keeps running — no continuation capture, no queue round-trip *)
      if Barrier.try_complete bar th then push_release s bar
      else begin
        s.pending_bar <- bar;
        s.pending_th <- th;
        perform Yield
      end
  | _ -> (
      (* warp not created by a live run_block (a bare test harness, or a
         foreign thread arriving mid-run): fall back to the domain-local
         scheduler, exactly the pre-stash behaviour *)
      match !(Domain.DLS.get sched_slot) with
      | Some s ->
          if Barrier.try_complete bar th then push_release s bar
          else begin
            s.pending_bar <- bar;
            s.pending_th <- th;
            perform Yield
          end
      | None -> perform (Wait (bar, th)))

let park_arrival s bar th k =
  (* [barrier_wait] already tried to complete: this arrival cannot be
     the last, so it always parks *)
  Barrier.park bar th k;
  if not (Barrier.live_mark bar) then begin
    Barrier.set_live_mark bar;
    Hashtbl.replace s.live (Barrier.id bar) bar
  end

let run_block ~cfg ?trace ?(launch = Thread.default_launch) ~block_id
    ~num_threads body =
  if num_threads <= 0 then
    invalid_arg "Engine.run_block: num_threads must be positive";
  if num_threads > cfg.Config.max_threads_per_block then
    invalid_arg "Engine.run_block: block exceeds max_threads_per_block";
  let counters = Counters.create () in
  let ws = cfg.Config.warp_size in
  let num_warps = (num_threads + ws - 1) / ws in
  let warps =
    Array.init num_warps (fun w -> Thread.make_warp ~cfg ~launch ~warp_index:w)
  in
  let threads =
    Array.init num_threads (fun tid ->
        Thread.create ~cfg ~counters ?trace ~block_id ~tid ~warp:warps.(tid / ws) ())
  in
  (* [live] is keyed by unique barrier id: two live barriers may share a
     display name (e.g. per-warp barriers created in a loop), and colliding
     on the name used to drop one of them from the deadlock report.
     Entries stay registered after release (the live_mark is never
     cleared), so the deadlock formatter below must skip barriers with
     zero parked waiters to report only the actually-stuck ones. *)
  let s =
    {
      rths = Array.make (num_threads + 1) threads.(0);
      rks = [||];
      head = 0;
      tail = 0;
      cap = num_threads + 1;
      live = Hashtbl.create 8;
      pending_bar = Barrier.create ~name:"engine.none" ~expected:1 ~cost:0.0 ();
      pending_th = threads.(0);
    }
  in
  let slot = Domain.DLS.get sched_slot in
  let saved_slot = !slot in
  slot := Some s;
  Array.iter (fun w -> w.Thread.esched <- Sched s) warps;
  let completed = ref 0 in
  (* The Yield handler is the single hottest closure in the simulator
     (every barrier park goes through it); allocating it — and the [Some]
     around it — once per block instead of once per perform keeps the
     park path allocation-free outside the continuation itself.  The
     whole handler record is likewise shared by all of the block's
     fibers. *)
  let on_yield : ((unit, unit) continuation -> unit) option =
    Some (fun k -> park_arrival s s.pending_bar s.pending_th k)
  in
  let handler =
    {
      retc = (fun () -> incr completed);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Yield -> on_yield
          | Wait (bar, arriving) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  park_arrival s bar arriving k)
          | _ -> None);
    }
  in
  let run_fiber th = match_with body th handler in
  let finally () =
    slot := saved_slot;
    Array.iter (fun w -> w.Thread.esched <- Thread.No_sched) warps
  in
  (try
     (* initial fibers run in tid order; resumptions queue behind them *)
     Array.iter run_fiber threads;
     while s.head <> s.tail do
       let k = s.rks.(s.head) in
       let head = s.head + 1 in
       s.head <- (if head = s.cap then 0 else head);
       continue k ()
     done
   with e ->
     finally ();
     raise e);
  finally ();
  if !completed <> num_threads then begin
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "block %d: %d/%d threads finished; stuck barriers:"
         block_id !completed num_threads);
    let stuck = ref [] in
    Hashtbl.iter
      (fun _ bar ->
        if Barrier.waiting bar > 0 then begin
          Buffer.add_string buf
            (Printf.sprintf " [%s#%d %d/%d]" (Barrier.name bar)
               (Barrier.id bar) (Barrier.waiting bar) (Barrier.expected bar));
          stuck :=
            {
              stuck_name = Barrier.name bar;
              stuck_waiting = Barrier.waiting bar;
              stuck_expected = Barrier.expected bar;
            }
            :: !stuck
        end)
      s.live;
    let stall =
      {
        stall_block = block_id;
        stall_completed = !completed;
        stall_threads = num_threads;
        stall_cycle =
          Array.fold_left
            (fun acc th -> Float.max acc (Thread.clock th))
            0.0 threads;
        stall_stuck = List.sort compare !stuck;
      }
    in
    Domain.DLS.get stall_slot := Some stall;
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
  {
    block_id;
    num_threads;
    critical_cycles = critical;
    busy_cycles = Counters.busy_cycles counters;
    active_lanes;
    counters;
  }
