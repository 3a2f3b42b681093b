(** Cooperative fiber engine for one thread block.

    A GPU thread runs its code as an OCaml 5 effect fiber or as steps,
    until it synchronizes.  A rendezvous is an arrival ({!arrive}): the
    last expected arriver releases the barrier and keeps running; any
    other arrival fails and parks the thread, and a release re-enqueues
    all participants.  The order between synchronization points is
    unspecified — like real intra-block concurrency for race-free
    programs — while barrier semantics (max-of-arrival clocks) are exact.

    A thread's resume hook ({!Thread.step}) says how it runs.  While it
    is {!Thread.fiber} the thread runs fiber code, which parks through
    the engine's one park effect: {!park}, or {!suspend_stepped} to be
    resumed as steps.  Any other hook is a step, which the scheduler
    calls where it would have resumed the fiber: it runs the thread's
    code to its next rendezvous and parks there at once, without a
    fiber switch.  Release order, the live-barrier table, injected
    stalls and the deadlock report treat a stepped thread exactly like a
    fiber.

    One rule ties the two: a thread holds a fiber only while it runs
    fiber code.  A step may start a fiber ({!start_fiber}).  Fiber code
    may set a step hook and arrive as that step: its fiber then returns
    while the thread lives on, owing that arrival.  A body that returns
    with the hook still {!Thread.fiber} (and no started fiber parked)
    finished its thread, and a step returns [true] to have the thread's
    fiber run — resumed if parked, and a thread that holds none is
    finished.  A hung block thus reports the same finished count and
    stuck barriers however its threads waited.  The threads start in tid
    order, each on the fiber its predecessor's body returned on.

    With [?frames], a launch's blocks share their warps, threads and
    scheduler: a completed block hands its frame, reset to a fresh
    frame's state, to the next. *)

exception Deadlock of string
(** Raised when runnable fibers are exhausted but some threads neither
    finished nor can be released — i.e. a barrier is waited on by fewer
    threads than it expects.  The message lists the stuck barriers. *)

type stuck = { stuck_name : string; stuck_waiting : int; stuck_expected : int }
(** One stuck barrier, identified by its display name (ids are
    process-unique atomics whose allocation order depends on the pool
    interleaving; names and waiter counts are deterministic). *)

type stall_info = {
  stall_block : int;
  stall_completed : int;  (** threads that finished *)
  stall_threads : int;
  stall_cycle : float;  (** max thread clock at detection *)
  stall_stuck : stuck list;  (** sorted: a canonical ordering *)
}

val take_stall : unit -> stall_info option
(** The structured companion of the last {!Deadlock} raised on the
    calling domain, stashed just before the raise; reading clears it.
    [Device.launch] consumes it to build a failure report when fault
    capture is armed (a fault plan or a watchdog on the launch's
    {!Pool}). *)

type block_result = {
  block_id : int;
  num_threads : int;
  critical_cycles : float;  (** max final lane clock: the latency leg *)
  busy_cycles : float;  (** sum of lane busy time: the throughput leg *)
  active_lanes : int;
      (** lanes that executed any work — feeds the issue-efficiency model
          (an underfilled SM cannot retire at full width) *)
  counters : Counters.t;
  parks : int;
      (** fiber parks: continuations captured by {!park} or
          {!suspend_stepped}.  A host-cost figure, deterministic for a
          block; it reaches no report or counter. *)
}

val arrive : Barrier.t -> Thread.t -> bool
(** Arrive at a barrier (atomic epoch, injected stall, completion by the
    last arriver).  [true]: this arrival completed the barrier and
    released the others; the caller keeps running.  [false]: the arrival
    failed, and the caller must not touch simulated state before it
    parks.  From a step (the thread's hook is not {!Thread.fiber}) the
    thread is parked at once — under the continuation its fiber
    suspended with, if it holds one — and the step must return to the
    scheduler.  From fiber code the arrival is only recorded, and the
    fiber must next call {!park} or {!suspend_stepped}, which park it.
    @raise Invalid_argument outside a running block. *)

val park : Thread.t -> unit
(** Park the calling fiber at the arrival {!arrive} just recorded as
    failed; it returns once the barrier releases the thread and the
    scheduler resumes the fiber.  [suspend_stepped th Thread.fiber].
    @raise Invalid_argument outside a running block. *)

val barrier_wait : Barrier.t -> Thread.t -> unit
(** {!arrive} and, when the arrival failed, {!park}: a fiber's wait.
    Also clears the calling warp's atomic-contention epoch: contention
    is counted between consecutive synchronization points only. *)

val suspend_stepped : Thread.t -> (Thread.t -> bool) -> unit
(** [suspend_stepped th step] parks the calling fiber at the arrival an
    {!arrive} just recorded as failed, and makes [step] its resume hook
    ({!Thread.step}): whenever the scheduler reaches [th] — exactly where
    it would have resumed the fiber — it calls [step th] instead.  The
    step runs the thread's code to its next rendezvous, arriving through
    {!arrive}; it returns [false] once it parked again, or [true] to have
    the fiber resumed, which returns from this call as a plain fiber.
    A step must not call {!barrier_wait}, {!park} or {!suspend_stepped}.
    @raise Invalid_argument outside a running block. *)

val start_fiber : Thread.t -> (Thread.t -> bool) -> unit
(** [start_fiber th step], from a step of [th], runs [step th] on a
    fresh fiber: [th]'s hook is {!Thread.fiber} until the code sets a
    step again, so it may park its fiber.  Returns once the fiber
    returned or parked; the calling step then returns [false].  When
    [step th] returns [true] the thread finished; when it returns
    [false] the thread lives on as steps, parked at its last arrival.
    @raise Invalid_argument outside a running block. *)

type frames
(** A launch's free list of block frames: the warps, threads and
    scheduler of a block, recycled by the next block once their block
    completed.  Safe to share between the domains that simulate one
    launch's blocks; every block of one launch must use the same [cfg],
    [trace], [launch] and [num_threads]. *)

val frames : unit -> frames
(** An empty free list; make one per launch. *)

val run_block :
  cfg:Config.t ->
  ?trace:Trace.t ->
  ?launch:Thread.launch ->
  ?frames:frames ->
  block_id:int ->
  num_threads:int ->
  (Thread.t -> unit) ->
  block_result
(** Create [num_threads] fibers (grouped into warps of [cfg.warp_size]),
    run the body in each, and return the block's timing summary.
    [launch] (default {!Thread.default_launch}, all off) is stamped on
    every warp.  With [frames], the block reuses a frame a completed
    block of the same launch left there (reset to exactly the state a
    fresh frame has, with fresh counters) and returns its own when it
    completes; a block that raises drops its frame.
    @raise Invalid_argument if [num_threads] is not positive or exceeds
    [cfg.max_threads_per_block].
    @raise Deadlock on unreleased barriers. *)
