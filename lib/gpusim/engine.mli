(** Cooperative fiber engine for one thread block.

    Each GPU thread is an OCaml 5 effect fiber.  Fibers run until they
    synchronize; [barrier_wait] performs an effect that parks the fiber in
    the barrier, and a barrier release re-enqueues all participants.  The
    execution order between synchronization points is unspecified — exactly
    like real intra-block concurrency for race-free programs — while
    barrier semantics (max-of-arrival clocks) are exact.

    A parked thread may instead be {e stepped} ({!suspend_stepped}): the
    scheduler calls its {!Thread.step} hook where it would have resumed
    the fiber, and the hook runs the thread's code to its next
    rendezvous ({!arrive}) without a fiber switch.  Release order, the
    live-barrier table and the deadlock report treat a stepped thread
    exactly like a fiber.

    A thread need not keep its fiber to the end.  A fiber that has
    recorded an {!arrive} may {!detach}: it gives its fiber back and
    lives on as steps alone.  A thread whose last action is a barrier
    arrives through {!arrive_last}: it is registered as a waiter with
    no continuation and its fiber (or step) returns at once.  Either
    way the thread counts as finished only when its last barrier
    releases it, so a hung block reports the same finished count and
    stuck barriers as if every waiter had parked its fiber.  The
    threads start in tid order, each on the fiber its predecessor's
    body returned on, so a fiber is only created after one parked.

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
      (** fiber parks: continuations captured at a barrier wait or a
          {!suspend_stepped}.  A host-cost figure, deterministic for a
          block; it reaches no report or counter. *)
}

val barrier_wait : Barrier.t -> Thread.t -> unit
(** Suspend the calling fiber until the barrier releases.  Must be called
    from inside [run_block]'s dynamic extent.  Also clears the calling
    warp's atomic-contention epoch: contention is counted between
    consecutive synchronization points only. *)

val arrive : Barrier.t -> Thread.t -> bool
(** The arrival of {!barrier_wait} (atomic epoch, injected stall,
    completion by the last arriver) for code that runs as a step.
    [true]: this arrival completed the barrier and released the others;
    the caller keeps running.  [false]: the thread parked, and the caller
    must return to the scheduler at once without touching simulated
    state.  From a step, the thread parks (under the continuation its
    fiber suspended with, if it has one); from a fiber that has not
    suspended yet, the arrival is only recorded, and the fiber must next
    call {!suspend_stepped} or {!detach}, which park it.
    @raise Invalid_argument outside a running block. *)

val suspend_stepped : Thread.t -> (Thread.t -> bool) -> unit
(** [suspend_stepped th step] parks the calling fiber at the arrival an
    {!arrive} just recorded as failed, and makes [step] its resume hook
    ({!Thread.step}): whenever the scheduler reaches [th] — exactly where
    it would have resumed the fiber — it calls [step th] instead.  The
    step runs the thread's code to its next rendezvous, arriving through
    {!arrive}; it returns [false] once it parked again, or [true] to have
    the fiber resumed, which returns from this call as a plain fiber.
    Release order, the deadlock report and injected stalls see a stepped
    thread exactly as a fiber.  A step must not call {!barrier_wait}: it
    runs outside any fiber.
    @raise Invalid_argument outside a running block. *)

val detach : Thread.t -> (Thread.t -> bool) -> unit
(** [detach th step] parks the arrival an {!arrive} on [th]'s fiber just
    recorded as failed, with no continuation, and makes [step] its
    resume hook; the fiber must then return at once, and the thread
    lives on as steps only.  Its steps run exactly where
    {!suspend_stepped}'s would, but must always return [false] (there
    is no fiber to resume): the thread's last step arrives through
    {!arrive_last}.
    @raise Invalid_argument outside a running block, or when no
    arrival of [th]'s fiber is recorded. *)

val arrive_last : Barrier.t -> Thread.t -> unit
(** The arrival of {!barrier_wait} for a thread's last action: nothing
    of the thread runs after it.  A completing arrival releases the
    others; any other registers [th] as a waiter with no continuation.
    Either way the caller returns at once: a fiber returns from its
    body, a step (of a {!detach}ed thread) returns [false].  The thread
    counts as finished when the barrier releases it, and the release
    charges its clock like any waiter's.
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
