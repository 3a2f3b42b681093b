(** The [__simd] runtime entry point, the SIMD worker state machine and
    the simd loop they run together (§5.2 Fig 4, §5.3 Figs 6 and 8).

    In an SPMD parallel region every lane of the SIMD group reaches
    [simd] with the trip count and payload already local, so the group
    drops straight into the loop.  In a generic parallel region only the
    SIMD main reaches [simd]: it publishes the outlined function, trip
    count and arguments in its group's slot (arguments through the
    sharing space), releases the workers from their warp-level barrier,
    joins the loop itself, and re-synchronizes at the end.

    Every multi-lane simd loop runs through one machine: a lane's
    position is a {!Team.phase} and its loop lives in its slots of
    {!Team.steps}.  The loop meets the group at its entry, runs the
    lockstep rounds — fused (one lane drives every lane's iterations
    round-major in ascending lane order, aligning the group's clocks at
    each round boundary) or, under fault injection, with a dynamic
    schedule in flight, or when the lanes' trip counts diverge, classic
    (each lane parks on a zero-cost lockstep barrier after every round)
    — and meets the group at its exit, a reducing loop after the group
    reduction's two rendezvous.  A SIMD worker runs it as engine steps
    ({!Gpusim.Engine.suspend_stepped}); a SIMD main and every SPMD lane
    drive it on their own fibers, parking at each failed arrival
    ({!Gpusim.Engine.park}) and stepping on when resumed. *)

val simd :
  Team.ctx ->
  ?payload:Payload.t ->
  ?fn_id:int ->
  trip:int ->
  Team.simd_body ->
  unit
(** Execute a [simd] loop from inside a parallel region: a
    warp-synchronized round-robin of the iteration space over the lanes
    of the calling thread's SIMD group
    ([iv = getSimdGroupId(); iv += getSimdGroupSize()]).  Degrades to
    sequential execution when the SIMD group is a singleton — which is
    also how generic mode behaves on a device without warp barriers
    (§5.4.1), because {!Parallel.parallel} forces [simdlen = 1] there.
    @raise Failure outside a parallel region. *)

val simd_reduce :
  Team.ctx ->
  ?payload:Payload.t ->
  ?fn_id:int ->
  op:Redop.t ->
  trip:int ->
  Team.simd_reducer ->
  float
(** Extension (§7): a simd loop with a reduction over an arbitrary float
    monoid.  Each lane folds its share of the iterations into its
    {!Team.t.lane_acc} cell, then the group combines through a
    warp-shuffle tree; the callers (the SIMD main in generic mode, every
    lane in SPMD mode) receive the total.  Workers participate from
    inside the state machine. *)

val simd_sum :
  Team.ctx ->
  ?payload:Payload.t ->
  ?fn_id:int ->
  trip:int ->
  Team.simd_reducer ->
  float
(** [simd_reduce ~op:Redop.sum]. *)

val state_machine : Team.ctx -> unit
(** The SIMD worker loop (Fig 6): wait on the group's warp barrier; fetch
    the published function pointer; [None] means the parallel region ended
    — return; otherwise fetch the shared arguments, run the workshare
    loop, synchronize, repeat.  The loop runs as engine steps
    ({!Gpusim.Engine.suspend_stepped}): the worker's fiber parks once,
    at its first hand-off that does not complete, and resumes once, at
    termination. *)

val state_machine_last : Team.ctx -> unit
(** {!state_machine} followed by {!Team.team_barrier_last}, for a
    region whose closing team barrier is the worker's last action.  The
    worker's fiber does not park at all: at its first hand-off that
    does not complete it detaches ({!Gpusim.Engine.detach}) and runs on
    as the team's [last_step] hook, whose final step is the closing
    arrival.  Same simulated schedule as {!state_machine} and the
    barrier wait after it. *)

val signal_termination : Team.ctx -> unit
(** Called by the SIMD main at the end of a generic parallel region:
    publish a null function pointer and release the workers (Fig 3). *)
