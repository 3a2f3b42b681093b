(** The [__simd] runtime entry point and the SIMD worker state machine
    (§5.2 Fig 4, §5.3 Fig 6).

    In an SPMD parallel region every lane of the SIMD group reaches
    [simd] with the trip count and payload already local, so the group
    drops straight into the workshare loop.  In a generic parallel region
    only the SIMD main reaches [simd]: it publishes the outlined function,
    trip count and arguments in its group's slot (arguments through the
    sharing space), releases the workers from their warp-level barrier,
    joins the loop itself, and re-synchronizes at the end. *)

val simd :
  Team.ctx ->
  ?payload:Payload.t ->
  ?fn_id:int ->
  trip:int ->
  Team.simd_body ->
  unit
(** Execute a [simd] loop from inside a parallel region.  Degrades to
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
    monoid.  Each lane accumulates its share of the iterations locally,
    then the group combines through a warp-shuffle tree; the callers (the
    SIMD main in generic mode, every lane in SPMD mode) receive the total.
    Workers participate from inside the state machine. *)

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
    termination; the simulated schedule is the fiber loop's exactly. *)

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
