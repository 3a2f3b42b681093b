(** The [__simd] runtime entry point and the worker machine: the team
    state machine (§3.1), the SIMD worker state machine and the simd
    loop they run together (§5.2 Fig 4, §5.3 Figs 6 and 8).

    In an SPMD parallel region every lane of the SIMD group reaches
    [simd] with the trip count and payload already local and drops
    straight into the loop.  In a generic one only the SIMD main does:
    it publishes the outlined function, trip count and arguments in its
    group's slot (arguments through the sharing space), releases the
    workers from their warp-level barrier, joins the loop itself, and
    re-synchronizes at the end.  The payload is priced by its slot count
    ({!Payload}); the body itself takes none.

    There is one body type, {!Team.simd_body}, for every loop: a
    reducing loop's body folds its iteration's value into the executing
    lane's accumulator with {!fold} — the private copy that
    [reduction(op:x)] gives each lane — and the loop's shape decides
    only what follows its rounds: the exit rendezvous, or the group
    reduction first.

    One machine runs both levels' idle workers and every multi-lane simd
    loop: a thread's position is a {!Team.phase}, its state its slots of
    {!Team.steps}, and it holds a fiber only while it runs region or
    kernel code.  Workers run as engine steps; a stepped worker whose
    part is region code starts a fiber for it
    ({!Gpusim.Engine.start_fiber}).  The loop meets the group at its
    entry, runs the lockstep rounds — fused (one lane drives every
    lane's iterations round-major in ascending lane order, aligning the
    group's clocks at each round boundary) or, under fault injection,
    with a dynamic schedule in flight, or when the lanes' trip counts
    diverge, classic (each lane parks on a zero-cost lockstep barrier
    after every round) — and meets the group at its exit, a reducing
    loop after the group reduction's two rendezvous.  A SIMD main and
    every SPMD lane drive the loop on their own fibers, parking at each
    failed arrival ({!Gpusim.Engine.park}) and stepping on when
    resumed. *)

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
  Team.simd_body ->
  float
(** Extension (§7): a simd loop with a reduction over an arbitrary float
    monoid.  Each lane's {!Team.t.lane_acc} cell starts at [op]'s
    identity, and the body {!fold}s each of the lane's iterations into
    it; then the group combines through a warp-shuffle tree, and the
    callers (the SIMD main in generic mode, every lane in SPMD mode)
    receive the total.  Workers participate from inside the state
    machine. *)

val simd_sum :
  Team.ctx ->
  ?payload:Payload.t ->
  ?fn_id:int ->
  trip:int ->
  Team.simd_body ->
  float
(** [simd_reduce ~op:Redop.sum]. *)

val fold : Team.ctx -> float -> unit
(** [fold ctx v], from a reducing loop's body: combine [v] into the
    executing lane's accumulator under the loop's monoid.  Inlined, so
    [v] is not boxed. *)

val worker : Team.ctx -> unit
(** A generic-teams worker's kernel (§3.1): wait at the team barrier;
    read the team main's signal — [None] means the kernel ended, and
    the worker is finished; otherwise fetch and unpack the region's
    payload, run its part of the region, make the region's closing
    arrival, repeat.  The worker's fiber returns at once: the loop runs
    as engine steps, and a fiber is started only for region code. *)

val region : Team.ctx -> Team.parallel_task -> last:bool -> unit
(** A teams-SPMD thread's part in a parallel region it entered (Fig
    3), closing arrival included: an SPMD lane or a SIMD main runs the
    region's code on its fiber; a SIMD worker enters the SIMD state
    machine (Fig 6: wait on the group's warp barrier; fetch the
    published function pointer and arguments, run the workshare loop,
    synchronize, repeat; a null pointer ends the region).  The worker's
    fiber parks once, at its first hand-off that does not complete, and
    is resumed past the closing arrival.  With [last], nothing of the
    kernel follows: the worker gives its fiber back instead and lives on
    as steps, and any other thread finishes at the closing arrival
    without parking ({!Team.team_barrier_last}). *)
