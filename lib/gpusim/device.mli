(** Kernel launcher: ties the fiber engine, shared-memory arenas and the
    occupancy model together.

    Thread blocks only interact through global atomics, so each is
    simulated in isolation — sequentially by default, or fanned out over
    a {!Pool} of host domains — and composed into a kernel time by
    {!Occupancy.kernel_time}.

    {b Determinism contract.}  A launch produces a bit-identical [report]
    whether it ran sequentially, on a pool of any size, or through the
    homogeneous-grid fast path (for a grid whose blocks really are
    uniform): every block simulates against the launch-start L2 snapshot
    (see {!Memory} sessions), and per-block counters, costs and L2 logs
    are combined in ascending block_id order after all blocks finish.

    {b Launch context.}  The launch's settings come from its {!Pool}:
    whether the sanitizer runs, the armed fault plan, the watchdog
    budget and the fault-launch counter.  They are stamped on the
    block's warps ({!Thread.launch}), so nothing a launch reads is
    process-global and launches on different domains may run at once
    with different settings.  No pool means all off. *)

type report = {
  cfg : Config.t;
  grid : int;  (** number of blocks launched *)
  block : int;  (** threads per block *)
  time_cycles : float;
  breakdown : Occupancy.breakdown;
  counters : Counters.t;  (** merged over all blocks, ascending block_id *)
  block_costs : Occupancy.block_cost array;
  sanitizer : Ompsan.report option;
      (** [Some] iff the launch's pool runs the sanitizer: findings
          merged in ascending block_id plus cross-block conflicts.  Always
          [None] when disabled — the report stays bit-identical to a build
          without the sanitizer. *)
  failures : Fault.failure list;
      (** Failed blocks in ascending block_id order: injected fatal
          faults, captured barrier stalls (injected or genuine
          divergence, when capture is armed: a fault plan or a watchdog
          on the pool), and watchdog findings for blocks whose critical
          path exceeded the pool's [OMPSIMD_WATCHDOG] budget.
          A failed block contributes no
          counters, no L2 traffic and a zero cost entry — its failure
          record {e is} its contribution.  Always [[]] when disarmed. *)
  faults : Fault.stats;
      (** Corrected/fatal/stall/exhaust/watchdog totals over the launch.
          {!Fault.zero_stats} when disarmed — the report stays
          bit-identical. *)
  parks : int;
      (** {!Engine.block_result.parks} summed over the completed blocks:
          a host-cost figure that no report or snapshot prints. *)
}

val launch :
  cfg:Config.t ->
  ?pool:Pool.t ->
  ?trace:Trace.t ->
  ?nonce:int ->
  ?kernel:string ->
  grid:int ->
  block:int ->
  init:(block_id:int -> Shared.arena -> 'a) ->
  ?reinit:('a -> block_id:int -> Shared.arena -> unit) ->
  body:('a -> Thread.t -> unit) ->
  unit ->
  report
(** [launch ~cfg ~grid ~block ~init ~body ()] runs [grid] blocks of [block]
    threads.  [init] builds a block's state (e.g. the team state, which
    reserves static shared memory on the block's arena); [body] runs in
    every thread fiber.

    Block frames are recycled: the engine's warps, threads and
    scheduler serve the next block once their block completed (a failed
    block's are dropped).  With [reinit], the [init] states are recycled
    the same way: a later block gets a completed block's state through
    [reinit state ~block_id arena], which must leave it exactly as [init
    ~block_id arena] would have built it; the states live for the
    launch.  An untraced launch on a pool takes its frames and L2-view
    buffers from the pool ({!Pool.take_frames}) and leaves them there when
    it returns, for the next launch with the same config, block size
    and launch settings; a launch that raises leaves nothing.  Only the
    state of completed blocks is ever recycled, so what a launch
    reports does not depend on what ran before it on the pool.

    [pool] fans block simulation out across the pool's domains; the
    report is bit-identical to the sequential run.  Device atomics take
    the host lock only when blocks really run on several domains.  When
    [trace] is set the launch always simulates every block sequentially
    on the calling domain ([Trace.t] is a single shared log).

    Under an armed fault plan the blocks draw their faults at [nonce]
    when given (the serve fleet pins it per request and attempt,
    leaving the pool's counter alone), else at the pool's next
    {!Pool.next_nonce}.  [kernel] names the sanitizer report (default
    ["<kernel>"]).

    With fault capture armed (a fault plan, or a positive watchdog, on
    the pool) a block that deadlocks or takes a fatal injected fault
    does not raise — it lands in [report.failures].  Disarmed, genuine
    divergence raises {!Engine.Deadlock} exactly as before; a sanitized
    launch stashes the aborted blocks' findings on the pool
    ({!Pool.take_aborted}).
    @raise Invalid_argument on non-positive [grid]/[block] or a block larger
    than the device allows. *)

val pp_report : Format.formatter -> report -> unit
(** Appends a fault section (totals plus one line per failure) only
    when a launch actually armed faults or failed — unarmed report text
    is byte-identical to the pre-fault-layer rendering. *)
