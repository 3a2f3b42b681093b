(** Per-team runtime state (§5).

    One value of type {!t} is shared by all threads of a block: it carries
    the execution modes, the signal slots through which main threads hand
    outlined functions to their workers, the variable-sharing space, and
    the team's barriers.  The record is exposed concretely because the
    runtime's behaviour modules ([Parallel], [Simd], [Target]) are its
    co-implementors; user code goes through the [Openmp] frontend and never
    touches it. *)

type params = {
  num_teams : int;
  num_threads : int;  (** worker threads per team; a warp multiple *)
  teams_mode : Mode.t;
  sharing_bytes : int;  (** static sharing-space reservation *)
}

(** Where a thread resumes in the worker machine ([Simd]): named by
    the rendezvous it was last released from, or by what it does next;
    the first four are the teams level (§3.1). *)
type phase =
  | Idle  (** a generic-teams worker about to await a region *)
  | Signalled  (** released from the team barrier: read the signal *)
  | Running  (** on a fiber of its own: run the region's code *)
  | Closing  (** about to make the region's closing arrival *)
  | Handoff  (** a worker about to arrive at the hand-off *)
  | Woken  (** a worker released from the hand-off: read the slot *)
  | Entered  (** released from a fused loop's entry *)
  | Classic  (** released from a classic loop's entry *)
  | Round  (** released from a classic round's lockstep *)
  | Posted  (** released from the group reduction's first rendezvous *)
  | Reduced  (** released from its second *)
  | Done
      (** a driving lane (a SIMD main or an SPMD lane) released from the
          loop's exit, or a teams-SPMD worker from the region's closing
          arrival: the machine returns to its caller *)

(** The shape of a lane's current simd loop: both run one body over
    the loop's rounds and differ only in what follows them. *)
type loop_kind =
  | Simd_loop  (** the exit rendezvous *)
  | Reduce
      (** the group reduction over {!t.lane_acc}, into which the body
          folded each iteration ({!Simd.fold}) *)

type barrier_memo
(** A (warp, mask) → barrier table behind per-tid and per-warp
    last-key memos: a lane re-syncing on the same mask (every simd
    round) skips the hash lookup, and so do its warp siblings. *)

type ctx = { th : Gpusim.Thread.t; team : t }
(** What an executing thread sees: its lane and its team. *)

and microtask = ctx -> unit
(** An outlined [parallel]-region body.  It takes no payload: the
    region's {!Payload.t} is only priced (packed, shared, unpacked),
    and the body reaches its captures directly. *)

and simd_body = ctx -> int -> unit
(** An outlined [simd] loop body; the [int] is the iteration number.
    A reducing loop's body folds its iteration's value into the
    executing lane's accumulator ({!Simd.fold}). *)

and parallel_task = {
  mutable fn : microtask;
  mutable fn_id : int;
      (** outlined-region id for dispatch-cost modelling (§5.5) *)
  mutable payload : Payload.t;
  mutable task_mode : Mode.t;  (** mode of this parallel region *)
  mutable group_size : int;  (** SIMD group size for this region *)
  mutable payload_location : Sharing.location;
      (** where the team main published the payload (generic teams mode) *)
}
(** A region's task: one cell per entering thread ({!t.tasks}),
    rewritten in place each time the thread enters a region. *)

and simd_slot = {
  mutable simd_loop : loop_kind option;
      (** the published loop's shape, [None] for termination: the
          workers run [simd_fn], and after a [Reduce] loop's iterations
          join the group reduction *)
  mutable simd_fn : simd_body;
  mutable simd_red_op : Redop.t;
      (** the monoid of the current reducing loop *)
  mutable simd_fn_id : int;
  mutable simd_trip : int;
  mutable simd_args : Payload.t;
  mutable simd_args_location : Sharing.location;
}

and steps = {
  mutable phase : phase array;  (** where the lane resumes (see [Simd]) *)
  mutable kind : loop_kind array;  (** the current loop's shape *)
  mutable trip : int array;
      (** the current loop's trip count, compared across the group
          before a fused loop is driven *)
  mutable round : int array;  (** next classic lockstep round *)
  mutable seq : int array;  (** fused-loop sequence number at entry *)
  mutable actor : int array;
      (** sanitizer actor saved across classic rounds, or across a
          driven loop by its driver *)
  mutable simt : float array;  (** divergence factor saved across the loop *)
  mutable fns : simd_body array;
      (** the current loop's body: a worker's as published, a driving
          lane's as passed *)
  mutable step : Gpusim.Thread.t -> bool;
      (** the workers' resume hook, and the body of a fiber a worker
          starts to run a region *)
  mutable outer : int array;
      (** sanitizer actor a SIMD worker restores as it leaves the simd
          state machine *)
  mutable home : phase array;
      (** where the loop's exit leads: [Handoff] for a worker, [Done]
          for a driving lane *)
}
(** Per-thread state of the worker machine ([Simd]): a thread between
    two rendezvous is a phase plus these per-tid slots, so a worker
    runs as engine steps instead of fiber switches and a driving lane
    parks its fiber at a failed arrival and steps on.  Empty until
    {!init_steps}; built once per team, so neither a round nor a region
    entry allocates. *)

and t = {
  cfg : Gpusim.Config.t;
  mutable block_id : int;
  params : params;
  num_workers : int;
  main_tid : int option;  (** the extra warp's lane 0, generic mode only *)
  team_barrier : Gpusim.Barrier.t;
  warp_barriers : barrier_memo;  (** the masked warp barriers *)
  region_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
      (** barriers over the threads executing the current parallel region,
          keyed by participant count *)
  lockstep_barriers : barrier_memo;
      (** zero-cost alignment barriers modelling the implicit SIMT
          lockstep of a group's lanes inside a simd loop *)
  sharing : Sharing.t;
  simd_slots : simd_slot array;  (** indexed by SIMD group *)
  mutable parallel_signal : parallel_task option;
      (** the team main's signal to workers in teams-generic mode *)
  mutable active_geometry : Simd_group.t option;
      (** set while a parallel region executes *)
  mutable active_task : parallel_task option;
      (** the parallel region currently executing (any teams mode) *)
  mutable dispatch_table_size : int;
      (** outlined regions known to the if-cascade dispatcher (§5.5) *)
  red_scratch : float array;
      (** per-worker reduction scratch (one slot per tid), extension §7 *)
  mutable dyn_counter : int;
      (** shared iteration counter for dynamically-scheduled worksharing
          loops (extension): OpenMP threads grab chunks with an atomic
          fetch-add *)
  mutable dyn_active : int;
      (** OpenMP threads currently inside a dynamically-scheduled
          worksharing loop.  While non-zero, simd loops keep the classic
          barrier-per-round execution: the dynamic chunk-assignment
          policy is defined by the engine's round-level fiber
          interleaving (threads with longer chunks park more often and
          grab fewer), which fused rounds would collapse. *)
  in_region : bool array;
      (** per-worker flag: inside a parallel region's outlined body.
          Used to reject nested [parallel] with a clear error (LLVM
          serializes nested regions; this runtime asks the program to
          restructure instead). *)
  fused_seq : int array;
      (** per-group fused-loop sequence numbers: the driving lane bumps
          the count so woken lanes know their rounds already ran *)
  lane_acc : float array;
      (** per-tid running value of a reducing simd loop: set to the
          monoid's identity on entry, then the loop body folds each
          iteration's value into the executing lane's cell
          ({!Simd.fold}; unboxed, being a float array) — whichever
          lane's fiber or step runs that iteration; the group's total
          once the group reduction combined it *)
  lane_op : Redop.t array;
      (** per-tid monoid of the lane's current reducing loop, set with
          its [lane_acc] cell on entry *)
  geometries : Simd_group.t option array;
      (** region geometry per group size, built once ({!geometry_for}) *)
  sm : steps;
  mutable ctxs : ctx array;
      (** per-tid lane context ({!lane_ctx}); a fused loop's driver
          reaches the lanes it drives through it *)
  tasks : parallel_task option array;
      (** per-tid region-task cell, [None] until the thread first
          enters a region; [Parallel] rewrites it in place *)
}

val create :
  cfg:Gpusim.Config.t ->
  arena:Gpusim.Shared.arena ->
  params:params ->
  block_id:int ->
  t
(** Build the team state and statically reserve the sharing space.
    @raise Invalid_argument when {!check_params} or {!check_sharing}
    fails. *)

val reset : t -> arena:Gpusim.Shared.arena -> block_id:int -> unit
(** Recycle a completed block's team for [block_id] of the same launch:
    afterwards it behaves exactly as [create] on [arena] would build it.
    The barrier tables, memos, geometry cache and step closures are kept
    (they depend only on the launch); team and region barriers are
    renamed to the new block, the sharing space is reserved again on
    [arena], and all per-block state is cleared.  [dispatch_table_size]
    is reset to 0, as [create] leaves it. *)

val init_steps : t -> unit
(** Size {!steps} for the team's workers, once: the caller calls it
    when the team first needs them — a generic-teams worker, or a
    multi-lane simd loop (a teams-SPMD team that never runs one never
    pays for them). *)

val lane_ctx : t -> Gpusim.Thread.t -> ctx
(** The thread's context on this team, cached per tid: the same record
    for as long as the tid runs on the same thread, so a recycled block
    (its frame keeps its threads) builds none. *)

val set_lane_ctx : t -> ctx -> unit
(** Make [ctx] the cached context of its tid (a caller that built its
    own context, as the simd loop's entry does). *)

val geometry_for : t -> group_size:int -> Simd_group.t option
(** [Some] geometry of a region with SIMD groups of [group_size], built
    on first use and shared afterwards.
    @raise Invalid_argument as {!Simd_group.make}. *)

val block_threads : cfg:Gpusim.Config.t -> params -> int
(** Threads the block must launch with: [num_threads], plus one extra warp
    for the team main in generic mode (§5.1 / Fig 2). *)

val check_params : cfg:Gpusim.Config.t -> params -> (unit, string) result
(** Whether [cfg] can launch a team of these params: [num_threads] a
    positive multiple of the warp size, and the whole block
    ({!block_threads}) within the device limit.  {!create} raises on
    these errors and on {!check_sharing}'s. *)

val check_sharing : cfg:Gpusim.Config.t -> bytes:int -> (unit, string) result
(** Whether a sharing space of [bytes] fits a block of [cfg]: positive
    and within its shared memory (the sharing space is a block's first
    and only shared-memory reservation).  {!create} checks the params'
    [sharing_bytes] here; the offload path may reserve less than its
    clauses' budget, down to {!Sharing.min_bytes}. *)

type role =
  | Team_main  (** lane 0 of the extra warp (generic mode) *)
  | Worker
  | Inactive_main_lane  (** remaining lanes of the extra warp *)

val role : t -> tid:int -> role

val geometry : t -> Simd_group.t
(** Geometry of the active parallel region.
    @raise Failure when no parallel region is active. *)

val slot : t -> group:int -> simd_slot

val sync_warp_arrive : ctx -> bool
(** Arrive at the masked warp-level barrier over the calling thread's
    SIMD group (CUDA [__syncwarp(simdmask())]), as
    {!Gpusim.Engine.arrive}: [true] when the caller completed the
    rendezvous (or the group is a singleton), [false] when the arrival
    failed and the caller must park.  On a device without explicit
    wavefront barriers (§5.4.1) it degrades to {!lockstep_arrive}, which
    suffices for the SPMD path; generic-mode signalling cannot use it
    and is degraded to singleton groups by {!Parallel.parallel} before
    ever reaching here. *)

val sync_warp : ctx -> unit
(** A fiber's wait at the same barrier: {!sync_warp_arrive} and, when
    it failed, {!Gpusim.Engine.park}. *)

val lockstep_arrive : ctx -> bool
(** Arrive at the zero-cost alignment barrier of the calling thread's
    SIMD group, which aligns the group's virtual clocks without cost or
    counter traffic.  Models the implicit instruction-level lockstep of
    the lanes inside a simd loop — on hardware the lanes of a warp
    advance together; the fiber engine runs them one at a time, so
    without realignment their clocks would drift and same-instruction
    accesses would stop looking concurrent to the coalescing model.
    [true] for singleton groups. *)

val team_arrive : ctx -> bool
(** Arrive at the block-wide barrier over workers + team main, as
    {!Gpusim.Engine.arrive}; {!team_barrier_wait} is a fiber's wait. *)

val team_barrier_wait : ctx -> unit

val team_barrier_last : ctx -> unit
(** {!team_arrive} as the calling fiber's last action: it arrives as a
    step, so the caller's body returns at once, and the thread is
    finished once the barrier has released it. *)

val lockstep_barrier : t -> Gpusim.Thread.t -> mask:int -> Gpusim.Barrier.t
(** The zero-cost alignment barrier for [th]'s (warp, mask) pair —
    {!lockstep_arrive}'s barrier resolution, exposed so a fused loop's
    driver can feed the same barrier identity to the sanitizer taps
    without arriving at it. *)

val san_warp_arrive : Gpusim.Thread.t -> mask:int -> Gpusim.Barrier.t -> unit
(** Report a warp-scope rendezvous on [bar] to Ompsan for one lane.  A
    load-and-branch when the sanitizer is disabled.  The runtime calls
    this before every engine wait; the fused lockstep executor calls it
    per lane at each round boundary so the shadow epochs advance exactly
    as they would under real barriers. *)

val region_barrier_wait : ctx -> unit
(** Barrier over exactly the threads executing the current region — what
    an [omp barrier] or a reduction inside the region compiles to.  Every
    executing thread must call it the same number of times. *)

val charge_flops : ctx -> int -> unit
(** Account floating-point work done by a kernel body written against the
    direct (closure) API — the IR evaluator does this automatically, but a
    hand-written body's arithmetic is invisible to the simulator without
    it. *)

val charge_alu : ctx -> int -> unit
val charge_special : ctx -> int -> unit
(** Square roots, exponentials, divisions. *)

val charge_microtask : ctx -> fn_id:int -> unit
(** Charge the §5.5 dispatch cost of an outlined function, for a caller
    that then calls it directly: an if-cascade compare per known region
    when the id is in the table, the indirect-call penalty otherwise. *)
