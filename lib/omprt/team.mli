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

val default_params : params
(** 1 team x 1 warp, SPMD, 2048-byte sharing space. *)

(** Where a stepped SIMD worker resumes ([Simd]): named by the
    rendezvous it was last released from. *)
type phase =
  | Handoff  (** about to arrive at the hand-off *)
  | Woken  (** released from the hand-off: read the slot *)
  | Entered  (** released from a fused loop's entry *)
  | Classic  (** released from a classic loop's entry *)
  | Round  (** released from a classic round's lockstep *)
  | Posted  (** released from the group reduction's first rendezvous *)
  | Reduced  (** released from its second *)

(** The loop shape of a worker's current round. *)
type loop_kind =
  | Simd_loop
  | Sum_fold  (** a sum reduction, folded in a register *)
  | Combine  (** another monoid, combined per iteration *)

type ctx = { th : Gpusim.Thread.t; team : t }
(** What an executing thread sees: its lane and its team. *)

and microtask = ctx -> Payload.t -> unit
(** An outlined [parallel]-region body. *)

and simd_body = ctx -> int -> Payload.t -> unit
(** An outlined [simd] loop body; the [int] is the iteration number. *)

and parallel_task = {
  fn : microtask;
  fn_id : int;  (** outlined-region id for dispatch-cost modelling (§5.5) *)
  payload : Payload.t;
  task_mode : Mode.t;  (** mode of this parallel region *)
  group_size : int;  (** SIMD group size for this region *)
  mutable payload_location : Sharing.location;
      (** where the team main published the payload (generic teams mode) *)
}

and simd_reducer = ctx -> int -> Payload.t -> float
(** A simd loop body contributing one summand per iteration (extension). *)

and simd_slot = {
  mutable simd_fn : simd_body option;
  mutable simd_red_fn : simd_reducer option;
      (** set instead of [simd_fn] for reducing loops: workers must join
          the group reduction after their share of the iterations *)
  mutable simd_red_op : Redop.t;
      (** the monoid of the current reducing loop *)
  mutable simd_fn_id : int;
  mutable simd_trip : int;
  mutable simd_args : Payload.t;
  mutable simd_args_location : Sharing.location;
}

and steps = {
  mutable ctxs : ctx array;  (** per-tid worker context *)
  mutable phase : phase array;  (** where the worker resumes (see [Simd]) *)
  mutable kind : loop_kind array;  (** the current round's loop shape *)
  mutable trip : int array;
  mutable round : int array;  (** next classic lockstep round *)
  mutable seq : int array;  (** fused-loop sequence number at entry *)
  mutable actor : int array;  (** sanitizer actor saved across classic rounds *)
  mutable simt : float array;  (** divergence factor saved across the loop *)
  mutable acc : float array;  (** the lane's reduction accumulator *)
  mutable fns : simd_body array;
  mutable reds : simd_reducer array;
  mutable ops : Redop.t array;
  mutable args : Payload.t array;
      (** the round's published function and arguments *)
  mutable step : Gpusim.Thread.t -> bool;  (** the workers' resume hook *)
  mutable bodies : (int -> unit) array;
  mutable folds : (int -> float) array;
  mutable combs : (int -> unit) array;
      (** per-tid loop closures over the slots above, built once *)
}
(** Per-worker state of the stepped SIMD state machine ([Simd]): a
    worker between two rendezvous is a phase plus these per-tid slots,
    so the engine runs its rounds as steps instead of fiber switches.
    Empty until {!init_steps}; built once per team, so neither a round
    nor a region entry allocates. *)

and t = {
  cfg : Gpusim.Config.t;
  mutable block_id : int;
  params : params;
  num_workers : int;
  main_tid : int option;  (** the extra warp's lane 0, generic mode only *)
  team_barrier : Gpusim.Barrier.t;
  warp_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
  region_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
      (** barriers over the threads executing the current parallel region,
          keyed by participant count *)
  lockstep_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
      (** zero-cost alignment barriers modelling the implicit SIMT
          lockstep of a group's lanes inside a simd loop *)
  wb_memo_key : int array;
  wb_memo_bar : Gpusim.Barrier.t option array;
  ls_memo_key : int array;
  ls_memo_bar : Gpusim.Barrier.t option array;
  wb_warp_key : int array;
  wb_warp_bar : Gpusim.Barrier.t option array;
  ls_warp_key : int array;
  ls_warp_bar : Gpusim.Barrier.t option array;
      (** per-tid last (warp, mask) → barrier memos for the two tables
          above: a lane re-syncing on the same mask (every simd round)
          skips the hash lookup *)
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
  mutable fused_ths : Gpusim.Thread.t array;
      (** fused-lockstep deposit slots, per tid (see [Workshare]): the
          thread handles of the lanes whose simd rounds the driving lane
          executes.  Lazily sized on first use. *)
  fused_fns : (int -> unit) array;  (** per-tid deposited loop bodies *)
  fused_reds : (int -> float) array;
      (** per-tid deposited reducing bodies *)
  fused_acc : float array;
      (** per-tid fold accumulators written by the driving lane *)
  fused_trip : int array;  (** per-tid deposited trip counts *)
  fused_actor : int array;
      (** per-tid saved sanitizer actors across a driven loop *)
  fused_seq : int array;
      (** per-group fused-loop sequence numbers: the driving lane bumps
          the count so woken lanes know their rounds already ran *)
  geometries : Simd_group.t option array;
      (** region geometry per group size, built once ({!geometry_for}) *)
  sm : steps;
}

val create :
  cfg:Gpusim.Config.t ->
  arena:Gpusim.Shared.arena ->
  params:params ->
  block_id:int ->
  t
(** Build the team state and statically reserve the sharing space.
    @raise Invalid_argument when {!check_params} fails. *)

val reset : t -> arena:Gpusim.Shared.arena -> block_id:int -> unit
(** Recycle a completed block's team for [block_id] of the same launch:
    afterwards it behaves exactly as [create] on [arena] would build it.
    The barrier tables, memos, geometry cache and step closures are kept
    (they depend only on the launch); team and region barriers are
    renamed to the new block, the sharing space is reserved again on
    [arena], and all per-block state is cleared.  [dispatch_table_size]
    is reset to 0, as [create] leaves it. *)

val init_steps : t -> ctx -> unit
(** Size {!steps} for the team's workers, once (a team that never runs
    a generic region never pays for it). *)

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
    exactly these errors. *)

type role =
  | Team_main  (** lane 0 of the extra warp (generic mode) *)
  | Worker
  | Inactive_main_lane  (** remaining lanes of the extra warp *)

val role : t -> tid:int -> role

val geometry : t -> Simd_group.t
(** Geometry of the active parallel region.
    @raise Failure when no parallel region is active. *)

val slot : t -> group:int -> simd_slot

val sync_warp : ctx -> unit
(** Masked warp-level barrier over the calling thread's SIMD group
    (CUDA [__syncwarp(simdmask())]).  A no-op for singleton groups.  On a
    device without explicit wavefront barriers (§5.4.1) it degrades to
    the implicit-lockstep alignment, which suffices for the SPMD path;
    generic-mode signalling cannot use it and is degraded to singleton
    groups by {!Parallel.parallel} before ever reaching here. *)

val sync_warp_arrive : ctx -> bool
(** {!sync_warp} as a stepped arrival ({!Gpusim.Engine.arrive}): [true]
    when the caller completed the rendezvous (or the group is a
    singleton), [false] when it parked. *)

val lockstep_arrive : ctx -> bool
(** {!lockstep_align} as a stepped arrival. *)

val team_barrier_wait : ctx -> unit
(** Block-wide barrier over workers + team main. *)

val lockstep_barrier : t -> Gpusim.Thread.t -> mask:int -> Gpusim.Barrier.t
(** The zero-cost alignment barrier for [th]'s (warp, mask) pair —
    {!lockstep_align}'s barrier resolution, exposed so the fused
    lockstep executor can feed the same barrier identity to the
    sanitizer taps without parking on it. *)

val san_warp_arrive : Gpusim.Thread.t -> mask:int -> Gpusim.Barrier.t -> unit
(** Report a warp-scope rendezvous on [bar] to Ompsan for one lane.  A
    load-and-branch when the sanitizer is disabled.  The runtime calls
    this before every engine wait; the fused lockstep executor calls it
    per lane at each round boundary so the shadow epochs advance exactly
    as they would under real barriers. *)

val lockstep_align : ctx -> unit
(** Align the SIMD group's virtual clocks without cost or counter
    traffic.  Models the implicit instruction-level lockstep of the
    lanes inside a simd workshare loop — on hardware the lanes of a warp
    advance together; the fiber engine runs them to completion one at a
    time, so without realignment their clocks would drift and
    same-instruction accesses would stop looking concurrent to the
    coalescing model.  A no-op for singleton groups. *)

val executing_threads : t -> int
(** How many threads execute the active parallel region's code: all
    workers in SPMD mode, one SIMD main per group in generic mode.
    @raise Failure when no region is active. *)

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

val invoke_microtask : ctx -> fn_id:int -> (unit -> unit) -> unit
(** Run an outlined region, charging the §5.5 dispatch cost: an if-cascade
    compare per known region when the id is in the table, the indirect-call
    penalty otherwise. *)

val charge_microtask : ctx -> fn_id:int -> unit
(** Charge the {!invoke_microtask} dispatch cost without running anything,
    for callers that follow up with a direct call. *)
