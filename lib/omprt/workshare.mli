(** Worksharing-loop schedulers.

    [distribute] splits iterations across the league of teams, [omp_for]
    across the OpenMP threads of the enclosing parallel region, and
    [simd_loop] across the lanes of a SIMD group (§5.5 / Fig 8).

    With three-level parallelism an "OpenMP thread" is a whole SIMD group:
    in generic mode only the group's main executes region code, in SPMD
    mode every lane executes it redundantly, and either way the group is
    one worker from the worksharing loop's point of view.  When
    [simdlen = 1] each group is a single thread and the classic two-level
    behaviour falls out. *)

type schedule =
  | Static  (** round-robin single iterations (stride = #workers) *)
  | Chunked of int  (** round-robin chunks of the given size *)
  | Dynamic of int
      (** [schedule(dynamic,chunk)]: OpenMP threads grab chunks from a
          shared counter with atomic fetch-adds — pays synchronization but
          absorbs iteration imbalance.  Supported within a team ([omp for]
          and the within-team half of the combined construct); the
          across-teams distribution stays static, as LLVM's
          [dist_schedule] does. *)

val iterations : schedule -> id:int -> num:int -> trip:int -> int list
(** The iteration set worker [id] of [num] receives under a {e static}
    schedule — exposed for tests; the property suite checks these sets
    partition \[0, trip).  [Dynamic] has no static iteration set.
    @raise Invalid_argument on invalid id/num/trip, chunk <= 0, or a
    dynamic schedule. *)

val distribute :
  Team.ctx -> ?schedule:schedule -> trip:int -> (int -> unit) -> unit
(** Split across teams.  The static schedule assigns one contiguous chunk
    of [ceil(trip/teams)] iterations per team (LLVM's default
    [dist_schedule]); [Chunked] round-robins chunks across teams. *)

val omp_for :
  Team.ctx -> ?schedule:schedule -> trip:int -> (int -> unit) -> unit
(** Split across the active parallel region's OpenMP threads (= SIMD
    groups).  @raise Failure outside a parallel region. *)

val distribute_parallel_for :
  Team.ctx -> ?schedule:schedule -> trip:int -> (int -> unit) -> unit
(** Combined construct: split across (team, OpenMP-thread) pairs. *)

val simd_loop : Team.ctx -> trip:int -> (int -> unit) -> unit
(** The paper's [__simd_loop] (Fig 8): a warp-synchronized round-robin of
    the iteration space over the lanes of the calling thread's SIMD group
    ([iv = getSimdGroupId(); iv += getSimdGroupSize()]).

    The lockstep rounds run {e fused}: after the entry
    rendezvous a single lane executes every lane's iterations round-major
    in ascending lane order, replicating the per-lane cost accounting and
    aligning the group's clocks at each round boundary, instead of
    parking each lane on a zero-cost barrier per round.  This removes the
    dominant fiber-switch traffic of simd-heavy kernels; the simulated
    schedule is the canonical SIMT instruction order (same-round accesses
    share the coalescing window and the warp's atomic epoch).
    Fault-injected runs (and teams with a dynamic schedule in flight)
    fall back to the classic barrier-per-round execution, so stall
    faults keep their park points. *)

(** {2 Loop pieces for stepped workers}

    {!simd_loop} and {!simd_fold_sum} split at their rendezvous, for the
    SIMD state machine ([Simd]), whose workers run their rounds as
    engine steps between stepped arrivals.  Run in the order the loops
    above do, they perform exactly the same ticks, counters and taps. *)

val fusing : Team.ctx -> bool
(** Whether a simd loop entered now runs fused: no dynamic schedule in
    flight and no fault plan armed. *)

val fused_enter : Team.ctx -> Simd_group.t -> tid:int -> trip:int -> int
(** Deposit the lane's handle and trip count for the fused driver and
    return the group's sequence number; the caller deposits its body in
    [fused_fns] (or [fused_reds] for a sum fold), then arrives at the
    entry rendezvous. *)

val fused_fallback :
  Team.ctx ->
  Simd_group.t ->
  tid:int ->
  num:int ->
  trip:int ->
  my_seq:int ->
  fold:bool ->
  bool
(** After the entry rendezvous: if no lane drove the group yet and the
    trip counts agree, drive every lane's rounds (a sum fold leaves each
    lane's total in [fused_acc]).  [true] when the trip counts diverge
    and this lane must run its own classic rounds. *)

val drop_fn : int -> unit
val drop_red : int -> float
(** Placeholders a lane stores over its deposited body at loop exit. *)

val classic_begin : Team.ctx -> int
(** Start classic rounds; returns the sanitizer actor to restore. *)

val classic_rounds : num:int -> trip:int -> int
(** Lockstep rounds of a loop of [trip] over a group of [num]. *)

val classic_simd_round :
  Team.ctx -> id:int -> num:int -> trip:int -> int -> (int -> unit) -> unit
(** Round [r] of lane [id]: loop overhead and, unless masked off, the
    body under the remainder-round divergence factor.  A lockstep
    rendezvous follows every round. *)

val classic_fold_round :
  Team.ctx -> id:int -> num:int -> trip:int -> int -> (int -> float) -> float ->
  float
(** {!classic_simd_round} for a sum fold: returns the accumulator. *)

val classic_end : Team.ctx -> int -> unit
(** Finish classic rounds: restore the actor, charge the loop exit. *)

val sequential_loop : Team.ctx -> trip:int -> (int -> unit) -> unit
(** Plain sequential execution with loop-overhead costing; the degradation
    path for singleton groups and AMD generic mode (§5.4.1). *)

val simd_fold_sum : Team.ctx -> trip:int -> (int -> float) -> float
val sequential_fold_sum : Team.ctx -> trip:int -> (int -> float) -> float
(** Sum-specialized counterparts of {!simd_loop}/{!sequential_loop}: the
    per-iteration results are added into an accumulator that stays in a
    register instead of flowing through a boxed [ref]/[combine] closure
    pair.  The tick sequence is identical to the generic loops, so
    simulated reports are unchanged. *)

val single : Team.ctx -> (unit -> unit) -> unit
(** [omp single]: the block runs on exactly one lane of the region (the
    first OpenMP thread's SIMD main), followed by the construct's implicit
    barrier over the executing threads. *)

val master : Team.ctx -> (unit -> unit) -> unit
(** [omp master]: like {!single} but without the barrier, as the standard
    specifies. *)
