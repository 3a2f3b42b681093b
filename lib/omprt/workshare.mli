(** Worksharing-loop schedulers.

    [distribute] splits iterations across the league of teams and
    [omp_for] across the OpenMP threads of the enclosing parallel
    region; the split across the lanes of a SIMD group (§5.5 / Fig 8)
    is the simd-loop machine of [Simd].

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

val step_cost : Team.ctx -> float
(** Per-iteration loop overhead (induction update, bound compare and
    branch), which every loop here and each lane's share of a simd
    loop's rounds ([Simd]) charge. *)

val sequential_loop : Team.ctx -> trip:int -> (int -> unit) -> unit
(** Plain sequential execution with loop-overhead costing; the degradation
    path for singleton groups and AMD generic mode (§5.4.1). *)

val single : Team.ctx -> (unit -> unit) -> unit
(** [omp single]: the block runs on exactly one lane of the region (the
    first OpenMP thread's SIMD main), followed by the construct's implicit
    barrier over the executing threads. *)

val master : Team.ctx -> (unit -> unit) -> unit
(** [omp master]: like {!single} but without the barrier, as the standard
    specifies. *)
