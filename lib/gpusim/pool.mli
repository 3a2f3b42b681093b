(** A small fixed pool of OCaml 5 domains for block-parallel simulation.

    Thread blocks are independent by construction (each owns its
    {!Shared.arena}, {!Counters.t} and warp caches), so {!Device.launch}
    can fan their simulation out over host cores.  The pool keeps the
    scheduling deterministic-by-construction: workers race only for
    {e indices}; the result for index [i] always lands in slot [i], so the
    caller sees the same array regardless of which domain ran what.

    Worker count is always explicit; entry points size their pool from
    the [OMPSIMD_DOMAINS] knob, whose policy caps requests at
    [Domain.recommended_domain_count () - 1].

    The pool is also the launch context: the one value that reaches
    {!Device.launch} from every caller carries the launch's immutable
    debug settings — sanitizer, fault plan, watchdog — plus its own
    fault-launch counter and the sanitizer findings of aborted blocks.
    No launch setting is process-global, so launches on different pools
    may run at the same time with different settings.  Entry points
    build their pool with [Knobs.pool]; an omitted pool means all off.

    The pool also carries state from launch to launch ({!take_frames},
    {!take_buffers}): the next launch on the same pool reuses a
    launch's L2-view buffers, and its engine frames when it has the
    same shape. *)

type t

val take_buffers : t -> Memory.buffers option
(** The L2-view buffers the last launch left, if any, removed from the
    pool until {!give_buffers} (safe from any domain). *)

val give_buffers : t -> Memory.buffers -> unit
(** Keep a launch's L2-view buffers for a later launch, in place of
    any kept before. *)

val take_frames :
  t -> cfg:Config.t -> block:int -> launch:Thread.launch -> Engine.frames option
(** The engine frames the last launch left, if that launch had the same
    config, block size and launch settings; removed from the pool until
    {!give_frames} (safe from any domain).  Frames of another shape stay
    on the pool. *)

val give_frames :
  t -> cfg:Config.t -> block:int -> launch:Thread.launch -> Engine.frames -> unit
(** Keep a launch's engine frames for a later launch of its shape, in
    place of any kept before: the pool holds the frames of one shape.
    Given frames hold only the state of blocks that completed. *)

val create :
  ?sanitize:bool ->
  ?faults:Fault.plan ->
  ?watchdog:float ->
  ?domains:int ->
  unit ->
  t
(** [create ~domains ()] spawns [domains] worker domains (default [0], a
    sequential pool).  The submitting domain participates in
    {!parallel_init} as well, but a zero-worker pool runs everything
    inline with no synchronization at all.  [sanitize] (default off)
    runs every launch under {!Ompsan}; [faults] arms the fault plan;
    [watchdog] is the per-block cycle budget (default [0.], off).
    @raise Invalid_argument on a negative [domains]. *)

val size : t -> int
(** Number of worker domains (0 for a sequential pool). *)

val sanitize : t -> bool
val faults : t -> Fault.plan option
val watchdog : t -> float

val next_nonce : t -> int
(** Count one armed launch and return its fault nonce: 1 for the pool's
    first, so a fresh pool replays the same fault sequence. *)

val stash_aborted : t -> Ompsan.finding list -> unit
(** Keep the sanitizer findings of a block that aborted (safe from any
    domain). *)

val take_aborted : t -> Ompsan.finding list
(** The findings stashed since the last call, oldest first; clears them.
    A sanitized kernel that deadlocks raises before its report exists,
    so this is where its divergence findings are read. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is observably [Array.init n f]: slot [i]
    holds [f i].  Indices are claimed by an atomic fetch-add, so any
    domain may run any index, but all [n] tasks complete before the call
    returns.  If one or more tasks raise, the exception with the {e
    lowest} index is re-raised (matching what a sequential left-to-right
    run would surface first); the remaining tasks still run to
    completion.  Not reentrant: [f] must not call [parallel_init] on the
    same pool. *)

val shutdown : t -> unit
(** Join all worker domains.  The pool must not be used afterwards.
    Leaving a pool running at process exit is harmless (workers are
    parked on a condition variable), but explicit shutdown keeps e.g.
    benchmark harnesses tidy. *)
