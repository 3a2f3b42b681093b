(** Simulated global (device) memory.

    Arrays carry both real OCaml storage (so kernels compute real results
    that tests can verify against references) and a base byte address (so
    the coalescing model can reason about lines).  Every device-side access
    goes through a [Thread.t] and is charged to its clock and counters;
    host-side accessors ([host_get] etc.) are free and used for
    initialization and verification only.

    Elements are modelled as 8 bytes (double / 64-bit index) which matches
    the paper's workloads. *)

type space
(** A device's global address space (an address allocator). *)

val space : unit -> space

val element_bytes : int
(** 8 *)

type farray
type iarray

val falloc : space -> int -> farray
(** Zero-initialized float array of the given length.
    @raise Invalid_argument on negative length. *)

val ialloc : space -> int -> iarray

val of_float_array : space -> float array -> farray
(** Copy host data to a fresh device array. *)

val of_int_array : space -> int array -> iarray

val flength : farray -> int
val ilength : iarray -> int

val space_of_farray : farray -> space

val l2_reset : space -> unit
(** Cold-start the device-level L2 model.  Benchmark runners call this
    before each kernel launch so that back-to-back runs over the same
    data measure the same thing.  Commits not yet replayed (see
    {!session_commit}) are dropped unread; the L2's stamp table is
    emptied in place and keeps the size it grew to. *)

(** {2 Per-block L2 sessions}

    The device L2 is the only simulator state shared between thread
    blocks.  {!Device.launch} brackets each block's simulation in a
    session: while a session is open on the current domain, L2 lookups
    hit a private fork of the committed L2 (its state as of launch
    start) and the touch sequence is logged.  The launcher commits all
    block logs in ascending block_id order once every block is done,
    which makes block simulation order-independent — the prerequisite
    for multicore fan-out.
    Without an open session (e.g. a bare {!Engine.run_block}) accesses
    touch the committed L2 directly. *)

type buffers
(** A launch's free lists of L2-view storage (stamp tables and touch-log
    arrays): a session returns its views' storage here when it ends, and
    later sessions of the launch reuse it.  Safe to share between the
    domains of one launch. *)

val buffers : unit -> buffers
(** Empty free lists; make one per launch, so the storage dies with it. *)

type block_session

val session_begin : buffers -> unit
(** Open a session on the calling domain, taking its views' storage
    from (and returning it to) the given free lists.
    @raise Invalid_argument if one is already open. *)

val session_end : unit -> block_session
(** Close the current domain's session and return its L2 touch logs for
    a later {!session_commit}.  @raise Invalid_argument if none is open. *)

val session_commit : block_session -> unit
(** Queue the session's L2 touch logs on their spaces, reserving each
    log's stretch of the space's touch counter.  The queue is replayed
    into the committed L2, in commit order and at the reserved counter
    values, when that L2 is next read: by a session's first lookup in
    the space (before it forks the L2) or by an access outside any
    session.  So the L2 a later launch reads is exactly the one an
    immediate replay would have left.  Call once per session, from a
    single domain, in ascending block_id order. *)

val line_of : Thread.t -> base:int -> index:int -> int
(** The coalescing key of element [index] of the array at byte address
    [base]: [(base + index * element_bytes) / line_bytes].  Memoized per
    warp (a 4-slot LRU keyed by array base, serving strided re-accesses
    within a line); exposed so tests can hold the memo to the plain
    division. *)

val fget : farray -> Thread.t -> int -> float
(** Device load: charged issue cost, plus a transaction (line bytes +
    latency) when the warp had not touched the line recently.
    @raise Invalid_argument on out-of-bounds. *)

val fset : farray -> Thread.t -> int -> float -> unit
val iget : iarray -> Thread.t -> int -> int
val iset : iarray -> Thread.t -> int -> int -> unit

val atomic_fadd : farray -> Thread.t -> int -> float -> unit
(** Atomic read-modify-write add.  It returns nothing: a float result
    would be boxed on every call, and no kernel reads it.  Charged the
    atomic cost plus a contention penalty growing with the number of
    atomics already performed on the same line by this warp since the last
    block-wide barrier. *)

val atomic_iadd : iarray -> Thread.t -> int -> int -> int

(** Device atomics take their space's host-side read-modify-write lock
    only when their launch simulates blocks on several domains
    ({!Thread.launch}[.rmw_lock]); the decision is per launch, so a
    sequential launch never changes a concurrent pooled one.  Never
    affects simulated results. *)

val host_get : farray -> int -> float
(** Cost-free host access (verification / init). *)

val host_set : farray -> int -> float -> unit
val host_geti : iarray -> int -> int
val host_seti : iarray -> int -> int -> unit
val to_float_array : farray -> float array
val to_int_array : iarray -> int array
val fill : farray -> float -> unit
