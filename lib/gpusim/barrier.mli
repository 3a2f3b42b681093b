(** Reusable rendezvous barriers.

    A barrier releases all participants once [expected] threads have
    arrived, setting every participant's clock to the *maximum* arrival
    clock plus [cost].  This max-rule is what makes idle-lane waste and
    state-machine hand-off overhead visible in simulated time: a lane that
    arrives early simply absorbs the latest arriver's clock.

    Barriers are reusable (generation-style): after a release the barrier is
    empty and can be waited on again, which is how the SIMD state machine
    loops on the same masked barrier.

    Parked waiters live in a flat array rather than a list of waiter
    records: the barrier path runs hundreds of thousands of times per
    launch, and the flat layout keeps each park/release allocation-free
    (see the engine's scheduler ring for the other half).  A barrier
    holds threads only; the engine keeps each parked fiber's
    continuation, and a thread that finished at the barrier has none. *)

type t

val create : ?name:string -> ?spin:bool -> expected:int -> cost:float -> unit -> t
(** [spin] (default [false]) marks a software spin barrier: its whole
    [cost] occupies issue slots (a spin loop retires instructions),
    where a hardware barrier's cost beyond the issue of the instruction
    itself is hideable pipeline-drain stall.
    @raise Invalid_argument if [expected <= 0]. *)

val create_named :
  namer:(int -> int -> string) ->
  a:int ->
  b:int ->
  ?spin:bool ->
  expected:int ->
  cost:float ->
  unit ->
  t
(** Like {!create}, but the display name is [namer a b], formatted the
    first time {!name} is read and cached.  Runtime layers create many
    barriers whose names only a stall report or the sanitizer reads. *)

val rename : t -> int -> unit
(** [rename t a] replaces the first name argument of a {!create_named}
    barrier (e.g. the block id when a recycled block frame reuses the
    barrier for another block); the name is re-formatted on demand. *)

val id : t -> int
(** Process-unique identity, stable for the barrier's lifetime.  Two
    distinct barriers never share an id even when they share a [name] —
    bookkeeping (e.g. the engine's live-barrier table) must key on this,
    not on the display name. *)

val name : t -> string
val expected : t -> int
val waiting : t -> int
(** Threads currently parked. *)

val try_complete : t -> Thread.t -> bool
(** [try_complete t th] checks whether [th]'s arrival is the last one
    expected.  If so it performs the release — every participant's clock
    (including [th]'s) is aligned to the max and advanced by [cost] — and
    returns [true]; the caller must then drain the parked waiters with
    {!waiter} and {!clear}.  Otherwise returns [false] without touching
    the barrier: the caller must park [th] with {!park}.  Letting the last arriver skip the
    suspend/capture round-trip entirely is the engine's barrier fast
    path. *)

val waiter : t -> int -> Thread.t
(** Parked waiter [i] (0 <= i < {!waiting}), in arrival order.  Only
    meaningful between a successful {!try_complete} and the matching
    {!clear}. *)

val clear : t -> unit
(** Reset the waiter count after draining a completed release. *)

val live_mark : t -> bool
val set_live_mark : t -> unit
val clear_live_mark : t -> unit
(** Registration flag for the engine's live-barrier table (the deadlock
    report): set on a run's first park, cleared when that run completes,
    so a barrier reused by the next block registers again. *)

val park : t -> Thread.t -> unit
(** Park a thread (an arrival that did not complete the barrier). *)
