(** Per-warp cached-lines model — the coalescing and L1-residency
    stand-in.

    Two effects are modelled on a line touch:

    - {b coalescing}: the first touch of a 128 B line by a warp is a full
      transaction (miss); nearby re-touches are free riders (hits).
      Lanes reading consecutive addresses therefore coalesce.
    - {b residency under concurrency}: the simulator runs each lane fiber
      to its next barrier, so lanes execute serially in host order even
      though their {e virtual} clocks overlap.  A real warp in lockstep
      keeps all lanes' working sets in cache simultaneously; to reproduce
      that pressure, a line only counts as resident if it was touched
      within the warp's residency window of {e virtual} time —
      [capacity / line-fetch-rate], where the rate is the warp's observed
      distinct-line fetches per virtual cycle.  A warp streaming many
      lines concurrently (e.g. one independent site per lane) evicts
      quickly; a SIMD group sharing one site keeps its lines resident.

    The window is infinite until the warp has fetched [capacity] distinct
    lines, so small working sets never thrash. *)

type t

type outcome =
  | Coalesced
      (** a {e new} lane joining an open burst: rides the transaction *)
  | Hit  (** resident in cache; charged a (possibly fractional) lookup *)
  | Miss  (** new transaction that also goes to DRAM *)

val create : capacity:int -> coalesce_window:float -> t
(** @raise Invalid_argument if capacity <= 0 or the window is negative. *)

type table
(** A buffer's stamp table, handed on for reuse by a later buffer (see
    {!table}). *)

val table : t -> table
(** [table t] gives up [t]'s stamp table so a later {!fork} or
    {!create_sized} can reuse it instead of allocating and growing a
    fresh one.  [t] must not be touched afterwards. *)

val create_sized :
  ?table:table -> demand:int -> capacity:int -> coalesce_window:float -> unit -> t
(** Behaviourally identical to {!create}, but the stamp table starts
    sized for [demand] distinct lines (never larger than {!create}'s) and
    grows with the observed footprint instead of being pre-sized to
    [capacity].  For short-lived buffers whose traffic is far below the
    modeled capacity (one block's L2 view, the committed L2 of a
    one-launch space): pre-sizing those from a device-scale capacity
    allocated hundreds of KiB each.  With [table], that table is emptied
    and used at the size it has, and [demand] is ignored.
    @raise Invalid_argument if capacity <= 0 or the window is negative. *)

val fork : ?table:table -> t -> t
(** [fork parent] is a snapshot view of [parent]: touches consult the
    parent's state as of the fork read-only and record updates privately
    (in [table], emptied, when given), so several forks of one parent can
    be touched from different domains concurrently.  A fork copies the
    parent's residency statistics when it is made and reads the parent's
    table on every touch, so the parent must not be mutated (touched,
    cleared) from the making of its first fork until its last fork is
    done; any update due to the parent goes in before that first fork.
    Used by {!Memory} to give every simulated thread block its own
    launch-start view of the device L2.
    @raise Invalid_argument when applied to a fork. *)

val touch_code : t -> vtime:float -> lane:int -> int -> int
(** Allocation-free variant of {!touch}: returns an integer code —
    0 = [Coalesced] (weight 0), 1 = [Hit] weight 1, 2 = [Miss] weight 1,
    and [k >= 3] a burst re-touch [Hit] of a [(k-2)]-lane burst, weight
    [1/(k-2)].  Decode with {!code_outcome} / {!code_weight}.  The hot
    accounting path uses this directly to avoid a tuple + boxed-float
    allocation per memory access. *)

val code_outcome : int -> outcome
val code_weight : int -> float

val touch : t -> vtime:float -> lane:int -> int -> outcome * float
(** [touch t ~vtime ~lane line] classifies the access and returns the
    transaction weight to charge: 1.0 for a lane touching alone, 0.0 for
    a new lane riding an open burst, and 1/(burst size) for re-touches
    inside a burst — so a group of k lanes walking a shared line in
    lockstep pays one transaction per instruction, k times less per lane
    than k independent walkers.  [vtime] is the accessing lane's virtual
    clock and [lane] its index in the warp, in [0, 64): a burst's lane
    set has a bit for each of a 64-lane wavefront's lanes, and its size
    is counted in constant time. *)

val is_resident : outcome -> bool
(** [Coalesced] or [Hit]. *)

val window : t -> float
(** Current residency window in virtual cycles ([infinity] while the
    footprint is below capacity). *)

val misses : t -> int
(** Distinct-line fetches so far. *)

val clear : t -> unit
(** Forget every touch, keeping the stamp table at the size it grew to. *)

val size : t -> int
val capacity : t -> int

val set_now : t -> float -> unit
(** Store the timestamp for a subsequent {!touch_line} (unboxed when the
    call inlines). *)

val touch_line : t -> lane:int -> int -> int
(** {!touch_code} with the timestamp taken from the last {!set_now}. *)
