(** Per-thread (per-lane) execution context.

    Every simulated GPU thread carries a virtual clock.  Compute and memory
    costs advance the clock directly — no scheduler round-trip — so only
    synchronization suspends a fiber.  [clock] is the latency leg of the
    roofline (critical path); [busy] excludes barrier wait and feeds the
    throughput leg. *)

type engine_sched = ..
(** Extensible stash for the engine's per-domain scheduler: the engine
    adds its own constructor and parks a reference on every warp of the
    running block, turning the Domain.DLS lookup on each barrier
    arrival into a field load.  Reset to {!No_sched} when the block's
    [Engine.run_block] returns. *)

type engine_sched += No_sched

type mem_session = ..
(** Same pattern for the memory system's per-block L2 session; see
    {!Memory}. *)

type mem_session += No_session

type launch = {
  sanitize : bool;  (** the {!Ompsan} hooks are live *)
  inject : bool;  (** a fault plan is armed: the {!Fault} taps are live *)
  rmw_lock : bool;
      (** device atomics take the host read-modify-write lock: the
          launch simulates blocks on several domains *)
}
(** A launch's immutable debug and locking settings, stamped on every
    warp of its blocks so hot-path gates are field loads, never
    process-global reads.  Two launches with different settings can run
    at the same time on different domains. *)

val default_launch : launch
(** Everything off: a bare {!Engine.run_block}, or a launch without a
    pool. *)

type warp_state = {
  warp_index : int;
  launch : launch;  (** the settings of the launch running this warp *)
  lines : Linebuf.t;  (** coalescing window shared by the warp's lanes *)
  mutable esched : engine_sched;
  mutable msession : mem_session;
  mutable ae_keys : int array;
  mutable ae_gen : int array;
  mutable ae_cnt : int array;
  mutable ae_mask : int;
  mutable ae_filled : int;
      (** atomics per line since the last sync point (models RMW
          serialization contention), as an open-addressing table keyed
          by line+1 (0 = empty); entries are valid only while their
          [ae_gen] slot matches [atomic_gen], so bumping the generation
          at a barrier clears the table in O(1) *)
  mutable atomic_gen : int;
  memo_base : int array;
  memo_lo : int array;
  memo_line : int array;
  mutable memo_next : int;
      (** small LRU memoizing the address→line (coalescing key)
          computation for strided re-accesses; see {!Memory} *)
}

type state = {
  mutable clock : float;
  mutable busy : float;
  mutable simt_factor : float;
}
(** Timing state, nested in an all-float record so mutating it on the
    per-instruction hot path does not allocate.  [simt_factor] is the
    issue-slot inflation for divergent execution: a warp instruction
    occupies the whole warp's issue slots no matter how many lanes are
    active, so a thread running code that only 1-in-N of its warp's
    lanes executes (a SIMD main in a generic region, the team main
    alone in its warp) is charged N lane-cycles of throughput per cycle
    of latency.  1.0 when the warp is fully converged. *)

type t = {
  mutable block_id : int;  (** rewritten by {!reset} when a frame is recycled *)
  tid : int;  (** thread index within the block *)
  lane : int;  (** [tid mod warp_size] *)
  warp : warp_state;
  cfg : Config.t;
  mutable counters : Counters.t;  (** fresh per block, see {!reset} *)
  trace : Trace.t option;
  st : state;
  mutable step : t -> bool;
      (** the engine's resume hook: {!fiber} while the thread runs as an
          effect fiber; while it is parked as a stepped thread (see
          {!Engine.suspend_stepped}), the function the scheduler calls
          instead of resuming the fiber *)
}

val fiber : t -> bool
(** The resume hook of a thread that is not stepped. *)

val make_warp : cfg:Config.t -> launch:launch -> warp_index:int -> warp_state

val reset_warp : warp_state -> unit
(** Restore a warp to the state {!make_warp} builds (empty line buffer,
    atomic table and line memo, no stashes), so a finished block's warp
    can serve the next block of the same launch. *)

val sanitizing : t -> bool
(** The thread's launch runs the sanitizer: gate for {!Ompsan} hooks. *)

val injecting : t -> bool
(** The thread's launch has a fault plan armed: gate for {!Fault} taps. *)

val ae_bump : warp_state -> int -> int
(** [ae_bump w line] counts an atomic to [line] in the current epoch and
    returns how many the warp had already issued to that line since the
    last sync point (0 for the first). *)

val create :
  cfg:Config.t ->
  counters:Counters.t ->
  ?trace:Trace.t ->
  block_id:int ->
  tid:int ->
  warp:warp_state ->
  unit ->
  t

val reset : t -> block_id:int -> counters:Counters.t -> unit
(** Restore a thread to the state {!create} builds, for [block_id] and a
    fresh [counters]: zero clock and busy time, factor 1, not stepped. *)

val clock : t -> float
(** Current virtual time (latency leg). *)

val busy : t -> float
(** Issue work so far (throughput leg; excludes barrier wait). *)

val simt_factor : t -> float
(** Current divergence factor. *)

val tick : t -> float -> unit
(** Advance clock and busy time by a compute cost; the busy (throughput)
    charge is scaled by [simt_factor]. *)

val with_simt_factor : t -> float -> (unit -> 'a) -> 'a
(** Run a section under a given divergence factor, restoring the previous
    factor afterwards (exception-safe).
    @raise Invalid_argument if the factor is < 1. *)

val set_simt_factor : t -> float -> unit
(** Raw, unchecked divergence-factor store, for hand-inlined
    save/restore on hot paths where the [with_simt_factor] thunk would
    force the accumulator into a heap cell.  Callers own the restore;
    an exception between set and restore leaves the factor dirty (the
    runtime only does this where an exception aborts the whole
    simulation anyway). *)

val tick_wait : t -> float -> unit
(** Advance the clock only (stall, not issuing work). *)

val align_clock : t -> float -> unit
(** Raise the clock to at least the given time (barrier release). *)

val tracing : t -> bool
(** Whether tracing is on — guard for callers whose event detail is
    costly to format (the formatting would otherwise run even when
    [trace] discards it). *)

val trace : t -> tag:string -> string -> unit
(** Record an event against this thread's clock if tracing is on. *)
