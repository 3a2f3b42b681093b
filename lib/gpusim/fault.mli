(** Deterministic fault injection and failure capture.

    A fault plan parsed from a spec ("kind=rate" tokens, comma
    separated; kinds [abort], [flip] (optionally [flip=rate:frac] with
    [frac] the fatal fraction), [stall], [exhaust]) and a seed — the
    [OMPSIMD_FAULTS] and [OMPSIMD_FAULT_SEED] knobs — and {!install}ed
    once by the entry point.  Every decision is drawn at block start from
    (plan seed, launch nonce, block_id), so injected faults are
    bit-identical across [OMPSIMD_DOMAINS] and both [OMPSIMD_EVAL]
    engines; the nonce counts armed launches so a relaunch of a failed
    request draws fresh faults, and {!reset} rewinds it so replaying a
    whole trace reproduces the identical fault sequence.

    Arming a plan — any installed plan, even with all-zero rates — or
    installing a positive watchdog cycle budget also switches
    {!Device.launch} from raising {!Engine.Deadlock} to reporting hung
    blocks as structured {!failure}s.  Disarmed, every hook is a single
    load-and-branch and reports are bit-identical to a build without
    this module. *)

type kind =
  | Block_abort  (** injected asynchronous block abort *)
  | Ecc_fatal  (** uncorrectable bit flip *)
  | Barrier_stall  (** a thread parked forever short of a rendezvous *)
  | Watchdog  (** block exceeded the cycle budget *)

val kind_label : kind -> string

type failure = {
  f_kind : kind;
  f_block : int;
  f_warp : int;  (** -1 when not warp-specific *)
  f_tid : int;  (** -1 when not thread-specific *)
  f_barrier : string;
      (** display name(s) of the involved barrier(s); "" when none.
          Deliberately the {e name}, not {!Barrier.id}: ids are
          process-unique atomics whose allocation order depends on the
          pool interleaving, names are deterministic. *)
  f_cycle : float;
}

val failure_to_string : failure -> string
(** Deterministic one-line rendering (used by reports and tests). *)

type stats = {
  corrected : int;  (** ECC-correctable flips, repaired in place *)
  fatal : int;  (** injected aborts + uncorrectable flips *)
  stalls : int;  (** barrier-stall failures (injected or genuine) *)
  exhausts : int;  (** sharing acquires forced onto the global fallback *)
  watchdogs : int;  (** blocks over the [OMPSIMD_WATCHDOG] budget *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type events = {
  ev_corrected : int;
  ev_exhausts : int;
  ev_stall : failure option;  (** the injected stall, when one fired *)
}

val no_events : events

exception Fatal of failure
(** Raised by {!on_access} inside the victim thread's fiber; caught by
    [Device.simulate_block] and turned into a failed block. *)

val armed : bool ref
(** Hot-path gate: hooks are behind [if !Fault.armed]. *)

type plan

val parse_spec : seed:int -> string -> plan
(** Parse a fault spec (["abort=0.1,flip=0.2:0.5"]); every rate must
    lie in [0,1].
    @raise Invalid_argument naming [OMPSIMD_FAULTS] on a malformed
    token. *)

val install : plan option -> watchdog:float -> unit
(** Arm ([Some plan]) or disarm ([None]) fault injection and set the
    per-block watchdog cycle budget (0 = off).  An unchanged plan keeps
    the launch nonce; a changed (or cleared) plan resets it. *)

val reset : unit -> unit
(** Rewind the launch nonce so the next armed launch replays the fault
    sequence from the start (trace replays, determinism tests). *)

val watchdog_budget : unit -> float
(** The per-block cycle budget; 0 = watchdog off. *)

val capture_deadlocks : unit -> bool
(** Whether [Device.launch] converts deadlocks into structured failures
    (armed plan or positive watchdog budget) instead of re-raising. *)

val launch_begin : unit -> unit
(** Called once per [Device.launch]; bumps the nonce when armed. *)

val with_nonce : int -> (unit -> 'a) -> 'a
(** [with_nonce n f] runs [f] with the next armed launch drawing its
    faults at exactly nonce [n], restoring the counter afterwards so
    surrounding sequential launches are unaffected.  This is how the
    serve fleet makes injection a pure function of (plan, request,
    attempt) instead of global dispatch order: batched, sharded and
    solo replays of the same request inject identical faults.  A no-op
    when disarmed. *)

val block_begin : block_id:int -> num_threads:int -> warp_size:int -> unit
(** Draw this block's fault decisions (no-op when disarmed).
    @raise Invalid_argument if a block is already open on this domain. *)

val block_end : unit -> events
val block_abort : unit -> events
(** Close the block and return what fired; {!block_abort} is the
    exception-path variant (same behaviour, named for symmetry with
    {!Ompsan}). *)

val on_access : Thread.t -> unit
(** Global-access tap: aborts/flips fire at the victim's first access at
    or after the drawn trigger cycle.  @raise Fatal on a fatal fault. *)

val stall_here : Thread.t -> abandoned:Barrier.t -> Barrier.t option
(** Barrier-arrival tap: [Some b] directs the arriving thread to park on
    the never-completing barrier [b] instead of [abandoned]. *)

val exhaust_here : unit -> bool
(** Sharing-space tap: [true] forces the global-memory fallback. *)
