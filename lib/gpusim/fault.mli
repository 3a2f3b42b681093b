(** Deterministic fault injection and failure capture.

    A fault plan parsed from a spec ("kind=rate" tokens, comma
    separated; kinds [abort], [flip] (optionally [flip=rate:frac] with
    [frac] the fatal fraction), [stall], [exhaust]) and a seed — the
    [OMPSIMD_FAULTS] and [OMPSIMD_FAULT_SEED] knobs.  The plan travels
    on the launch's {!Pool} ({!Pool.create}[ ~faults]); this module holds
    no process-global state.  Every decision is drawn at block start from
    (plan seed, launch nonce, block_id), so injected faults are
    bit-identical across [OMPSIMD_DOMAINS], and the test-side reference
    walker draws the same faults as the staged evaluator.  The nonce is the pool's count of armed launches, so a
    relaunch of a failed request draws fresh faults and a fresh pool
    replays the identical sequence; a caller may pin it per launch
    ([Device.launch ~nonce]).

    Arming a plan — any plan on the pool, even with all-zero rates — or
    a positive watchdog cycle budget also switches {!Device.launch} from
    raising {!Engine.Deadlock} to reporting hung blocks as structured
    {!failure}s.  Disarmed, every tap sits behind one field load
    ({!Thread.injecting}) and reports are bit-identical to a build
    without this module. *)

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

type plan

val parse_spec : seed:int -> string -> plan
(** Parse a fault spec (["abort=0.1,flip=0.2:0.5"]); every rate must
    lie in [0,1].
    @raise Invalid_argument naming [OMPSIMD_FAULTS] on a malformed
    token. *)

val block_begin :
  plan -> nonce:int -> block_id:int -> num_threads:int -> warp_size:int -> unit
(** Draw this block's fault decisions from (plan seed, [nonce],
    [block_id]) and open them on the calling domain.
    @raise Invalid_argument if a block is already open on this domain. *)

val block_end : unit -> events
(** Close the calling domain's block, normally or on the exception
    path, and return what fired ({!no_events} when none is open). *)

val on_access : Thread.t -> unit
(** Global-access tap: aborts/flips fire at the victim's first access at
    or after the drawn trigger cycle.  @raise Fatal on a fatal fault. *)

val stall_here : Thread.t -> abandoned:Barrier.t -> Barrier.t option
(** Barrier-arrival tap: [Some b] directs the arriving thread to park on
    the never-completing barrier [b] instead of [abandoned]. *)

val exhaust_here : unit -> bool
(** Sharing-space tap: [true] forces the global-memory fallback. *)
