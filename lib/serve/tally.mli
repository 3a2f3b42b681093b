(** Running event counts of the serve fleet: one counter per event.

    Each shard and each tenant keeps one tally, bumped at the event's
    single site in {!Fleet}.  Fleet-wide metrics are sums over the
    shard tallies, and a {!Telemetry} window's per-shard counts are the
    tally's change since the previous close. *)

type event =
  | Placed  (** a first arrival routed to this shard *)
  | Launch  (** a member launch (memo hits included) *)
  | Dev_failure  (** a launch that came back with failed blocks, or hung *)
  | Relaunch  (** a recovery relaunch scheduled after a device failure *)
  | Retry  (** a backoff re-arrival scheduled off this shard's queue *)
  | Steal  (** a request this shard pulled from a neighbour's queue *)
  | Batch  (** a merged grid of two or more members *)
  | Batched  (** a member riding a merged grid *)
  | Breaker_open  (** a breaker went closed or half-open -> open *)
  | Reopen  (** an open breaker fast-forwarded after a clean window *)
  | Grow  (** a pool token granted by the autoscaler *)
  | Shrink  (** a pool token returned *)
  | Lookup  (** a dispatched batch's compile-cache lookup *)
  | Lookup_hit  (** ... that found the kernel compiled or compiling *)
  | Violation  (** a completion whose latency exceeded the SLO *)
  | Recovered  (** a completion after at least one device failure *)
  | Memo_hit  (** a launch served from the content memo *)
  | Affinity_move  (** a first arrival routed off the plain content ring *)
  | Evicted  (** a queue slot reclaimed from the tenant by fair admission *)
  | Outcome of Scheduler.outcome  (** a request's terminal outcome *)
  | Cache of Scheduler.cache_status  (** a terminal request's cache status *)

val outcomes : Scheduler.outcome list
(** Every terminal outcome, in declaration order. *)

type t

val create : unit -> t
(** All counts zero. *)

val incr : t -> event -> unit
val add : t -> event -> int -> unit
val get : t -> event -> int

val sum : t array -> event -> int
(** The event's count summed over the tallies. *)

val diff : t -> since:t -> t
(** The counts added to [t] after [since] was copied from it. *)

val copy_into : t -> dst:t -> unit
