(** Streaming telemetry: windowed fleet metrics sampled in virtual time.

    The fleet feeds observations into per-shard ring-buffered window
    accumulators; {!advance} closes every window the event clock has
    crossed and hands it to the caller — the autoscaler and the
    SLO-aware admission gate evaluate on exactly these boundaries.

    With [emit] on, each closed window renders as deterministic JSONL:
    one line per shard with activity, ordered by the shard's member
    label (device name + index within its device group — never a shard
    id, which is what keeps the stream invariant under device
    shuffles), plus one fleet/control line appended by the caller via
    {!emit_control} once its window decisions are made.  Nothing reads
    the host clock: the stream is byte-identical across [OMPSIMD_DOMAINS]
    and shuffles of the device multiset, like the snapshot JSON. *)

type config = {
  window : float;  (** virtual ticks per window *)
  ring : int;  (** latency samples retained per shard per window *)
  emit : bool;  (** collect the JSONL stream (observation is always on) *)
}

type sample = {
  sq_depth : int;  (** queued entries at the boundary *)
  sq_conc : int;  (** concurrency target (autoscaler-adjusted) *)
  sq_busy : int;  (** servers occupied at the boundary *)
  sq_breakers_open : int;  (** breakers not closed (open or probing) *)
}
(** Live shard state, sampled by the fleet at each window close. *)

type shard_window = {
  w_shard : int;
  w_label : string;
  w_completed : int;
  w_shed : int;
  w_shed_slo : int;
  w_timed_out : int;
  w_failed : int;
  w_degraded : int;
  w_launches : int;
  w_dev_failures : int;
  w_relaunches : int;
  w_steals : int;
  w_lookups : int;
  w_hits : int;
  w_queue_peak : int;
  w_violations : int;  (** completions over the SLO inside the window *)
  w_samples : int;
  w_p50 : float;
  w_p95 : float;
  w_p99 : float;
  w_sample : sample;
}

type window = {
  index : int;
  t0 : float;
  t1 : float;
  per_shard : shard_window array;  (** in shard-id order *)
  f_samples : int;
  f_p99 : float;  (** fleet-wide, over every shard's retained samples *)
  f_active : bool;  (** at least one shard line had activity *)
}

type t

val create : config -> labels:string array -> base_conc:int -> t
(** One accumulator per shard; [labels.(sid)] is the shard's member
    label and fixes the emission order. [base_conc] is the unscaled
    per-shard concurrency (a shard whose target differs from it counts
    as active even when idle).
    @raise Invalid_argument on a non-positive window or ring. *)

val observe_terminal :
  t -> shard:int -> Scheduler.outcome -> latency:float -> slo:float option -> unit
(** A request reached its terminal outcome on [shard]; completions feed
    the latency ring and, when over [slo], the violation counter. *)

val observe_launch : t -> shard:int -> failed:bool -> unit
val observe_relaunch : t -> shard:int -> unit
val observe_steal : t -> shard:int -> unit
val observe_cache : t -> shard:int -> hit:bool -> unit

val observe_queue_depth : t -> shard:int -> int -> unit
(** Track the deepest queue seen inside the current window. *)

val advance :
  t -> float -> sample:(int -> sample) -> on_close:(window -> unit) -> unit
(** Close every window whose end is <= the event clock, invoking
    [on_close] per window in order; [sample] reads the live state of a
    shard at the boundary. Call before processing each event. *)

val finish :
  t -> sample:(int -> sample) -> on_close:(window -> unit) -> unit
(** Close the final partial window, if it saw any activity. *)

val emit_control :
  t ->
  window ->
  shedding:bool ->
  grows:int ->
  shrinks:int ->
  reopens:int ->
  conc:int ->
  pool_left:int ->
  queued:int ->
  tenants:(string * int) list ->
  unit
(** Append the window's fleet/control line (SLO admission state and
    autoscaler actions); [tenants] is the fleet-wide queued occupancy,
    already sorted by name. *)

val jsonl : t -> string
(** The accumulated JSONL stream; empty when [emit] is off. *)
