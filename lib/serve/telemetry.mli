(** Streaming telemetry: windowed fleet metrics sampled in virtual time.

    A window's per-shard counts are the change of the fleet's shard
    tallies ({!Tally}) since the previous close; the collector itself
    keeps only latency samples (ring-buffered per shard) and each
    window's queue peak.  {!advance} closes every window the event
    clock has crossed and hands it to the caller — the autoscaler and the
    SLO-aware admission gate evaluate on exactly these boundaries.

    With [emit] on, each closed window renders as deterministic JSONL:
    one line per shard with activity, ordered by the shard's member
    label (device name + index within its device group — never a shard
    id, which is what keeps the stream invariant under device
    shuffles), plus one fleet/control line once the caller's window
    decisions are made.  Nothing reads
    the host clock: the stream is byte-identical across [OMPSIMD_DOMAINS]
    and shuffles of the device multiset, like the snapshot JSON. *)

type sample = {
  sq_depth : int;  (** queued entries at the boundary *)
  sq_conc : int;  (** concurrency target (autoscaler-adjusted) *)
  sq_busy : int;  (** servers occupied at the boundary *)
  sq_breakers_open : int;  (** breakers not closed (open or probing) *)
}
(** Live shard state, sampled by the fleet at each window close. *)

type shard_window = {
  w_label : string;
  w_counts : Tally.t;
      (** the shard's tally change since the previous window closed *)
  w_queue_peak : int;  (** deepest queue observed inside the window *)
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

type control = {
  shedding : bool;  (** SLO admission state for the next window *)
  conc : int;  (** fleet-wide concurrency target *)
  pool_left : int;  (** autoscaler tokens not granted *)
  queued : int;  (** fleet-wide queue depth *)
  tenants : (string * int) list;
      (** fleet-wide queued occupancy per tenant, sorted by name *)
}
(** The control plane's state after its window-boundary decisions; the
    grows, shrinks and reopens it made are read off the tallies. *)

type t

val create :
  window:float -> emit:bool -> labels:string array -> tallies:Tally.t array ->
  base_conc:int -> t
(** Windows of [window] virtual ticks; [emit] collects the JSONL stream
    (observation, and the control loops it drives, is always on).  One
    collector slot per shard, keeping its latest 512 completion
    latencies per window: [labels.(sid)] is the shard's member
    label and fixes the emission order, [tallies.(sid)] the fleet's
    live tally of it, read at every close.  [base_conc] is the unscaled
    per-shard concurrency (a shard whose target differs from it counts
    as active even when idle).
    @raise Invalid_argument on a non-positive window. *)

val order : t -> int array
(** Shard ids in member-label order: the emission order. *)

val observe_latency : t -> shard:int -> float -> unit
(** A completion's latency on [shard], for the window's percentiles. *)

val observe_queue_depth : t -> shard:int -> int -> unit
(** Track the deepest queue seen inside the current window. *)

val advance :
  t -> float -> sample:(int -> sample) -> on_close:(window -> control) -> unit
(** Close every window whose end is <= the event clock, in order: per
    window, emit its shard lines, run [on_close] (the control plane's
    decisions), then emit its fleet/control line.  [sample] reads the
    live state of a shard at the boundary.  Call before processing each
    event. *)

val finish :
  t -> sample:(int -> sample) -> on_close:(window -> control) -> unit
(** Close the final partial window, if it saw any activity. *)

val jsonl : t -> string
(** The accumulated JSONL stream; empty when [emit] is off. *)
