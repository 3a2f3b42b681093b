(** The fleet autoscaler: a deterministic hysteresis control loop
    evaluated on telemetry-window boundaries.

    Scale-up never allocates: a pre-created pooled budget of executor
    tokens is moved between the pool and the shards.  A shard grows
    when its windowed p99 exceeds the SLO (or it stalls with queued
    work past its target), shrinks only when idle below [down] x SLO —
    the dead band in between, plus a per-shard cooldown, is what keeps
    a square-wave load from oscillating the target.  Shards are
    evaluated in the caller-supplied order (the fleet passes
    member-label order), so pool contention resolves identically under
    device shuffles, and every decision is a pure function of the
    window stats — the scaling schedule replays byte-identically. *)

type config = {
  enabled : bool;
  slo : float;  (** virtual ticks *)
  budget : int;  (** pooled extra executor tokens, fleet-wide *)
  max_extra : int;  (** cap on pool tokens held by one shard *)
  down : float;  (** shrink band: p99 below [down * slo] releases a token *)
  cooldown : int;  (** windows a shard holds still after an action *)
}

val disabled : config
(** The loop off.  With an SLO set, the [OMPSIMD_SERVE_AUTOSCALE],
    [OMPSIMD_SERVE_BUDGET] and [OMPSIMD_SERVE_COOLDOWN] knobs (parsed by
    [Knobs]) arm it instead. *)

type verdict = Grow | Shrink | Hold

type stat = {
  p99 : float;  (** effective windowed p99 (carried forward when stale) *)
  queued : int;  (** queue depth at the window boundary *)
  conc : int;  (** current concurrency target *)
}

val decide : config -> stat -> verdict
(** The pure control law, before budget/cap/cooldown bookkeeping. *)

type t

val create : config -> shards:int -> t
(** Fresh state: every shard at zero extra, the pool full.
    @raise Invalid_argument on a negative budget. *)

val pool_left : t -> int
val extra : t -> int -> int

type action = { a_shard : int; a_verdict : verdict }

val step : t -> window:int -> order:int array -> stats:stat array -> action list
(** One control-loop evaluation at a window boundary: applies
    {!decide} per shard in [order] under the cooldown, the per-shard
    cap and the pooled budget, mutating the held-token state and
    returning the actions taken (in [order]).  Empty when disabled. *)
