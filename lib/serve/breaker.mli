(** Per-kernel circuit breakers: one table per shard, keyed by the
    compile-cache key (the fleet's interned content id).

    A breaker is closed until [threshold] consecutive device failures of
    its key open it.  While open it sheds every dispatch of that key
    for a cooldown of [8 * backoff] ticks; after that the next dispatch
    goes through as the single half-open probe, and every other
    dispatch is shed while the probe is in flight.  A successful launch
    closes the breaker, a failed probe reopens it.  A threshold of 0
    disables the table: every dispatch is admitted and outcomes are not
    tracked. *)

type 'k t

val create : threshold:int -> backoff:float -> 'k t

val admit : 'k t -> 'k -> now:float -> [ `Admit | `Probe | `Shed ]
(** [`Admit]: closed.  [`Probe]: the cooldown has passed and this
    dispatch is the half-open probe (the caller launches it alone).
    [`Shed]: open, or another probe is in flight. *)

val success : 'k t -> 'k -> unit
(** A launch of the key came back healthy: close its breaker. *)

val failure : 'k t -> 'k -> now:float -> bool
(** A launch of the key failed.  True when this failure opened the
    breaker (the threshold was reached, or the probe failed). *)

val open_count : 'k t -> int
(** Breakers not closed: open or probing. *)

val fast_forward : 'k t -> at:float -> int
(** The all-clear after a window with no device failures: every
    breaker still inside its cooldown at tick [at] is moved to just
    past it, so its next dispatch is the half-open probe.  Returns how
    many moved; the result does not depend on table order. *)
