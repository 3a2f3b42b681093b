(** A small fixed pool of OCaml 5 domains for block-parallel simulation.

    Thread blocks are independent by construction (each owns its
    {!Shared.arena}, {!Counters.t} and warp caches), so {!Device.launch}
    can fan their simulation out over host cores.  The pool keeps the
    scheduling deterministic-by-construction: workers race only for
    {e indices}; the result for index [i] always lands in slot [i], so the
    caller sees the same array regardless of which domain ran what.

    Worker count is always explicit; entry points size their pool from
    the [OMPSIMD_DOMAINS] knob, whose policy caps requests at
    [Domain.recommended_domain_count () - 1]. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains] worker domains (default [0], a
    sequential pool).  The submitting domain participates in
    {!parallel_init} as well, but a zero-worker pool runs everything
    inline with no synchronization at all.
    @raise Invalid_argument on a negative [domains]. *)

val size : t -> int
(** Number of worker domains (0 for a sequential pool). *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is observably [Array.init n f]: slot [i]
    holds [f i].  Indices are claimed by an atomic fetch-add, so any
    domain may run any index, but all [n] tasks complete before the call
    returns.  If one or more tasks raise, the exception with the {e
    lowest} index is re-raised (matching what a sequential left-to-right
    run would surface first); the remaining tasks still run to
    completion.  Not reentrant: [f] must not call [parallel_init] on the
    same pool. *)

val shutdown : t -> unit
(** Join all worker domains.  The pool must not be used afterwards.
    Leaving a pool running at process exit is harmless (workers are
    parked on a condition variable), but explicit shutdown keeps e.g.
    benchmark harnesses tidy. *)
