(** Discrete-event queue for the virtual-time service loop: a binary
    min-heap on (time, rank, seq).  Rank 0 events (completions) sort
    before rank 1 events (arrivals) at the same tick, and the internal
    insertion sequence number breaks every remaining tie, so event
    order is total and deterministic. *)

type 'a t

val create : unit -> 'a t

val seeded : rank:int -> (float * 'a) list -> 'a t
(** [seeded ~rank evs] pops exactly as [create ()] followed by
    [push h time rank v] for each [(time, v)] of [evs] in list order,
    but holds the seed in a time-sorted array read by a cursor: one
    stable sort (one O(n) check when [evs] is already in time order),
    and later {!push}es sift a heap of only the events pushed since.
    Times must be ordered (no NaN). *)

val push : 'a t -> float -> int -> 'a -> unit
(** [push h time rank v] schedules [v] at [time]; lower [rank] wins a
    same-tick tie, then earlier insertion. *)

val pop : 'a t -> (float * 'a) option
(** The earliest event, or [None] when the simulation is drained. *)
