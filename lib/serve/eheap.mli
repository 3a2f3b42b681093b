(** Discrete-event queue for the virtual-time service loop: a binary
    min-heap on (time, rank, seq).  Rank 0 events (completions) sort
    before rank 1 events (arrivals) at the same tick, and the internal
    insertion sequence number breaks every remaining tie, so event
    order is total and deterministic. *)

type 'a t

val create : unit -> 'a t

val seeded : rank:int -> float array -> (int -> 'a) -> 'a t
(** [seeded ~rank times make] pops exactly as [create ()] followed by
    [push h times.(i) rank (make i)] for each index [i] in order, but
    holds only the times, read in time order by a cursor: one stable
    sort of the indices (one O(n) check when [times] is already in
    order), and [make i] runs when that event pops, so a seeded event
    is built only when it is due.  Later {!push}es sift a heap of only
    the events pushed since.  Times must be ordered (no NaN); [times]
    is the heap's from then on and must not change. *)

val push : 'a t -> float -> int -> 'a -> unit
(** [push h time rank v] schedules [v] at [time]; lower [rank] wins a
    same-tick tie, then earlier insertion. *)

val pop : 'a t -> (float * 'a) option
(** The earliest event, or [None] when the simulation is drained. *)
