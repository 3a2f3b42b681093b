(** Optional event trace.

    When a trace sink is attached to a launch, the engine and the layers
    above it record timestamped events (barrier arrivals, state-machine
    transitions, sharing-space fallbacks...).  Tests use traces to assert
    ordering properties; benchmarks run without one. *)

type event = { time : float; block : int; tid : int; tag : string; detail : string }

type t

val create : unit -> t

val record : t option -> time:float -> block:int -> tid:int -> tag:string -> string -> unit
(** No-op on [None], so call sites can stay unconditional. *)

val events : t -> event list
(** In recording order. *)

val count : t -> tag:string -> int


