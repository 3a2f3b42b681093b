(** Execution modes for [teams] and [parallel] regions (§3.1, §3.2).

    [Generic] is the CPU-centric model: one main thread runs region code,
    the rest idle in a state machine until signalled with an outlined
    function.  [Spmd] is the GPU-centric model: every thread executes the
    region redundantly, assuming no side effects, and no signalling is
    needed. *)

type t = Generic | Spmd

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
