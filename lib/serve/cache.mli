(** Bounded compiled-kernel cache with LRU eviction, for one domain.

    Keys are the caller's compile identity, polymorphic so a caller can
    key by an interned id: anything that determines the artifact, as
    {!Openmp.Offload.cache_key} does.  The caller compiles on a miss
    and {!add}s the result; compile failures are never added.  With
    [capacity = 0] the cache stores nothing (every lookup misses — the
    "recompile per request" baseline). *)

type entry = {
  compiled : Openmp.Offload.compiled;
  ready : float;  (** virtual tick at which its compile finishes *)
}

type 'k t

val create : capacity:int -> 'k t
(** @raise Invalid_argument on a negative capacity. *)

val evictions : 'k t -> int
(** Entries dropped to stay within capacity. *)

val find : 'k t -> 'k -> entry option
(** The key's entry, now the most recently used. *)

val add : 'k t -> 'k -> entry -> unit
(** Store the entry under a key that {!find} just missed, as the most
    recently used, evicting the least recently used entry first when
    the cache is full. *)
