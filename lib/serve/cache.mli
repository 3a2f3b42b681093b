(** Bounded compiled-kernel cache with LRU eviction and single-flight
    deduplication.

    Keys are the caller's compile identity, polymorphic so a caller can
    key by an interned id: anything that determines the artifact, as
    {!Openmp.Offload.cache_key} (the content digest of the checked IR
    plus the compile-relevant knobs and the evaluation engine) does.
    With [capacity = 0] the cache stores nothing (every lookup
    compiles — the "recompile per request" baseline); compile failures
    are never cached. *)

type 'k t

type stats = {
  hits : int;  (** lookups served from the table *)
  misses : int;  (** lookups that ran the [compile] thunk *)
  evictions : int;  (** entries dropped to stay within capacity *)
  joins : int;
      (** single-flight lookups that blocked on another caller's
          in-flight compile and were served by its result *)
}

val create : capacity:int -> 'k t
(** @raise Invalid_argument on a negative capacity. *)

val capacity : 'k t -> int
val size : 'k t -> int
val stats : 'k t -> stats

val find_or_compile :
  'k t ->
  key:'k ->
  compile:(unit -> (Openmp.Offload.compiled, Ompir.Check.error list) result) ->
  [ `Hit | `Miss | `Joined ]
  * (Openmp.Offload.compiled, Ompir.Check.error list) result
(** Look up [key]; on a miss run [compile] (exactly once across all
    concurrent callers of the same key — late callers block and return
    [`Joined] with the winner's result).  Thread-safe. *)
