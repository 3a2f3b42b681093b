(* Compiled-kernel cache: the piece that turns the batch pipeline into
   a service.  Keyed by the caller's compile identity — anything that
   determines the artifact, as {!Openmp.Offload.cache_key} does (content
   digest of the IR plus compile-relevant knobs); the fleet
   uses its interned content id, which within one run stands for
   exactly that key.  Bounded, with LRU
   eviction and single-flight deduplication — when several requests for
   the same key arrive while the first is still compiling, exactly one
   [compile] thunk runs and the others block until its result is
   published.

   The structure is thread-safe (Mutex + Condition) even though the
   deterministic service replay drives it from a single domain: the
   single-flight contract is part of the subsystem's API, and the test
   suite exercises it from concurrent domains. *)

type entry = {
  value : Openmp.Offload.compiled;
  mutable last_use : int;  (* logical clock tick of the last hit *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  joins : int;  (* single-flight waits resolved by another's compile *)
}

type 'k t = {
  capacity : int;
  mu : Mutex.t;
  published : Condition.t;  (* signalled when an in-flight compile lands *)
  table : ('k, entry) Hashtbl.t;
  inflight : ('k, unit) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable joins : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    capacity;
    mu = Mutex.create ();
    published = Condition.create ();
    table = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    joins = 0;
  }

let capacity t = t.capacity

let stats t =
  Mutex.lock t.mu;
  let s =
    { hits = t.hits; misses = t.misses; evictions = t.evictions; joins = t.joins }
  in
  Mutex.unlock t.mu;
  s

let size t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mu;
  n

(* Evict the least-recently-used entry.  Linear scan: service caches
   are tens of entries, and the deterministic scan (ties cannot happen,
   ticks are unique) keeps eviction order reproducible. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, best) when best.last_use <= e.last_use -> ()
      | _ -> victim := Some (key, e))
    t.table;
  match !victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1

let find_or_compile t ~key ~compile =
  Mutex.lock t.mu;
  let rec lookup ~joined =
    match Hashtbl.find_opt t.table key with
    | Some e ->
        t.tick <- t.tick + 1;
        e.last_use <- t.tick;
        if joined then t.joins <- t.joins + 1 else t.hits <- t.hits + 1;
        Mutex.unlock t.mu;
        ((if joined then `Joined else `Hit), Ok e.value)
    | None ->
        if Hashtbl.mem t.inflight key then begin
          (* single flight: somebody is compiling this key right now *)
          Condition.wait t.published t.mu;
          lookup ~joined:true
        end
        else begin
          Hashtbl.replace t.inflight key ();
          t.misses <- t.misses + 1;
          Mutex.unlock t.mu;
          let result =
            match compile () with
            | result -> result
            | exception e ->
                (* never leave the key marked in-flight *)
                Mutex.lock t.mu;
                Hashtbl.remove t.inflight key;
                Condition.broadcast t.published;
                Mutex.unlock t.mu;
                raise e
          in
          Mutex.lock t.mu;
          Hashtbl.remove t.inflight key;
          (match result with
          | Ok value when t.capacity > 0 ->
              if Hashtbl.length t.table >= t.capacity then evict_lru t;
              t.tick <- t.tick + 1;
              Hashtbl.replace t.table key { value; last_use = t.tick }
          | Ok _ | Error _ -> ());
          Condition.broadcast t.published;
          Mutex.unlock t.mu;
          (`Miss, result)
        end
  in
  lookup ~joined:false
