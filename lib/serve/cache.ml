(* Compiled-kernel cache: the piece that turns the batch pipeline into
   a service.  Keyed by the caller's compile identity — anything that
   determines the artifact, as {!Openmp.Offload.cache_key} does (content
   digest of the IR plus compile-relevant knobs); the fleet
   uses its interned content id, which within one run stands for
   exactly that key.  Bounded, with LRU eviction over a logical clock
   that ticks once per [find] hit and per [add].

   The fleet drives it from one domain in virtual time, so it has no
   lock and no host single-flight: a request that looks up an entry
   whose [ready] tick lies ahead joins that compile in virtual time,
   and the fleet charges it the residual wait. *)

type entry = { compiled : Openmp.Offload.compiled; ready : float }

type slot = { entry : entry; mutable last_use : int }

type 'k t = {
  capacity : int;
  table : ('k, slot) Hashtbl.t;
  mutable tick : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  { capacity; table = Hashtbl.create 64; tick = 0; evictions = 0 }

let evictions t = t.evictions

let touch t =
  t.tick <- t.tick + 1;
  t.tick

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some s ->
      s.last_use <- touch t;
      Some s.entry
  | None -> None

(* Evict the least-recently-used entry.  Linear scan: service caches
   are tens of entries, and the deterministic scan (ties cannot happen,
   ticks are unique) keeps eviction order reproducible. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key s ->
      match !victim with
      | Some (_, best) when best.last_use <= s.last_use -> ()
      | _ -> victim := Some (key, s))
    t.table;
  match !victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1

let add t key entry =
  if t.capacity > 0 then begin
    if Hashtbl.length t.table >= t.capacity then evict_lru t;
    Hashtbl.replace t.table key { entry; last_use = touch t }
  end
