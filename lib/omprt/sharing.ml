(* The variable-sharing space (§5.3.1), as a dynamic per-team allocator.

   The previous implementation statically split the slab into
   [total / (num_groups + 1)] slices, so a team with few live publishers
   wasted most of the slab and a payload one byte over the slice fell
   back to global memory even when the slab was nearly empty.  This
   version allocates variable-size slices on demand, scoped to the
   parallel/SIMD region that acquired them (cf. Bercea et al.,
   "Implementing implicit OpenMP data sharing on GPUs"):

   - the common, properly nested case is a bump-pointer stack: acquire
     pushes at [top], releasing the top frame pops it;
   - concurrent SIMD mains release out of stack order, so a freed inner
     frame goes onto a first-fit free list (coalesced with neighbours,
     folded back into [top] when it becomes trailing) that the next
     acquire reuses before growing the stack — under the steady state of
     N leaders cycling equal-size payloads this recycles exactly, no
     fragmentation, no leak;
   - when neither the free list nor the remaining slab can hold the
     payload (or the exhaust fault is armed), the acquire falls back to
     a pooled global-memory buffer: the *first* acquisition of a pool
     slot pays the device-malloc round-trip, a reuse pays only the
     freelist access — the production design's team malloc cache. *)

type location =
  | Shared_space of { offset : int; bytes : int; vbase : int }
  | Global_fallback of { slot : int; bytes : int }

(* Placeholder for location-typed fields before any acquire; never
   released or copied through. *)
let none = Shared_space { offset = 0; bytes = 0; vbase = 0 }

type t = {
  mutable arena_id : int;  (* sanitizer shadow key for the backing arena *)
  total_bytes : int;
  mutable nominal_groups : int;
      (* last [configure]: only feeds the nominal per-publisher slice
         reported by [slice_bytes] (the E3 ablation's table column) *)
  (* --- slab stack + free list (offsets into the reservation) --- *)
  mutable top : int;
  mutable free_off : int array;  (* sorted by offset, coalesced *)
  mutable free_len : int array;
  mutable nfree : int;
  mutable live : int;
  (* --- pooled global fallback --- *)
  mutable pool_cap : int array;  (* slot -> buffer capacity in bytes *)
  mutable pool_free : bool array;
  mutable npool : int;
  (* --- sanitizer virtual addressing --- *)
  mutable next_vbase : int;
      (* every grant gets a fresh shadow address range: physical offsets
         are recycled across region lifetimes, and reusing shadow
         addresses would make two well-synchronized regions that merely
         reused the same slab bytes look like a data race *)
  (* --- statistics --- *)
  mutable shared_grants : int;
  mutable global_fallbacks : int;
  mutable pool_reuses : int;
  mutable high_water : int;
}

let default_bytes = 2048
let min_bytes = 256

let create ~arena ~bytes =
  match Gpusim.Shared.alloc arena ~bytes with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Sharing.create: %d B sharing space exceeds block shared memory"
           bytes)
  | Some (_ : int) ->
      {
        arena_id = Gpusim.Shared.id arena;
        total_bytes = bytes;
        nominal_groups = 0;
        top = 0;
        free_off = Array.make 8 0;
        free_len = Array.make 8 0;
        nfree = 0;
        live = 0;
        pool_cap = Array.make 4 0;
        pool_free = Array.make 4 false;
        npool = 0;
        next_vbase = 0;
        shared_grants = 0;
        global_fallbacks = 0;
        pool_reuses = 0;
        high_water = 0;
      }

(* What [create] builds, on a recycled allocator: the reservation is made
   again on the new block's arena; grown free-list and pool arrays are
   kept, empty. *)
let reset t ~arena =
  (match Gpusim.Shared.alloc arena ~bytes:t.total_bytes with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Sharing.reset: %d B sharing space exceeds block shared memory"
           t.total_bytes)
  | Some (_ : int) -> ());
  t.arena_id <- Gpusim.Shared.id arena;
  t.nominal_groups <- 0;
  t.top <- 0;
  t.nfree <- 0;
  t.live <- 0;
  t.npool <- 0;
  t.next_vbase <- 0;
  t.shared_grants <- 0;
  t.global_fallbacks <- 0;
  t.pool_reuses <- 0;
  t.high_water <- 0

let total_bytes t = t.total_bytes

let configure t ~num_groups =
  if num_groups < 0 then invalid_arg "Sharing.configure: num_groups";
  t.nominal_groups <- num_groups;
  (* Safety net only: paired acquire/release drains the stack by itself.
     Threads re-enter [__parallel] redundantly and unsynchronized, so a
     reset must never fire while a faster sibling already holds a slice
     of the new region. *)
  if t.live = 0 then begin
    t.top <- 0;
    t.nfree <- 0
  end

(* The nominal even split (§5.3.1): what each publisher would get under
   the old static partition.  Reported by the E3 ablation as a baseline
   column; the allocator itself is not bound by it. *)
let slice_bytes t = t.total_bytes / (t.nominal_groups + 1)

let used_bytes t =
  let freed = ref 0 in
  for i = 0 to t.nfree - 1 do
    freed := !freed + t.free_len.(i)
  done;
  t.top - !freed

let live_slices t = t.live
let pool_slots t = t.npool
let high_water t = t.high_water

let global_access_cost (th : Gpusim.Thread.t) =
  let cost = th.Gpusim.Thread.cfg.Gpusim.Config.cost in
  cost.Gpusim.Config.mem_issue +. cost.Gpusim.Config.mem_miss_latency

(* --- free-list helpers (arrays sorted by offset, entries coalesced) --- *)

let free_list_insert t off len =
  if len > 0 then begin
    if t.nfree = Array.length t.free_off then begin
      let cap = 2 * t.nfree in
      let no = Array.make cap 0 and nl = Array.make cap 0 in
      Array.blit t.free_off 0 no 0 t.nfree;
      Array.blit t.free_len 0 nl 0 t.nfree;
      t.free_off <- no;
      t.free_len <- nl
    end;
    (* find insertion point (list is tiny: at most one entry per live
       publisher) *)
    let i = ref t.nfree in
    while !i > 0 && t.free_off.(!i - 1) > off do
      t.free_off.(!i) <- t.free_off.(!i - 1);
      t.free_len.(!i) <- t.free_len.(!i - 1);
      decr i
    done;
    t.free_off.(!i) <- off;
    t.free_len.(!i) <- len;
    t.nfree <- t.nfree + 1;
    (* coalesce with the successor, then the predecessor *)
    let i = !i in
    if i + 1 < t.nfree && t.free_off.(i) + t.free_len.(i) = t.free_off.(i + 1)
    then begin
      t.free_len.(i) <- t.free_len.(i) + t.free_len.(i + 1);
      for j = i + 1 to t.nfree - 2 do
        t.free_off.(j) <- t.free_off.(j + 1);
        t.free_len.(j) <- t.free_len.(j + 1)
      done;
      t.nfree <- t.nfree - 1
    end;
    if i > 0 && t.free_off.(i - 1) + t.free_len.(i - 1) = t.free_off.(i)
    then begin
      t.free_len.(i - 1) <- t.free_len.(i - 1) + t.free_len.(i);
      for j = i to t.nfree - 2 do
        t.free_off.(j) <- t.free_off.(j + 1);
        t.free_len.(j) <- t.free_len.(j + 1)
      done;
      t.nfree <- t.nfree - 1
    end;
    (* a trailing free block folds back into the bump pointer *)
    if t.nfree > 0
       && t.free_off.(t.nfree - 1) + t.free_len.(t.nfree - 1) = t.top
    then begin
      t.top <- t.free_off.(t.nfree - 1);
      t.nfree <- t.nfree - 1
    end
  end

(* First-fit over the free list; splits when the hole is larger. *)
let free_list_take t bytes =
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < t.nfree do
    if t.free_len.(!i) >= bytes then found := !i;
    incr i
  done;
  if !found < 0 then -1
  else begin
    let i = !found in
    let off = t.free_off.(i) in
    if t.free_len.(i) > bytes then begin
      t.free_off.(i) <- off + bytes;
      t.free_len.(i) <- t.free_len.(i) - bytes
    end
    else begin
      for j = i to t.nfree - 2 do
        t.free_off.(j) <- t.free_off.(j + 1);
        t.free_len.(j) <- t.free_len.(j + 1)
      done;
      t.nfree <- t.nfree - 1
    end;
    off
  end

(* --- pool helpers --- *)

let pool_take t bytes =
  (* first-fit over free slots whose buffer is big enough *)
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < t.npool do
    if t.pool_free.(!i) && t.pool_cap.(!i) >= bytes then found := !i;
    incr i
  done;
  (match !found with
  | -1 -> ()
  | s -> t.pool_free.(s) <- false);
  !found

let pool_grow t bytes =
  if t.npool = Array.length t.pool_cap then begin
    let cap = 2 * t.npool in
    let nc = Array.make cap 0 and nf = Array.make cap false in
    Array.blit t.pool_cap 0 nc 0 t.npool;
    Array.blit t.pool_free 0 nf 0 t.npool;
    t.pool_cap <- nc;
    t.pool_free <- nf
  end;
  let s = t.npool in
  t.pool_cap.(s) <- bytes;
  t.pool_free.(s) <- false;
  t.npool <- s + 1;
  s

(* --- the allocator interface --- *)

let acquire t th ~bytes =
  if bytes < 0 then invalid_arg "Sharing.acquire: negative payload size";
  let hole = free_list_take t bytes in
  (* The exhaust fault pretends the slab is full: every acquire in the
     victim block takes the fallback below, which is exactly the path a
     too-small sharing space exercises for real.  [exhaust_here] counts
     its firings, so it is consulted at most once and only when the
     payload would otherwise fit. *)
  let fits = hole >= 0 || t.top + bytes <= t.total_bytes in
  if
    fits
    && not (Gpusim.Thread.injecting th && Gpusim.Fault.exhaust_here ())
  then begin
    let offset =
      if hole >= 0 then hole
      else begin
        let o = t.top in
        t.top <- t.top + bytes;
        if t.top > t.high_water then t.high_water <- t.top;
        o
      end
    in
    t.live <- t.live + 1;
    t.shared_grants <- t.shared_grants + 1;
    Gpusim.Counters.bump th.Gpusim.Thread.counters "sharing.shared_grants" 1.0;
    let vbase = t.next_vbase in
    t.next_vbase <- vbase + max 8 bytes;
    Shared_space { offset; bytes; vbase }
  end
  else begin
    (* the fault path must not leak a hole the first-fit already carved *)
    if hole >= 0 then free_list_insert t hole bytes;
    t.global_fallbacks <- t.global_fallbacks + 1;
    Gpusim.Counters.bump th.Gpusim.Thread.counters "sharing.global_fallbacks"
      1.0;
    match pool_take t bytes with
    | -1 ->
        (* A device-side malloc: runtime lock traffic plus the round-trip
           to set up the fresh global buffer — far costlier than the
           shared slab, which is the point of §5.3.1's sizing
           discussion. *)
        let slot = pool_grow t bytes in
        Gpusim.Thread.tick th (2.0 *. global_access_cost th);
        Gpusim.Thread.tick_wait th (6.0 *. global_access_cost th);
        Global_fallback { slot; bytes }
    | slot ->
        (* freelist pop: one uncached global access to the pool head, no
           malloc round-trip (Bercea et al.'s reuse path) *)
        t.pool_reuses <- t.pool_reuses + 1;
        Gpusim.Counters.bump th.Gpusim.Thread.counters "sharing.pool_reuses"
          1.0;
        Gpusim.Thread.tick_wait th (global_access_cost th);
        Global_fallback { slot; bytes }
  end

(* Free, like the production runtime's epilogue: the expensive part of a
   fallback is the malloc, already paid at acquire; returning either kind
   of slice is pointer arithmetic. *)
let release t location =
  match location with
  | Shared_space { offset; bytes; _ } ->
      t.live <- t.live - 1;
      if offset + bytes = t.top then begin
        (* LIFO fast path: pop, then fold any free block the pop made
           trailing *)
        t.top <- offset;
        while
          t.nfree > 0
          && t.free_off.(t.nfree - 1) + t.free_len.(t.nfree - 1) = t.top
        do
          t.top <- t.free_off.(t.nfree - 1);
          t.nfree <- t.nfree - 1
        done
      end
      else free_list_insert t offset bytes
  | Global_fallback { slot; _ } -> t.pool_free.(slot) <- true

let copy_cost ~sharers ~kind t th location payload =
  let n = Payload.length payload in
  match location with
  | Shared_space { vbase; _ } ->
      (* Slot k lives at a fixed arena offset for the lifetime of the
         acquire: the sanitizer's shared-space shadow sees publishes as
         writes and fetches as reads of those cells.  Shadow addresses
         come from the acquire's virtual base, unique per grant, so slab
         bytes recycled across region lifetimes never alias. *)
      for k = 0 to n - 1 do
        Gpusim.Shared.touch th ~bytes:8;
        if Gpusim.Thread.sanitizing th then
          Gpusim.Ompsan.shared_access th ~aid:t.arena_id
            ~addr:(vbase + (k * 8))
            ~kind
      done
  | Global_fallback _ ->
      (* every slot is a real global-memory round trip, and the buffer is
         conservatively cold even when pooled: a reused buffer was last
         touched a region ago, far outside any warp-cache window, so its
         sectors hit DRAM *)
      let cfg = th.Gpusim.Thread.cfg in
      let c = th.Gpusim.Thread.counters in
      let sectors =
        (n * 8 / cfg.Gpusim.Config.line_bytes)
        + (if n * 8 mod cfg.Gpusim.Config.line_bytes = 0 then 0 else 1)
      in
      (* concurrent same-buffer copies by the group's lanes coalesce *)
      let share = float_of_int (max 1 sharers) in
      Gpusim.Counters.add_dram c
        (float_of_int (sectors * cfg.Gpusim.Config.line_bytes) /. share);
      Gpusim.Counters.add_lsu c (float_of_int sectors /. share);
      Gpusim.Thread.tick th
        (float_of_int n *. cfg.Gpusim.Config.cost.Gpusim.Config.mem_issue);
      Gpusim.Thread.tick_wait th (float_of_int n *. global_access_cost th)

let publish t th location payload =
  copy_cost ~sharers:1 ~kind:Gpusim.Ompsan.Write t th location payload

let fetch ~sharers t th location payload =
  copy_cost ~sharers ~kind:Gpusim.Ompsan.Read t th location payload

let global_fallbacks t = t.global_fallbacks
let shared_grants t = t.shared_grants
let pool_reuses t = t.pool_reuses
