(* Stamp storage is an open-addressing hash table over flat arrays
   (keys as line+1 with 0 = empty, linear probing over a power-of-two
   size, vtimes in an unboxed floatarray).  The former
   [(int, stamp) Hashtbl.t] of mixed int/float records paid a bucket
   walk plus a boxed-float write per touch — the single hottest
   allocation site of the simulator.  Slots are probed via a Fibonacci
   multiplicative hash (see [hash] below): line numbers come in
   contiguous per-array runs, which the multiply scatters across the
   table instead of letting them clump into long probe clusters. *)

(* A burst's lane set is two 32-bit words: [lanes] holds lanes 0-31
   and [hi] lanes 32-63, so a 64-lane wavefront's lanes never share a
   bit.  [hi] is allocated at the first touch by a lane above 31, so
   only tables of warps wider than 32 pay for it; until then it is
   empty and every burst's high word reads 0. *)
type tbl = {
  mutable keys : int array;  (* line + 1; 0 = empty *)
  mutable vtimes : floatarray;
  mutable lanes : int array;  (* lanes 0-31 of the burst, one bit each *)
  mutable hi : int array;  (* lanes 32-63, or [||] *)
  mutable mask : int;  (* size - 1, size a power of two *)
  mutable count : int;
}

let tbl_make size =
  {
    keys = Array.make size 0;
    vtimes = Float.Array.make size 0.0;
    lanes = Array.make size 0;
    hi = [||];
    mask = size - 1;
    count = 0;
  }

let[@inline] wide t = Array.length t.hi > 0

(* Slot [s]'s lanes 32-63 (the index is in bounds whenever [hi] is
   allocated: it always has the table's size). *)
let[@inline] hi_word t s = if wide t then Array.unsafe_get t.hi s else 0

(* The first lane above 31: no burst so far holds one. *)
let tbl_widen t = t.hi <- Array.make (t.mask + 1) 0

(* Empty a table in place, at whatever size it grew to: only [keys]
   needs zeroing, since a slot's vtime and lanes are read only under a
   non-zero key and every claim of a slot writes them.  Reallocating
   instead sent every grown table's arrays straight to the major
   heap. *)
let tbl_empty t =
  Array.fill t.keys 0 (t.mask + 1) 0;
  t.count <- 0

(* Fibonacci-style multiplicative mix.  Line numbers come in contiguous
   runs (one per array), so an identity hash would fill contiguous slot
   runs that merge into huge probe clusters as soon as two arrays' ranges
   alias mod the table size; the odd-constant multiply spreads a run
   across the whole table. *)
let hash line mask =
  let h = line * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

(* Slot holding the key, or the empty slot where it would go.  The load
   factor is kept under 3/4, so a run of occupied slots always ends.
   Indices are masked, hence always in bounds: this probe loop and the
   slot reads/writes below run once or more per simulated memory access,
   so they use the unchecked accessors. *)
let tbl_slot t line =
  let key = line + 1 in
  let mask = t.mask in
  let keys = t.keys in
  let i = ref (hash line mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> 0 && !k <> key do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  !i

(* Rebuild [t] at [size] slots, keeping the entries stamped at or
   after [horizon]. *)
let tbl_rebuild t size ~horizon =
  let old_keys = t.keys and old_v = t.vtimes in
  let old_l = t.lanes and old_h = t.hi in
  t.keys <- Array.make size 0;
  t.vtimes <- Float.Array.make size 0.0;
  t.lanes <- Array.make size 0;
  if wide t then t.hi <- Array.make size 0;
  t.mask <- size - 1;
  t.count <- 0;
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k <> 0 && Float.Array.get old_v i >= horizon then begin
      let s = tbl_slot t (k - 1) in
      Array.unsafe_set t.keys s k;
      t.count <- t.count + 1;
      Float.Array.unsafe_set t.vtimes s (Float.Array.get old_v i);
      Array.unsafe_set t.lanes s old_l.(i);
      if wide t then Array.unsafe_set t.hi s old_h.(i)
    end
  done

(* quadruple: a rebuild re-inserts every live entry, so growing by 4x
   halves the number of rebuilds a small-starting table pays on its way
   to its final size, at a worst-case 4x space overshoot on tables that
   are overlay-sized anyway *)
let tbl_grow t = tbl_rebuild t (4 * (t.mask + 1)) ~horizon:Float.neg_infinity

(* Take the empty slot [s] that [tbl_slot] found for [line] (one probe
   per touch, not a second one to re-find it), growing first when the
   table is at its load limit: the slot then moves. *)
let tbl_claim t line s =
  let s =
    if 4 * (t.count + 1) > 3 * (t.mask + 1) then begin
      tbl_grow t;
      tbl_slot t line
    end
    else s
  in
  Array.unsafe_set t.keys s (line + 1);
  t.count <- t.count + 1;
  s

type t = {
  capacity : int;
  coalesce_window : float;
  isz : int;
      (* floor table size (power of two, derived from capacity): [create]
         starts here and [compact] never goes below it, which avoids
         rebuild chains 64 -> ... -> 2K on every grow/compact cycle of a
         warp-sized buffer *)
  tbl : tbl;  (* line -> latest touch burst *)
  base : tbl option;
      (* frozen parent stamps a fork reads through to (never written) *)
  now : floatarray;
      (* two unboxed float cells: slot 0 stages the touch timestamp
         (callers store it with an unboxed floatarray write and the touch
         body reads it back, so the float never crosses a function
         boundary as a boxed argument); slot 1 is the running max vtime —
         as a mutable float field of this mixed record every monotone
         update would box a fresh float *)
  mutable misses : int;
}

(* The table size [create] starts at and [compact] never shrinks below:
   twice the capacity, capped so a device L2 with hundreds of thousands
   of sectors starts at 64K slots rather than megabytes.  A table need
   not start here: [create_sized] starts it at the expected footprint. *)
let floor_size capacity =
  let target = Int.min 65536 (Int.max 64 (2 * capacity)) in
  let s = ref 64 in
  while !s < target do
    s := 2 * !s
  done;
  !s

(* The smallest table, up to [isz], that holds [demand] lines under the
   3/4 load factor without a rebuild. *)
let demand_size ~isz demand =
  let s = ref 64 in
  while !s < isz && 3 * !s < 4 * (demand + 1) do
    s := 2 * !s
  done;
  !s

type outcome = Coalesced | Hit | Miss

let is_resident = function Coalesced | Hit -> true | Miss -> false

let[@inline] max_vtime t = Float.Array.unsafe_get t.now 1

type table = tbl

(* A recycled table is emptied in place; a fresh one starts at [size]. *)
let reuse table ~size =
  match table with
  | Some tb ->
      tbl_empty tb;
      tb
  | None -> tbl_make size

let make ~table ~capacity ~coalesce_window ~size =
  if capacity <= 0 then invalid_arg "Linebuf.create: capacity must be positive";
  if coalesce_window < 0.0 then
    invalid_arg "Linebuf.create: coalesce_window must be non-negative";
  {
    capacity;
    coalesce_window;
    isz = floor_size capacity;
    tbl = reuse table ~size;
    base = None;
    now = Float.Array.make 2 0.0;
    misses = 0;
  }

let create ~capacity ~coalesce_window =
  make ~table:None ~capacity ~coalesce_window ~size:(floor_size capacity)

(* Same behaviour, but the table starts sized for [demand] lines and
   grows from there instead of starting at the capacity floor.  For
   short-lived buffers whose footprint is far below the modeled
   capacity — one block's L2 view, or the committed L2 of a space that
   lives for one launch: sizing those from an L2 with tens of thousands
   of sectors allocated three multi-hundred-KiB arrays each.  Outcomes
   depend only on the table's contents, never on its size, so a recycled
   table serves at whatever size it grew to. *)
let create_sized ?table ~demand ~capacity ~coalesce_window () =
  make ~table ~capacity ~coalesce_window
    ~size:(demand_size ~isz:(floor_size capacity) demand)

(* A fork shares the parent's stamp table read-only and writes its own
   overlay, seeded with the parent's residency statistics.  O(1) to
   create, O(own touches) in memory — cheap enough to make one per
   (block, space) pair per launch.  The parent must not be mutated while
   forks of it are live; concurrent reads of the frozen parent table
   from several domains are safe. *)
let fork ?table parent =
  let base =
    (* flatten chains so a fork of a fork still reads one level deep;
       forks are created from the committed device L2 only *)
    match parent.base with
    | Some _ -> invalid_arg "Linebuf.fork: cannot fork a fork"
    | None -> Some parent.tbl
  in
  (* the overlay holds only this fork's own traffic — one block's, not
     the whole device's — so start at the minimum and let it grow to
     demand.  Sizing it from the parent (a device L2 with a 64K-slot
     table) made every fork three ~4K-element arrays: 96 KiB of zeroing
     per (block, space) pair, allocated straight into the major heap —
     the dominant allocation of the big experiments.  The grow chain a
     small start pays instead is amortized O(entries), and a recycled
     table skips it. *)
  let isz = 64 in
  {
    capacity = parent.capacity;
    coalesce_window = parent.coalesce_window;
    isz;
    tbl = reuse table ~size:isz;
    base;
    now =
      (let a = Float.Array.make 2 0.0 in
       Float.Array.set a 1 (max_vtime parent);
       a);
    misses = parent.misses;
  }

let window t =
  if t.misses <= t.capacity || max_vtime t <= 0.0 then Float.infinity
  else
    (* rate = distinct-line fetches per virtual cycle; a line stays
       resident for the time it takes the warp to pull [capacity] fresh
       lines through the cache. *)
    float_of_int t.capacity *. max_vtime t /. float_of_int t.misses

(* Bound the table: when it grows far past capacity, drop entries that
   fell out of the residency window (they can only miss anyway). *)
let compact t =
  let tb = t.tbl in
  if tb.count > 8 * t.capacity then begin
    let w = window t in
    let horizon = max_vtime t -. w in
    let kept = ref 0 in
    Array.iteri
      (fun i k ->
        if k <> 0 && Float.Array.get tb.vtimes i >= horizon then incr kept)
      tb.keys;
    (* never shrink: re-using the current size avoids an immediate
       regrow chain when the kept set expands back toward the threshold *)
    let size = ref (Int.max t.isz (tb.mask + 1)) in
    while 2 * !kept >= !size do
      size := 2 * !size
    done;
    tbl_rebuild tb !size ~horizon
  end

(* Lanes in one 32-bit lane-set word, counted word-parallel in constant
   time (it runs on every burst re-touch): pairs, nibbles and bytes sum
   in place, and the multiply gathers the four byte counts into bits
   24-31. *)
let[@inline] popcount m =
  let m = m - ((m lsr 1) land 0x55555555) in
  let m = (m land 0x33333333) + ((m lsr 2) land 0x33333333) in
  let m = (m + (m lsr 4)) land 0x0F0F0F0F in
  ((m * 0x01010101) lsr 24) land 0xFF

(* A "burst" is the set of lanes touching the line within the coalesce
   window of each other — the per-lane view of one warp instruction (or a
   short run of them) accessing the line in lockstep.  The first lane of a
   burst opens the transaction; a new lane joining rides it for free; a
   lane re-touching inside the burst is a fresh instruction whose
   transaction is shared by every lane of the burst, so it is charged
   1/|burst|.  A lane running alone therefore pays full price per touch,
   which is exactly the uncoalesced baseline pattern. *)
(* Integer-coded classification — the hot path returns an immediate
   instead of an (outcome * float) tuple with a boxed weight:
   0 = Coalesced (weight 0), 1 = Hit weight 1, 2 = Miss weight 1,
   k >= 3 = burst re-touch Hit of a (k-2)-lane burst, weight 1/(k-2). *)
let code_coalesced = 0
let code_hit = 1
let code_miss = 2

(* Start slot [s]'s burst afresh with [lane] alone. *)
let[@inline] set_lane tb s lane =
  let bit = 1 lsl (lane land 31) in
  if lane < 32 then begin
    Array.unsafe_set tb.lanes s bit;
    if wide tb then Array.unsafe_set tb.hi s 0
  end
  else begin
    if not (wide tb) then tbl_widen tb;
    Array.unsafe_set tb.lanes s 0;
    Array.unsafe_set tb.hi s bit
  end

(* [lane] touches slot [s]'s open burst: a lane already in it re-touches
   (code k + 2 for a k-lane burst, both words counted), a new lane joins
   for free. *)
let[@inline] join tb s lane =
  let lo = Array.unsafe_get tb.lanes s and hi = hi_word tb s in
  let bit = 1 lsl (lane land 31) in
  if (if lane < 32 then lo else hi) land bit <> 0 then
    popcount lo + popcount hi + 2
  else begin
    if lane < 32 then Array.unsafe_set tb.lanes s (lo lor bit)
    else begin
      if not (wide tb) then tbl_widen tb;
      Array.unsafe_set tb.hi s (hi lor bit)
    end;
    code_coalesced
  end

(* Copy-on-write read-through for a line the overlay lacks: when the
   frozen base holds it, its stamp is copied into the empty overlay slot
   [s] that [tbl_slot] found, so the caller classifies it in place like
   any resident line.  Returns that slot, or -1 when the base lacks the
   line too.  The base's flat arrays are read directly: no option or
   tuple is built on a view's first touch of a line. *)
let read_through t line s =
  match t.base with
  | None -> -1
  | Some b ->
      let bs = tbl_slot b line in
      if Array.unsafe_get b.keys bs = 0 then -1
      else begin
        let tb = t.tbl in
        let s = tbl_claim tb line s in
        Float.Array.unsafe_set tb.vtimes s (Float.Array.unsafe_get b.vtimes bs);
        Array.unsafe_set tb.lanes s (Array.unsafe_get b.lanes bs);
        let h = hi_word b bs in
        if h <> 0 && not (wide tb) then tbl_widen tb;
        if wide tb then Array.unsafe_set tb.hi s h;
        s
      end

(* The timestamp arrives through [t.now] (see the field comment): the
   account path runs millions of times per launch, and a boxed float
   argument here was the simulator's second-hottest allocation site. *)
let touch_line t ~lane line =
  let vtime = Float.Array.unsafe_get t.now 0 in
  if vtime > Float.Array.unsafe_get t.now 1 then Float.Array.unsafe_set t.now 1 vtime;
  let tb = t.tbl in
  let free = tbl_slot tb line in
  let s =
    if Array.unsafe_get tb.keys free <> 0 then free else read_through t line free
  in
  let code =
    if s >= 0 then begin
      (* resident in the overlay: classify and mutate in place *)
      let st_vtime = Float.Array.unsafe_get tb.vtimes s in
      let gap = vtime -. st_vtime in
      let code =
        if Float.abs gap <= t.coalesce_window then join tb s lane
        else begin
          set_lane tb s lane;
          if gap <= window t then code_hit else code_miss
        end
      in
      if vtime > st_vtime then Float.Array.unsafe_set tb.vtimes s vtime;
      code
    end
    else begin
      let s = tbl_claim tb line free in
      Float.Array.unsafe_set tb.vtimes s vtime;
      set_lane tb s lane;
      code_miss
    end
  in
  if code = code_miss then begin
    t.misses <- t.misses + 1;
    compact t
  end;
  code

let[@inline] code_outcome code =
  if code = code_coalesced then Coalesced
  else if code = code_miss then Miss
  else Hit

let[@inline] code_weight code =
  if code = code_coalesced then 0.0
  else if code <= code_miss then 1.0
  else 1.0 /. float_of_int (code - 2)

let[@inline] set_now t vtime = Float.Array.unsafe_set t.now 0 vtime

let[@inline] touch_code t ~vtime ~lane line =
  Float.Array.unsafe_set t.now 0 vtime;
  touch_line t ~lane line

let touch t ~vtime ~lane line =
  let code = touch_code t ~vtime ~lane line in
  (code_outcome code, code_weight code)

let misses t = t.misses
let table t = t.tbl

let clear t =
  tbl_empty t.tbl;
  t.misses <- 0;
  Float.Array.set t.now 1 0.0

let size t = t.tbl.count
let capacity t = t.capacity
