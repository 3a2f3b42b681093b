(* Stamp storage is an open-addressing hash table over flat arrays
   (keys as line+1 with 0 = empty, linear probing over a power-of-two
   size, vtimes in an unboxed floatarray).  The former
   [(int, stamp) Hashtbl.t] of mixed int/float records paid a bucket
   walk plus a boxed-float write per touch — the single hottest
   allocation site of the simulator.  Slots are probed via a Fibonacci
   multiplicative hash (see [hash] below): line numbers come in
   contiguous per-array runs, which the multiply scatters across the
   table instead of letting them clump into long probe clusters. *)

type tbl = {
  mutable keys : int array;  (* line + 1; 0 = empty *)
  mutable vtimes : floatarray;
  mutable lanes : int array;  (* bitmask *)
  mutable mask : int;  (* size - 1, size a power of two *)
  mutable count : int;
}

let tbl_make size =
  {
    keys = Array.make size 0;
    vtimes = Float.Array.make size 0.0;
    lanes = Array.make size 0;
    mask = size - 1;
    count = 0;
  }

(* Empty a table in place, at whatever size it grew to: only [keys]
   needs zeroing, since a slot's vtime and lanes are read only under a
   non-zero key and [tbl_put] writes both.  Reallocating instead sent
   every grown table's three arrays straight to the major heap. *)
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

let tbl_put t line vtime lanes =
  let s = tbl_slot t line in
  if Array.unsafe_get t.keys s = 0 then begin
    Array.unsafe_set t.keys s (line + 1);
    t.count <- t.count + 1
  end;
  Float.Array.unsafe_set t.vtimes s vtime;
  Array.unsafe_set t.lanes s lanes

let tbl_grow t =
  let old_keys = t.keys and old_v = t.vtimes and old_l = t.lanes in
  (* quadruple: a rebuild re-inserts every live entry, so growing by 4x
     halves the number of rebuilds a small-starting table pays on its way
     to its final size, at a worst-case 4x space overshoot on tables that
     are overlay-sized anyway *)
  let size = 4 * (t.mask + 1) in
  t.keys <- Array.make size 0;
  t.vtimes <- Float.Array.make size 0.0;
  t.lanes <- Array.make size 0;
  t.mask <- size - 1;
  t.count <- 0;
  Array.iteri
    (fun i k ->
      if k <> 0 then tbl_put t (k - 1) (Float.Array.get old_v i) old_l.(i))
    old_keys

let tbl_ensure_room t =
  if 4 * (t.count + 1) > 3 * (t.mask + 1) then tbl_grow t

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
    let old_keys = tb.keys and old_v = tb.vtimes and old_l = tb.lanes in
    let kept = ref 0 in
    Array.iteri
      (fun i k ->
        if k <> 0 && Float.Array.get old_v i >= horizon then incr kept)
      old_keys;
    (* never shrink: re-using the current size avoids an immediate
       regrow chain when the kept set expands back toward the threshold *)
    let size = ref (Int.max t.isz (tb.mask + 1)) in
    while 2 * !kept >= !size do
      size := 2 * !size
    done;
    tb.keys <- Array.make !size 0;
    tb.vtimes <- Float.Array.make !size 0.0;
    tb.lanes <- Array.make !size 0;
    tb.mask <- !size - 1;
    tb.count <- 0;
    Array.iteri
      (fun i k ->
        if k <> 0 && Float.Array.get old_v i >= horizon then
          tbl_put tb (k - 1) (Float.Array.get old_v i) old_l.(i))
      old_keys
  end

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

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

(* The timestamp arrives through [t.now] (see the field comment): the
   account path runs millions of times per launch, and a boxed float
   argument here was the simulator's second-hottest allocation site. *)
let touch_line t ~lane line =
  let vtime = Float.Array.unsafe_get t.now 0 in
  if vtime > Float.Array.unsafe_get t.now 1 then Float.Array.unsafe_set t.now 1 vtime;
  let lane_bit = 1 lsl (lane land 31) in
  let tb = t.tbl in
  let s = tbl_slot tb line in
  let code =
    if Array.unsafe_get tb.keys s <> 0 then begin
      (* resident in the overlay: classify and mutate in place *)
      let st_vtime = Float.Array.unsafe_get tb.vtimes s in
      let st_lanes = Array.unsafe_get tb.lanes s in
      let gap = vtime -. st_vtime in
      let code =
        if Float.abs gap <= t.coalesce_window then
          if st_lanes land lane_bit <> 0 then popcount st_lanes + 2
          else begin
            Array.unsafe_set tb.lanes s (st_lanes lor lane_bit);
            code_coalesced
          end
        else begin
          Array.unsafe_set tb.lanes s lane_bit;
          if gap <= window t then code_hit else code_miss
        end
      in
      if vtime > st_vtime then Float.Array.unsafe_set tb.vtimes s vtime;
      code
    end
    else begin
      (* copy-on-write read-through: classify against the frozen base
         stamp if there is one, then write the private copy *)
      let based =
        match t.base with
        | None -> None
        | Some b ->
            let bs = tbl_slot b line in
            if Array.unsafe_get b.keys bs = 0 then None
            else
              Some (Float.Array.unsafe_get b.vtimes bs, Array.unsafe_get b.lanes bs)
      in
      match based with
      | None ->
          tbl_ensure_room tb;
          tbl_put tb line vtime lane_bit;
          code_miss
      | Some (bvt, blanes) ->
          let gap = vtime -. bvt in
          let code, lanes' =
            if Float.abs gap <= t.coalesce_window then
              if blanes land lane_bit <> 0 then (popcount blanes + 2, blanes)
              else (code_coalesced, blanes lor lane_bit)
            else if gap <= window t then (code_hit, lane_bit)
            else (code_miss, lane_bit)
          in
          tbl_ensure_room tb;
          tbl_put tb line (Float.max bvt vtime) lanes';
          code
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
