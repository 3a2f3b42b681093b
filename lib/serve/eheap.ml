(* The discrete-event queue of the service loop ({!Fleet.run}): a
   binary min-heap on (time, rank, seq).  Completions
   (rank 0) sort before arrivals (rank 1) at the same tick — a freed
   server picks up the simultaneous arrival instead of bouncing it to
   the queue — and the insertion sequence number makes every comparison
   strict, so replay order never depends on heap internals.

   A trace's arrivals are known up front, so {!seeded} keeps them out
   of the heap: their times sit in one array, read in stable time order
   by a cursor (their seqs are 1..n in index order, so that order is
   the heap order), and each one's event is built only when it pops.
   Only events pushed later — completions, retries, relaunches — pay
   heap sifts, and the heap stays as small as the fleet's in-flight
   work.  [pop] takes the lesser of the cursor head and the heap top
   under the same order, so the pop sequence is exactly that of one
   heap holding every event. *)

type 'a item = { time : float; rank : int; seq : int; v : 'a }

type 'a t = {
  mutable a : 'a item array;
  mutable n : int;
  mutable seq : int;
  rank : int;  (* the seeded events' rank *)
  times : float array;  (* seeded event times, by seed index *)
  order : int array;  (* seed indices in pop order *)
  make : int -> 'a;  (* builds the seeded event of an index when it pops *)
  mutable next : int;  (* cursor: the first unpopped entry of [order] *)
}

let create () =
  {
    a = [||];
    n = 0;
    seq = 0;
    rank = 0;
    times = [||];
    order = [||];
    make = (fun _ -> invalid_arg "Eheap: no seed");
    next = 0;
  }

(* The record fixes the key types, so these compile to float and int
   compares; over a bare tuple the same code was polymorphic [compare]. *)
let less x y =
  x.time < y.time
  || (x.time = y.time && (x.rank < y.rank || (x.rank = y.rank && x.seq < y.seq)))

let seeded ~rank times make =
  let n = Array.length times in
  let order = Array.init n Fun.id in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if times.(i) < times.(i - 1) then sorted := false
  done;
  (* stable: equal times keep index (= seq) order *)
  if not !sorted then
    Array.stable_sort (fun i j -> Float.compare times.(i) times.(j)) order;
  { a = [||]; n = 0; seq = n; rank; times; order; make; next = 0 }

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if less h.a.(i) h.a.(p) then begin
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(i);
      h.a.(i) <- tmp;
      sift_up h p
    end
  end

let push h time rank v =
  h.seq <- h.seq + 1;
  let item = { time; rank; seq = h.seq; v } in
  if h.n = Array.length h.a then begin
    let cap = max 16 (2 * h.n) in
    let a = Array.make cap item in
    Array.blit h.a 0 a 0 h.n;
    h.a <- a
  end;
  h.a.(h.n) <- item;
  h.n <- h.n + 1;
  sift_up h (h.n - 1)

(* Does the cursor head pop before the heap top?  Seed index [i] has
   seq [i + 1]. *)
let seed_first h =
  h.next < Array.length h.order
  && (h.n = 0
     ||
     let i = h.order.(h.next) and y = h.a.(0) in
     let t = h.times.(i) in
     t < y.time
     || (t = y.time && (h.rank < y.rank || (h.rank = y.rank && i + 1 < y.seq))))

let pop h =
  if seed_first h then begin
    let i = h.order.(h.next) in
    h.next <- h.next + 1;
    Some (h.times.(i), h.make i)
  end
  else if h.n = 0 then None
  else begin
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.n && less h.a.(l) h.a.(!smallest) then smallest := l;
      if r < h.n && less h.a.(r) h.a.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.a.(!smallest) in
        h.a.(!smallest) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !smallest
      end
    done;
    Some (top.time, top.v)
  end
