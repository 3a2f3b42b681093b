(* The discrete-event queue of the service loop ({!Fleet.run}): a
   binary min-heap on (time, rank, seq).  Completions
   (rank 0) sort before arrivals (rank 1) at the same tick — a freed
   server picks up the simultaneous arrival instead of bouncing it to
   the queue — and the insertion sequence number makes every comparison
   strict, so replay order never depends on heap internals.

   A trace's arrivals are known up front, so {!seeded} keeps them out
   of the heap: they sit in one array stable-sorted by time (their seqs
   are 1..n in list order, so the sort order is the heap order), read
   by a cursor.  Only events pushed later — completions, retries,
   relaunches — pay heap sifts, and the heap stays as small as the
   fleet's in-flight work.  [pop] takes the lesser of the cursor head
   and the heap top under the same order, so the pop sequence is
   exactly that of one heap holding every event. *)

type 'a item = { time : float; rank : int; seq : int; v : 'a }

type 'a t = {
  mutable a : 'a item array;
  mutable n : int;
  mutable seq : int;
  seed : 'a item array;  (* seeded events in pop order *)
  mutable next : int;  (* cursor: the first unpopped seeded event *)
}

let create () = { a = [||]; n = 0; seq = 0; seed = [||]; next = 0 }

(* The record fixes the key types, so these compile to float and int
   compares; over a bare tuple the same code was polymorphic [compare]. *)
let less x y =
  x.time < y.time
  || (x.time = y.time && (x.rank < y.rank || (x.rank = y.rank && x.seq < y.seq)))

let seeded ~rank evs =
  let seed =
    Array.of_list (List.mapi (fun i (time, v) -> { time; rank; seq = i + 1; v }) evs)
  in
  let sorted = ref true in
  for i = 1 to Array.length seed - 1 do
    if seed.(i).time < seed.(i - 1).time then sorted := false
  done;
  (* stable: equal times keep list (= seq) order *)
  if not !sorted then
    Array.stable_sort (fun x y -> Float.compare x.time y.time) seed;
  { a = [||]; n = 0; seq = Array.length seed; seed; next = 0 }

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
  let rec sift_up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if less h.a.(i) h.a.(p) then begin
        let tmp = h.a.(p) in
        h.a.(p) <- h.a.(i);
        h.a.(i) <- tmp;
        sift_up p
      end
    end
  in
  sift_up (h.n - 1)

let pop h =
  let last = Array.length h.seed - 1 in
  if h.next <= last && (h.n = 0 || less h.seed.(h.next) h.a.(0)) then begin
    let it = h.seed.(h.next) in
    (* drop the popped payload: the slot now shares the last seeded
       item, which stays live until it pops anyway *)
    h.seed.(h.next) <- h.seed.(last);
    h.next <- h.next + 1;
    Some (it.time, it.v)
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
