(* The discrete-event queue of the service loop ({!Fleet.run}): a
   binary min-heap on (time, rank, seq).  Completions
   (rank 0) sort before arrivals (rank 1) at the same tick — a freed
   server picks up the simultaneous arrival instead of bouncing it to
   the queue — and the insertion sequence number makes every comparison
   strict, so replay order never depends on heap internals. *)

type 'a item = { time : float; rank : int; seq : int; v : 'a }

type 'a t = {
  mutable a : 'a item array;
  mutable n : int;
  mutable seq : int;
}

let create () = { a = [||]; n = 0; seq = 0 }

(* The record fixes the key types, so these compile to float and int
   compares; over a bare tuple the same code was polymorphic [compare]. *)
let less x y =
  x.time < y.time
  || (x.time = y.time && (x.rank < y.rank || (x.rank = y.rank && x.seq < y.seq)))

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
  if h.n = 0 then None
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
