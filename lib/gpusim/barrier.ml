type t = {
  id : int;
  (* The display name is formatted on demand from [namer] and two int
     arguments, then cached: runtime layers create barriers per (warp,
     mask) and per block, and only stall reports and the sanitizer ever
     read the name.  [rename] swaps the first argument when a recycled
     block frame reuses the barrier for another block. *)
  namer : int -> int -> string;
  mutable name_a : int;
  name_b : int;
  mutable name : string;
  mutable named : bool;
  expected : int;
  cost : float;
  spin : bool;
      (* software spin barrier: the whole cost retires instructions, so
         all of it is issue-occupying busy time (no hidden stall part) *)
  (* Parked threads as a flat array: a park is one array store and a
     release walks the array in place — no per-waiter record, no list
     cell, no closure.  Each parked thread's continuation, if it has
     one, is the engine's (kept per thread).  The array is created
     lazily from the first parked thread (a typed fill, so no dummy
     element is needed) and sized [expected - 1]: the completing
     arriver never parks. *)
  mutable ths : Thread.t array;
  mutable nwaiters : int;
  mutable live_index : int;
      (* the barrier's slot in the running block's live list, -1 when
         unregistered: re-registration (every round of a reused
         barrier) is a compare.  Reset when the engine run that set it
         ends, so a barrier that outlives its block (a recycled team)
         registers again in the next run. *)
}

(* Process-unique ids; atomic because blocks simulate on several domains
   and runtime layers create barriers mid-simulation.  An id depends on
   every barrier created before it, so ids key the sanitizer's pending
   rendezvous only and never reach a report: the engine's stall report
   numbers a block's barriers by [live_index]. *)
let next_id = Atomic.make 0

let make ~namer ~a ~b ~name ~named ~spin ~expected ~cost =
  if expected <= 0 then invalid_arg "Barrier.create: expected must be positive";
  {
    id = Atomic.fetch_and_add next_id 1;
    namer;
    name_a = a;
    name_b = b;
    name;
    named;
    expected;
    cost;
    spin;
    ths = [||];
    nwaiters = 0;
    live_index = -1;
  }

let fixed_name _ _ = ""

let create ?(name = "barrier") ?(spin = false) ~expected ~cost () =
  make ~namer:fixed_name ~a:0 ~b:0 ~name ~named:true ~spin ~expected ~cost

let create_named ~namer ~a ~b ?(spin = false) ~expected ~cost () =
  make ~namer ~a ~b ~name:"" ~named:false ~spin ~expected ~cost

let rename t a =
  if t.name_a <> a then begin
    t.name_a <- a;
    t.named <- false
  end

let id t = t.id

let name t =
  if not t.named then begin
    t.name <- t.namer t.name_a t.name_b;
    t.named <- true
  end;
  t.name
let expected t = t.expected
let waiting t = t.nwaiters
let live_index t = t.live_index
let set_live_index t i = t.live_index <- i

(* The release: clocks of all participants are aligned to the max arrival
   clock and advanced by [cost].  The barrier instruction itself issues (a
   cycle or two); the rest of the cost is pipeline-drain stall, which
   occupies no issue slots and can be hidden by other resident blocks. *)
let charge t tmax th =
  Thread.align_clock th tmax;
  if t.cost > 0.0 then begin
    let busy_part = if t.spin then t.cost else Float.min t.cost 2.0 in
    Thread.tick th busy_part;
    Thread.tick_wait th (t.cost -. busy_part)
  end

let release t last =
  let tmax = ref (Thread.clock last) in
  let ths = t.ths in
  for i = 0 to t.nwaiters - 1 do
    let c = Thread.clock ths.(i) in
    if c > !tmax then tmax := c
  done;
  let tmax = !tmax in
  charge t tmax last;
  for i = 0 to t.nwaiters - 1 do
    charge t tmax ths.(i)
  done

let park t th =
  if Array.length t.ths = 0 then t.ths <- Array.make (t.expected - 1) th
  else t.ths.(t.nwaiters) <- th;
  t.nwaiters <- t.nwaiters + 1

let try_complete t th =
  if t.nwaiters + 1 < t.expected then false
  else begin
    release t th;
    true
  end

let waiter t i = t.ths.(i)
let clear t = t.nwaiters <- 0
