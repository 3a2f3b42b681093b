(* One counter per serve event: the slots, their order and the sums
   over them.  See tally.mli. *)

type event =
  | Placed
  | Launch
  | Dev_failure
  | Relaunch
  | Retry
  | Steal
  | Batch
  | Batched
  | Breaker_open
  | Reopen
  | Grow
  | Shrink
  | Lookup
  | Lookup_hit
  | Violation
  | Recovered
  | Memo_hit
  | Affinity_move
  | Evicted
  | Outcome of Scheduler.outcome
  | Cache of Scheduler.cache_status

let outcomes =
  Scheduler.
    [ Completed; Rejected; Shed; Shed_slo; Timed_out; Failed; Degraded ]

(* [x]'s position in [l], which lists every constructor of its type *)
let rec pos x = function
  | [] -> invalid_arg "Tally.pos"
  | y :: l -> if y == x then 0 else 1 + pos x l

let ix = function
  | Placed -> 0
  | Launch -> 1
  | Dev_failure -> 2
  | Relaunch -> 3
  | Retry -> 4
  | Steal -> 5
  | Batch -> 6
  | Batched -> 7
  | Breaker_open -> 8
  | Reopen -> 9
  | Grow -> 10
  | Shrink -> 11
  | Lookup -> 12
  | Lookup_hit -> 13
  | Violation -> 14
  | Recovered -> 15
  | Memo_hit -> 16
  | Affinity_move -> 17
  | Evicted -> 18
  | Outcome o -> 19 + pos o outcomes
  | Cache c -> 26 + pos c Scheduler.[ C_hit; C_miss; C_join; C_none ]

type t = int array

let create () = Array.make (ix (Cache Scheduler.C_none) + 1) 0
let add t e n =
  let i = ix e in
  t.(i) <- t.(i) + n
let incr t e = add t e 1
let get t e = t.(ix e)
let sum ts e = Array.fold_left (fun acc t -> acc + get t e) 0 ts
let diff t ~since = Array.map2 ( - ) t since
let copy_into t ~dst = Array.blit t 0 dst 0 (Array.length t)
