type 'a t = 'a list Atomic.t

let create () = Atomic.make []

let rec take t =
  match Atomic.get t with
  | [] -> None
  | x :: rest as cur -> if Atomic.compare_and_set t cur rest then Some x else take t

let rec give t x =
  let cur = Atomic.get t in
  if not (Atomic.compare_and_set t cur (x :: cur)) then give t x
