type event = { time : float; block : int; tid : int; tag : string; detail : string }

type t = { mutable events : event list (* reversed *) }

let create () = { events = [] }

let record t ~time ~block ~tid ~tag detail =
  match t with
  | None -> ()
  | Some t -> t.events <- { time; block; tid; tag; detail } :: t.events

let events t = List.rev t.events

let count t ~tag =
  List.fold_left (fun acc e -> if e.tag = tag then acc + 1 else acc) 0 t.events

