(* Per-kernel circuit breakers (see breaker.mli for the policy). *)

type state = Closed | Open of float (* opened at *) | Probing
type entry = { mutable consecutive : int; mutable state : state }

type 'k t = {
  threshold : int;  (* consecutive failures that open a breaker; 0 = off *)
  cooldown : float;
  table : ('k, entry) Hashtbl.t;
}

let create ~threshold ~backoff =
  { threshold; cooldown = 8.0 *. backoff; table = Hashtbl.create 16 }

let entry t key =
  match Hashtbl.find t.table key with
  | e -> e
  | exception Not_found ->
      let e = { consecutive = 0; state = Closed } in
      Hashtbl.add t.table key e;
      e

let admit t key ~now =
  if t.threshold = 0 then `Admit
  else
    let e = entry t key in
    match e.state with
    | Closed -> `Admit
    | Probing -> `Shed
    | Open opened_at ->
        if now >= opened_at +. t.cooldown then begin
          e.state <- Probing;
          `Probe
        end
        else `Shed

let success t key =
  if t.threshold > 0 then begin
    let e = entry t key in
    e.consecutive <- 0;
    e.state <- Closed
  end

let failure t key ~now =
  t.threshold > 0
  &&
  let e = entry t key in
  e.consecutive <- e.consecutive + 1;
  match e.state with
  | Probing ->
      e.state <- Open now;
      true
  | Closed when e.consecutive >= t.threshold ->
      e.state <- Open now;
      true
  | Closed | Open _ -> false

let open_count t =
  Hashtbl.fold
    (fun _ e n -> match e.state with Closed -> n | Open _ | Probing -> n + 1)
    t.table 0

let fast_forward t ~at =
  Hashtbl.fold
    (fun _ e n ->
      match e.state with
      | Open opened_at when opened_at +. t.cooldown > at ->
          e.state <- Open (at -. t.cooldown -. 1.0);
          n + 1
      | Open _ | Closed | Probing -> n)
    t.table 0
