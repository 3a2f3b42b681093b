(* The fleet autoscaler: a deterministic control loop over telemetry
   windows.

   Capacity never comes from mid-run allocation: the fleet pre-creates
   a pooled budget of [budget] executor tokens, and every scale-up
   moves one token from the pool onto a shard (every scale-down returns
   one).  The control law is a banded hysteresis with a per-shard
   cooldown:

     grow    when the shard's windowed p99 is over the SLO (or the
             window completed nothing while work is queued past the
             concurrency target — a stalled shard has no percentiles),
             the shard is under its extra-server cap, and the pool has
             a token;
     shrink  when the queue is empty and the windowed p99 is under
             [down] x SLO, returning the token;
     hold    otherwise — the dead band between [down] x SLO and the
             SLO is what keeps a square-wave load from oscillating the
             target, and the cooldown spaces actions so one burst
             triggers at most one step.

   Shards are evaluated in the caller's [order] — the fleet passes
   member-label order, never shard-id order, so pool-token contention
   resolves identically under device shuffles.  Everything is a pure
   function of the window stats, which are themselves pure functions
   of virtual time: the scaling schedule replays byte-identically. *)

type config = {
  enabled : bool;
  slo : float;  (* virtual ticks; the latency target it scales against *)
  budget : int;  (* pooled extra executor tokens, fleet-wide *)
  max_extra : int;  (* cap on pool tokens held by one shard *)
  down : float;  (* shrink band: p99 below [down * slo] releases a token *)
  cooldown : int;  (* windows a shard holds still after an action *)
}

let disabled =
  { enabled = false; slo = 0.0; budget = 0; max_extra = 0; down = 0.5; cooldown = 2 }

type verdict = Grow | Shrink | Hold

type stat = {
  p99 : float;  (* effective windowed p99 (carried forward when stale) *)
  queued : int;  (* queue depth at the window boundary *)
  conc : int;  (* current concurrency target *)
}

(* The pure control law, before budget/cap/cooldown bookkeeping. *)
let decide conf (s : stat) =
  if s.p99 > conf.slo || (s.p99 = 0.0 && s.queued > s.conc) then Grow
  else if s.queued = 0 && s.p99 < conf.down *. conf.slo then Shrink
  else Hold

type t = {
  conf : config;
  extra : int array;  (* pool tokens currently held per shard *)
  last : int array;  (* window index of the shard's last action *)
  mutable pool : int;
}

let create conf ~shards =
  if conf.budget < 0 then invalid_arg "Autoscale.create: negative budget";
  {
    conf;
    extra = Array.make shards 0;
    (* just far enough in the past that window 0 is already actionable;
       [-max_int] would overflow the [window - last] cooldown check *)
    last = Array.make shards (-conf.cooldown - 1);
    pool = conf.budget;
  }

let pool_left t = t.pool
let extra t sid = t.extra.(sid)

type action = { a_shard : int; a_verdict : verdict }

let step t ~window ~order ~stats =
  if not t.conf.enabled then []
  else begin
    let actions = ref [] in
    Array.iter
      (fun sid ->
        if window - t.last.(sid) >= t.conf.cooldown then
          match decide t.conf stats.(sid) with
          | Grow when t.pool > 0 && t.extra.(sid) < t.conf.max_extra ->
              t.pool <- t.pool - 1;
              t.extra.(sid) <- t.extra.(sid) + 1;
              t.last.(sid) <- window;
              actions := { a_shard = sid; a_verdict = Grow } :: !actions
          | Shrink when t.extra.(sid) > 0 ->
              t.pool <- t.pool + 1;
              t.extra.(sid) <- t.extra.(sid) - 1;
              t.last.(sid) <- window;
              actions := { a_shard = sid; a_verdict = Shrink } :: !actions
          | Grow | Shrink | Hold -> ())
      order;
    List.rev !actions
  end
