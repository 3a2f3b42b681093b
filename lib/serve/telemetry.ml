(* Streaming telemetry for the serve fleet: windowed metrics sampled
   in virtual time.

   The fleet counts each event once, in its shards' tallies
   ({!Tally}); a window's per-shard counts are each tally's change
   since the previous close.  The collector itself keeps only what is
   not a count: each shard's completion latencies, ring-buffered, and
   its deepest queue inside the window.  Whenever the event clock
   crosses a window boundary it closes the elapsed windows, computes
   the windowed latency percentiles, and hands each closed window to
   the caller — the
   autoscaler and the SLO admission gate both evaluate on exactly these
   boundaries, so every control decision is a pure function of virtual
   time and the trace.

   When emission is on, each closed window renders as JSONL: one line
   per shard with activity, ordered by the shard's *member label*
   (device name + index within its device group), never by shard id —
   plus one fleet/control line once the caller's window decisions are
   made.  Labelling by group member is what extends the
   fleet's device-shuffle invariance to the telemetry stream: shuffling
   the device multiset over shard ids renames no label and moves no
   byte.  Nothing here reads the host clock, so the stream is also
   byte-identical across pool widths, like the snapshot JSON. *)

module Stats = Ompsimd_util.Stats

(* 512 retained latency samples per shard per window: enough for a
   stable windowed p99 at serve rates, bounded so a flash crowd can't
   grow the collector *)
let ring = 512

(* Live state of a shard, sampled by the fleet at each window close. *)
type sample = {
  sq_depth : int;  (* queued entries at the boundary *)
  sq_conc : int;  (* current concurrency target (autoscaler-adjusted) *)
  sq_busy : int;  (* servers occupied at the boundary *)
  sq_breakers_open : int;  (* breakers not closed (open or probing) *)
}

type shard_window = {
  w_label : string;
  w_counts : Tally.t;  (* the shard's tally change since the previous close *)
  w_queue_peak : int;  (* deepest queue observed inside the window *)
  w_samples : int;  (* latency samples (completions) in the window *)
  w_p50 : float;
  w_p95 : float;
  w_p99 : float;
  w_sample : sample;  (* live state at the boundary *)
}

type window = {
  index : int;
  t0 : float;
  t1 : float;
  per_shard : shard_window array;  (* in shard-id order *)
  f_samples : int;
  f_p99 : float;  (* over every shard's retained samples *)
  f_active : bool;  (* any shard line had activity *)
}

(* the control plane's state after its window-boundary decisions *)
type control = {
  shedding : bool;
  conc : int;
  pool_left : int;
  queued : int;
  tenants : (string * int) list;
}

type shard = {
  label : string;
  tally : Tally.t;  (* the fleet's live tally of this shard *)
  mark : Tally.t;  (* its value when the previous window closed *)
  lat : float array;  (* ring buffer; wraps past [ring] *)
  mutable lat_n : int;  (* total pushed (not capped) *)
  mutable queue_peak : int;
}

type t = {
  window : float;  (* virtual ticks per window *)
  emit : bool;  (* collect the JSONL stream *)
  base_conc : int;
  shards : shard array;
  order : int array;  (* shard ids in label order: the emission order *)
  mutable wstart : float;
  mutable windex : int;
  buf : Buffer.t;
}

let create ~window ~emit ~labels ~tallies ~base_conc =
  if window <= 0.0 then invalid_arg "Telemetry.create: window must be > 0";
  let shards =
    Array.mapi
      (fun i label ->
        {
          label;
          tally = tallies.(i);
          mark = Tally.create ();
          lat = Array.make ring 0.0;
          lat_n = 0;
          queue_peak = 0;
        })
      labels
  in
  let order = Array.init (Array.length labels) Fun.id in
  Array.sort
    (fun a b -> String.compare labels.(a) labels.(b))
    order;
  {
    window;
    emit;
    base_conc;
    shards;
    order;
    wstart = 0.0;
    windex = 0;
    buf = Buffer.create (if emit then 4096 else 16);
  }

(* --- observations ------------------------------------------------------- *)

let order t = t.order

let observe_latency t ~shard latency =
  let a = t.shards.(shard) in
  a.lat.(a.lat_n mod ring) <- latency;
  a.lat_n <- a.lat_n + 1

let observe_queue_depth t ~shard depth =
  let a = t.shards.(shard) in
  if depth > a.queue_peak then a.queue_peak <- depth

(* --- window close ------------------------------------------------------- *)

(* The window's retained latencies, sorted once for all its percentiles. *)
let retained_sorted (a : shard) =
  let s = Array.sub a.lat 0 (min a.lat_n (Array.length a.lat)) in
  Stats.sort_floats s;
  s

let percentile_of sorted p =
  if Array.length sorted = 0 then 0.0 else Stats.percentile_sorted sorted p

(* The counts a shard line shows activity by: terminal outcomes,
   launches, relaunches, steals and compile-cache lookups (a device
   failure, a hit or an SLO violation comes with one of them). *)
let shown =
  List.map (fun o -> Tally.Outcome o) Tally.outcomes
  @ Tally.[ Launch; Relaunch; Steal; Lookup ]

let counted c = List.exists (fun e -> Tally.get c e > 0) shown

let active t (sw : shard_window) =
  counted sw.w_counts || sw.w_queue_peak > 0
  || sw.w_sample.sq_depth > 0 || sw.w_sample.sq_busy > 0
  || sw.w_sample.sq_breakers_open > 0
  || sw.w_sample.sq_conc <> t.base_conc

(* The lines are written field by field straight into the stream, with
   no whole-line [Printf] format: [string_of_int] and [string_of_bool]
   print exactly what [%d] and [%b] do, and floats go through [jf]'s
   one [%.3f], so every line is byte for byte what one [Printf] format
   of its fields would print. *)
let jf x = Printf.sprintf "%.3f" x
let add_int b n = Buffer.add_string b (string_of_int n)

let shard_line b w (sw : shard_window) =
  let s = Buffer.add_string b and i = add_int b in
  let g e = Tally.get sw.w_counts e in
  let n e = i (g e) in
  s "{\"w\": "; i w.index;
  s ", \"t0\": "; s (jf w.t0);
  s ", \"t1\": "; s (jf w.t1);
  s ", \"shard\": \""; s sw.w_label;
  s "\", \"completed\": "; n (Tally.Outcome Scheduler.Completed);
  s ", \"shed\": ";
  i (g (Tally.Outcome Scheduler.Rejected) + g (Tally.Outcome Scheduler.Shed));
  s ", \"shed_slo\": "; n (Tally.Outcome Scheduler.Shed_slo);
  s ", \"timed_out\": "; n (Tally.Outcome Scheduler.Timed_out);
  s ", \"failed\": "; n (Tally.Outcome Scheduler.Failed);
  s ", \"degraded\": "; n (Tally.Outcome Scheduler.Degraded);
  s ", \"launches\": "; n Tally.Launch;
  s ", \"device_failures\": "; n Tally.Dev_failure;
  s ", \"relaunches\": "; n Tally.Relaunch;
  s ", \"steals\": "; n Tally.Steal;
  s ", \"cache\": {\"lookups\": "; n Tally.Lookup;
  s ", \"hits\": "; n Tally.Lookup_hit;
  s "}, \"latency\": {\"p50\": "; s (jf sw.w_p50);
  s ", \"p95\": "; s (jf sw.w_p95);
  s ", \"p99\": "; s (jf sw.w_p99);
  s ", \"samples\": "; i sw.w_samples;
  s "}, \"queue\": {\"depth\": "; i sw.w_sample.sq_depth;
  s ", \"peak\": "; i sw.w_queue_peak;
  s "}, \"conc\": "; i sw.w_sample.sq_conc;
  s ", \"busy\": "; i sw.w_sample.sq_busy;
  s ", \"breakers_open\": "; i sw.w_sample.sq_breakers_open;
  s ", \"slo_violations\": "; n Tally.Violation;
  s "}\n"

let close t ~sample =
  let t0 = t.wstart and t1 = t.wstart +. t.window in
  let sorted = Array.map retained_sorted t.shards in
  let per_shard =
    Array.mapi
      (fun i (a : shard) ->
        let samples = sorted.(i) in
        {
          w_label = a.label;
          w_counts = Tally.diff a.tally ~since:a.mark;
          w_queue_peak = a.queue_peak;
          w_samples = Array.length samples;
          w_p50 = percentile_of samples 50.0;
          w_p95 = percentile_of samples 95.0;
          w_p99 = percentile_of samples 99.0;
          w_sample = sample i;
        })
      t.shards
  in
  let all = Array.concat (Array.to_list sorted) in
  Stats.sort_floats all;
  let f_active = Array.exists (active t) per_shard in
  let w =
    {
      index = t.windex;
      t0;
      t1;
      per_shard;
      f_samples = Array.length all;
      f_p99 = percentile_of all 99.0;
      f_active;
    }
  in
  (* the latency ring and the queue peak restart here; the counts
     restart once the control plane has run ({!control_line}) *)
  Array.iter
    (fun (a : shard) ->
      a.lat_n <- 0;
      a.queue_peak <- 0)
    t.shards;
  t.wstart <- t1;
  t.windex <- t.windex + 1;
  if t.emit && f_active then
    Array.iter
      (fun sid ->
        let sw = per_shard.(sid) in
        if active t sw then shard_line t.buf w sw)
      t.order;
  w

(* The fleet/control line, appended after the caller's window-boundary
   decisions, so the stream records not just what the fleet saw but
   what the control plane did about it.  The grows, shrinks and
   reopens are the tallies' change since the window closed: only the
   decisions bumped them.  Then every mark moves up to the tally. *)
let control_line t (w : window) (c : control) =
  let since e =
    Array.fold_left
      (fun acc (a : shard) -> acc + Tally.get a.tally e - Tally.get a.mark e)
      0 t.shards
  in
  let grows = since Tally.Grow
  and shrinks = since Tally.Shrink
  and reopens = since Tally.Reopen in
  if t.emit && (w.f_active || grows + shrinks + reopens > 0 || c.shedding)
  then begin
    let b = t.buf in
    let s = Buffer.add_string b and i = add_int b in
    s "{\"w\": "; i w.index;
    s ", \"fleet\": {\"p99\": "; s (jf w.f_p99);
    s ", \"samples\": "; i w.f_samples;
    s ", \"queued\": "; i c.queued;
    s ", \"conc\": "; i c.conc;
    s ", \"pool_left\": "; i c.pool_left;
    s ", \"shedding\": "; s (string_of_bool c.shedding);
    s ", \"grows\": "; i grows;
    s ", \"shrinks\": "; i shrinks;
    s ", \"reopens\": "; i reopens;
    s ", \"tenants\": {";
    List.iteri
      (fun k (name, occ) ->
        if k > 0 then s ", ";
        s "\""; s name; s "\": "; i occ)
      c.tenants;
    s "}}}\n"
  end;
  Array.iter (fun (a : shard) -> Tally.copy_into a.tally ~dst:a.mark) t.shards

let close_window t ~sample ~on_close =
  let w = close t ~sample in
  control_line t w (on_close w)

let advance t now ~sample ~on_close =
  while now >= t.wstart +. t.window do
    close_window t ~sample ~on_close
  done

(* Close the final partial window (if anything happened in it) once the
   event heap drains; its [t1] stays on the window grid so the stream
   is a pure function of the trace, not of when it ended. *)
let finish t ~sample ~on_close =
  let dirty =
    Array.exists
      (fun (a : shard) ->
        a.lat_n > 0 || a.queue_peak > 0
        || counted (Tally.diff a.tally ~since:a.mark))
      t.shards
  in
  if dirty then close_window t ~sample ~on_close

let jsonl t = Buffer.contents t.buf
