(* Streaming telemetry for the serve fleet: windowed metrics sampled
   in virtual time.

   The fleet feeds per-shard observations (terminal outcomes, launch
   results, cache lookups, queue depths) into ring-buffered window
   accumulators; whenever the event clock crosses a window boundary the
   collector closes the elapsed windows, computes the windowed latency
   percentiles, and hands each closed window to the caller — the
   autoscaler and the SLO admission gate both evaluate on exactly these
   boundaries, so every control decision is a pure function of virtual
   time and the trace.

   When emission is on, each closed window renders as JSONL: one line
   per shard with activity, ordered by the shard's *member label*
   (device name + index within its device group), never by shard id —
   plus one fleet/control line appended by the caller once its window
   decisions are made.  Labelling by group member is what extends the
   fleet's device-shuffle invariance to the telemetry stream: shuffling
   the device multiset over shard ids renames no label and moves no
   byte.  Nothing here reads the host clock, so the stream is also
   byte-identical across engines and pool widths, like the snapshot
   JSON. *)

module Stats = Ompsimd_util.Stats

type config = {
  window : float;  (* virtual ticks per window *)
  ring : int;  (* latency samples retained per shard per window *)
  emit : bool;  (* collect the JSONL stream (observation is always on) *)
}

(* Live state of a shard, sampled by the fleet at each window close. *)
type sample = {
  sq_depth : int;  (* queued entries at the boundary *)
  sq_conc : int;  (* current concurrency target (autoscaler-adjusted) *)
  sq_busy : int;  (* servers occupied at the boundary *)
  sq_breakers_open : int;  (* breakers not closed (open or probing) *)
}

type shard_window = {
  w_shard : int;
  w_label : string;
  w_completed : int;
  w_shed : int;  (* rejected + shed: admission losses *)
  w_shed_slo : int;
  w_timed_out : int;
  w_failed : int;
  w_degraded : int;
  w_launches : int;
  w_dev_failures : int;
  w_relaunches : int;
  w_steals : int;
  w_lookups : int;
  w_hits : int;
  w_queue_peak : int;  (* deepest queue observed inside the window *)
  w_violations : int;  (* completions over the SLO inside the window *)
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

type acc = {
  label : string;
  mutable a_completed : int;
  mutable a_shed : int;
  mutable a_shed_slo : int;
  mutable a_timed_out : int;
  mutable a_failed : int;
  mutable a_degraded : int;
  mutable a_launches : int;
  mutable a_dev_failures : int;
  mutable a_relaunches : int;
  mutable a_steals : int;
  mutable a_lookups : int;
  mutable a_hits : int;
  mutable a_queue_peak : int;
  mutable a_violations : int;
  lat : float array;  (* ring buffer; wraps past [config.ring] *)
  mutable lat_n : int;  (* total pushed (not capped) *)
}

type t = {
  conf : config;
  base_conc : int;
  accs : acc array;
  order : int array;  (* shard ids in label order: the emission order *)
  mutable wstart : float;
  mutable windex : int;
  buf : Buffer.t;
}

let create conf ~labels ~base_conc =
  if conf.window <= 0.0 then invalid_arg "Telemetry.create: window must be > 0";
  if conf.ring < 1 then invalid_arg "Telemetry.create: ring must be >= 1";
  let accs =
    Array.map
      (fun label ->
        {
          label;
          a_completed = 0;
          a_shed = 0;
          a_shed_slo = 0;
          a_timed_out = 0;
          a_failed = 0;
          a_degraded = 0;
          a_launches = 0;
          a_dev_failures = 0;
          a_relaunches = 0;
          a_steals = 0;
          a_lookups = 0;
          a_hits = 0;
          a_queue_peak = 0;
          a_violations = 0;
          lat = Array.make conf.ring 0.0;
          lat_n = 0;
        })
      labels
  in
  let order = Array.init (Array.length labels) Fun.id in
  Array.sort
    (fun a b -> String.compare labels.(a) labels.(b))
    order;
  {
    conf;
    base_conc;
    accs;
    order;
    wstart = 0.0;
    windex = 0;
    buf = Buffer.create (if conf.emit then 4096 else 16);
  }

(* --- observations ------------------------------------------------------- *)

let observe_terminal t ~shard (outcome : Scheduler.outcome) ~latency ~slo =
  let a = t.accs.(shard) in
  match outcome with
  | Scheduler.Completed ->
      a.a_completed <- a.a_completed + 1;
      a.lat.(a.lat_n mod t.conf.ring) <- latency;
      a.lat_n <- a.lat_n + 1;
      (match slo with
      | Some s when latency > s -> a.a_violations <- a.a_violations + 1
      | _ -> ())
  | Scheduler.Rejected | Scheduler.Shed -> a.a_shed <- a.a_shed + 1
  | Scheduler.Shed_slo -> a.a_shed_slo <- a.a_shed_slo + 1
  | Scheduler.Timed_out -> a.a_timed_out <- a.a_timed_out + 1
  | Scheduler.Failed -> a.a_failed <- a.a_failed + 1
  | Scheduler.Degraded -> a.a_degraded <- a.a_degraded + 1

let observe_launch t ~shard ~failed =
  let a = t.accs.(shard) in
  a.a_launches <- a.a_launches + 1;
  if failed then a.a_dev_failures <- a.a_dev_failures + 1

let observe_relaunch t ~shard =
  let a = t.accs.(shard) in
  a.a_relaunches <- a.a_relaunches + 1

let observe_steal t ~shard =
  let a = t.accs.(shard) in
  a.a_steals <- a.a_steals + 1

let observe_cache t ~shard ~hit =
  let a = t.accs.(shard) in
  a.a_lookups <- a.a_lookups + 1;
  if hit then a.a_hits <- a.a_hits + 1

let observe_queue_depth t ~shard depth =
  let a = t.accs.(shard) in
  if depth > a.a_queue_peak then a.a_queue_peak <- depth

(* --- window close ------------------------------------------------------- *)

(* The window's retained latencies, sorted once for all its percentiles. *)
let retained_sorted (a : acc) =
  let s = Array.sub a.lat 0 (min a.lat_n (Array.length a.lat)) in
  Stats.sort_floats s;
  s

let percentile_of sorted p =
  if Array.length sorted = 0 then 0.0 else Stats.percentile_sorted sorted p

let active t (sw : shard_window) =
  sw.w_completed > 0 || sw.w_shed > 0 || sw.w_shed_slo > 0
  || sw.w_timed_out > 0 || sw.w_failed > 0 || sw.w_degraded > 0
  || sw.w_launches > 0 || sw.w_relaunches > 0 || sw.w_steals > 0
  || sw.w_lookups > 0 || sw.w_queue_peak > 0
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
  s "{\"w\": "; i w.index;
  s ", \"t0\": "; s (jf w.t0);
  s ", \"t1\": "; s (jf w.t1);
  s ", \"shard\": \""; s sw.w_label;
  s "\", \"completed\": "; i sw.w_completed;
  s ", \"shed\": "; i sw.w_shed;
  s ", \"shed_slo\": "; i sw.w_shed_slo;
  s ", \"timed_out\": "; i sw.w_timed_out;
  s ", \"failed\": "; i sw.w_failed;
  s ", \"degraded\": "; i sw.w_degraded;
  s ", \"launches\": "; i sw.w_launches;
  s ", \"device_failures\": "; i sw.w_dev_failures;
  s ", \"relaunches\": "; i sw.w_relaunches;
  s ", \"steals\": "; i sw.w_steals;
  s ", \"cache\": {\"lookups\": "; i sw.w_lookups;
  s ", \"hits\": "; i sw.w_hits;
  s "}, \"latency\": {\"p50\": "; s (jf sw.w_p50);
  s ", \"p95\": "; s (jf sw.w_p95);
  s ", \"p99\": "; s (jf sw.w_p99);
  s ", \"samples\": "; i sw.w_samples;
  s "}, \"queue\": {\"depth\": "; i sw.w_sample.sq_depth;
  s ", \"peak\": "; i sw.w_queue_peak;
  s "}, \"conc\": "; i sw.w_sample.sq_conc;
  s ", \"busy\": "; i sw.w_sample.sq_busy;
  s ", \"breakers_open\": "; i sw.w_sample.sq_breakers_open;
  s ", \"slo_violations\": "; i sw.w_violations;
  s "}\n"

let close t ~sample =
  let t0 = t.wstart and t1 = t.wstart +. t.conf.window in
  let sorted = Array.map retained_sorted t.accs in
  let per_shard =
    Array.mapi
      (fun i (a : acc) ->
        let s = sample i in
        let samples = sorted.(i) in
        {
          w_shard = i;
          w_label = a.label;
          w_completed = a.a_completed;
          w_shed = a.a_shed;
          w_shed_slo = a.a_shed_slo;
          w_timed_out = a.a_timed_out;
          w_failed = a.a_failed;
          w_degraded = a.a_degraded;
          w_launches = a.a_launches;
          w_dev_failures = a.a_dev_failures;
          w_relaunches = a.a_relaunches;
          w_steals = a.a_steals;
          w_lookups = a.a_lookups;
          w_hits = a.a_hits;
          w_queue_peak = a.a_queue_peak;
          w_violations = a.a_violations;
          w_samples = Array.length samples;
          w_p50 = percentile_of samples 50.0;
          w_p95 = percentile_of samples 95.0;
          w_p99 = percentile_of samples 99.0;
          w_sample = s;
        })
      t.accs
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
  (* reset the accumulators for the next window *)
  Array.iter
    (fun (a : acc) ->
      a.a_completed <- 0;
      a.a_shed <- 0;
      a.a_shed_slo <- 0;
      a.a_timed_out <- 0;
      a.a_failed <- 0;
      a.a_degraded <- 0;
      a.a_launches <- 0;
      a.a_dev_failures <- 0;
      a.a_relaunches <- 0;
      a.a_steals <- 0;
      a.a_lookups <- 0;
      a.a_hits <- 0;
      a.a_queue_peak <- 0;
      a.a_violations <- 0;
      a.lat_n <- 0)
    t.accs;
  t.wstart <- t1;
  t.windex <- t.windex + 1;
  if t.conf.emit && f_active then
    Array.iter
      (fun sid ->
        let sw = per_shard.(sid) in
        if active t sw then shard_line t.buf w sw)
      t.order;
  w

let advance t now ~sample ~on_close =
  while now >= t.wstart +. t.conf.window do
    on_close (close t ~sample)
  done

(* Close the final partial window (if anything happened in it) once the
   event heap drains; its [t1] stays on the window grid so the stream
   is a pure function of the trace, not of when it ended. *)
let finish t ~sample ~on_close =
  let dirty =
    Array.exists
      (fun (a : acc) ->
        a.a_completed > 0 || a.a_shed > 0 || a.a_shed_slo > 0
        || a.a_timed_out > 0 || a.a_failed > 0 || a.a_degraded > 0
        || a.a_launches > 0 || a.a_relaunches > 0 || a.a_steals > 0
        || a.a_lookups > 0 || a.a_queue_peak > 0 || a.lat_n > 0)
      t.accs
  in
  if dirty then on_close (close t ~sample)

(* The fleet/control line: appended by the caller after its
   window-boundary decisions (shedding flag, autoscale actions), so
   the stream records not just what the fleet saw but what the control
   plane did about it. *)
let emit_control t (w : window) ~shedding ~grows ~shrinks ~reopens ~conc
    ~pool_left ~queued ~tenants =
  if t.conf.emit && (w.f_active || grows + shrinks + reopens > 0 || shedding)
  then begin
    let b = t.buf in
    let s = Buffer.add_string b and i = add_int b in
    s "{\"w\": "; i w.index;
    s ", \"fleet\": {\"p99\": "; s (jf w.f_p99);
    s ", \"samples\": "; i w.f_samples;
    s ", \"queued\": "; i queued;
    s ", \"conc\": "; i conc;
    s ", \"pool_left\": "; i pool_left;
    s ", \"shedding\": "; s (string_of_bool shedding);
    s ", \"grows\": "; i grows;
    s ", \"shrinks\": "; i shrinks;
    s ", \"reopens\": "; i reopens;
    s ", \"tenants\": {";
    List.iteri
      (fun k (name, occ) ->
        if k > 0 then s ", ";
        s "\""; s name; s "\": "; i occ)
      tenants;
    s "}}}\n"
  end

let jsonl t = Buffer.contents t.buf
