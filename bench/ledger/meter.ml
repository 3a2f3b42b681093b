(* Host-side accounting for the benchmark's calls into the library.

   Every call the ledger makes into a layer goes through [call]: its
   host time and the minor-heap words it allocates are charged to the
   running iteration, so an iteration's host time sums library work
   only and the benchmark's own checks stay outside the timer.  With
   [tracing] on, each call also leaves a span (layer, name, parent,
   launch/request id).  Spans stay in memory until the run ends; they
   are exported as Chrome trace-event JSON and folded into a per-layer
   self-time table. *)

(* Host time is process CPU time: the driver is single-threaded, and CPU
   time leaves out the stretches a shared machine spends running someone
   else, which wall-clock time on a busy host does not. *)
let now_ns () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9

(* Wall-clock time, for the run's deadline only. *)
let wall_ns () = Int64.to_float (Monotonic_clock.now ())

(* --- the host's speed ------------------------------------------------------ *)

(* A fixed reference workload in the simulator's own style: persistent
   map inserts, so allocation, minor collections and pointer chasing
   over a working set of a few hundred KB.  Its CPU time, taken next to
   each iteration, says how fast the host runs at that moment: on a
   shared host a neighbour's load slows the same code by up to 2x for
   minutes at a time.  Of the loops tried (integer, float, allocation,
   hash table, scattered reads, map), map inserts tracked the
   simulator's slowdowns most closely.  Never change it: normalized
   times are in its units. *)
module Int_map = Map.Make (Int)

let reference_ms () =
  let t0 = now_ns () in
  let m = ref Int_map.empty in
  for i = 1 to 40_000 do
    m := Int_map.add ((i * 7919) land 16383) i !m
  done;
  ignore (Sys.opaque_identity (Int_map.cardinal !m));
  (now_ns () -. t0) /. 1e6

(* [reference_ms] on the reference machine, a 2-vCPU Xeon VM at its
   fastest: normalized host times are that machine's milliseconds. *)
let reference_nominal_ms = 10.0

(* The host's speed relative to the reference machine (below 1 when
   slower); a host time times this factor is a normalized host time.
   The heap is collected first, so the reference always runs on a clean
   heap and its garbage is gone before the next timed span. *)
let speed () =
  Gc.full_major ();
  reference_nominal_ms /. reference_ms ()

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  layer : string;
  name : string;
  tag : string;  (* "launch" or "request" when [tag_id] names one, else "" *)
  tag_id : int;
  t0 : float;  (* ns *)
  t1 : float;
  words : float;  (* minor words allocated inside the span *)
}

type t = {
  mutable tracing : bool;
  mutable ns : float;  (* library host time since [reset] *)
  mutable words : float;  (* minor words allocated by library calls since [reset] *)
  mutable spans : span list;  (* finished spans, newest first *)
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable next_id : int;
}

let create () =
  { tracing = false; ns = 0.0; words = 0.0; spans = []; stack = []; next_id = 0 }

let reset t =
  t.ns <- 0.0;
  t.words <- 0.0

let open_span t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  (id, parent)

let close_span t span =
  t.stack <- List.tl t.stack;
  t.spans <- span :: t.spans

(* A span around benchmark-side work (an iteration, the serve replay):
   recorded when tracing, never charged to the library. *)
let group t ~layer ~name f =
  if not t.tracing then f ()
  else begin
    let id, parent = open_span t in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = f () in
    let t1 = now_ns () in
    let words = Gc.minor_words () -. w0 in
    close_span t { id; parent; layer; name; tag = ""; tag_id = -1; t0; t1; words };
    r
  end

let call t ~layer ~name ?(tag = "") ?(tag_id = -1) f =
  let opened = if t.tracing then Some (open_span t) else None in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let words = Gc.minor_words () -. w0 in
  t.words <- t.words +. words;
  t.ns <- t.ns +. (t1 -. t0);
  (match opened with
  | Some (id, parent) ->
      close_span t { id; parent; layer; name; tag; tag_id; t0; t1; words }
  | None -> ());
  r

let spans t = List.rev t.spans

(* Sums over the finished spans satisfying [pred]: duration (ns) and
   minor words. *)
let total t pred =
  List.fold_left
    (fun (ns, w) s -> if pred s then (ns +. (s.t1 -. s.t0), w +. s.words) else (ns, w))
    (0.0, 0.0) t.spans

(* --- Chrome trace-event export ------------------------------------------ *)

let event_json ~epoch s =
  let tag =
    if s.tag = "" then "" else Printf.sprintf {|,"%s":%d|} s.tag s.tag_id
  in
  Printf.sprintf
    {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"id":%d,"parent":%d,"layer":"%s"%s}}|}
    s.name s.layer
    ((s.t0 -. epoch) /. 1e3)
    ((s.t1 -. s.t0) /. 1e3)
    s.id s.parent s.layer tag

let write_chrome t ~path =
  let spans = spans t in
  let epoch = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc (event_json ~epoch s))
        spans;
      output_string oc "\n]}\n")

(* --- self time ------------------------------------------------------------ *)

type layer_time = { layer : string; calls : int; total_ns : float; self_ns : float }

(* A span's self time is its duration minus its direct children's; the
   children of one span never overlap (the driver is sequential), so
   the difference is the time no child covered. *)
let self_times t =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    t.spans;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id) in
      let c, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_layer s.layer)
      in
      Hashtbl.replace by_layer s.layer (c + 1, tot +. dur, slf +. self))
    t.spans;
  Hashtbl.fold
    (fun layer (calls, total_ns, self_ns) acc ->
      { layer; calls; total_ns; self_ns } :: acc)
    by_layer []
  |> List.sort (fun a b -> compare b.self_ns a.self_ns)
