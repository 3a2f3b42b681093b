(* A fixed pool of OCaml 5 domains for block-parallel simulation.

   Design constraints (see DESIGN.md "Host-side parallel simulation"):
   - no dependencies beyond the stdlib (Domain / Mutex / Condition / Atomic);
   - deterministic results: workers race only for *indices* (an atomic
     fetch-add over [0, n)); slot [i] of the result array is always filled
     by the computation for index [i], so the caller observes the same
     array no matter which domain ran which index;
   - a pool with zero workers degrades to a plain [Array.init], which is
     the sequential reference path.

   The pool is also the launch context: every launch it runs takes its
   sanitizer, fault-plan and watchdog settings from here, so two pools
   with different settings run side by side without process-global
   state.  It also keeps what one launch leaves for the next (see
   [take_frames]). *)

type job = {
  n : int;
  next : int Atomic.t;  (* next unclaimed index *)
  completed : int Atomic.t;
  run : int -> unit;  (* wrapped task: stores result / records exception *)
}

(* Engine frames with the launch shape they were built for: a frame is
   built for one device config, block size and launch record, stamped
   on its warps. *)
type shaped_frames = {
  cfg : Config.t;
  block : int;
  launch : Thread.launch;
  frames : Engine.frames;
}

type t = {
  sanitize : bool;
  faults : Fault.plan option;
  watchdog : float;
  launches : int Atomic.t;  (* armed launches drawn from this pool *)
  aborted : Ompsan.finding list Atomic.t;  (* newest block first *)
  (* What the last launch left: its L2-view buffers, which fit any
     launch, and its frames, which fit only its own shape.  One shape
     only: serve_cold's fleet of four device shapes rotates through
     more, and keeping the frames of two shapes raised its heap peak
     3%, of three 16%. *)
  mutable buffers : Memory.buffers option;
  mutable frames : shaped_frames option;
  carry_lock : Mutex.t;
  workers : int;
  mutable domains : unit Domain.t array;
  m : Mutex.t;
  work : Condition.t;  (* new job published *)
  finished : Condition.t;  (* all indices of the current job completed *)
  mutable gen : int;  (* bumped once per published job *)
  mutable job : job option;
  mutable stop : bool;
}

let size t = t.workers
let sanitize t = t.sanitize
let faults t = t.faults
let watchdog t = t.watchdog
let next_nonce t = Atomic.fetch_and_add t.launches 1 + 1

let rec stash_aborted t fs =
  let cur = Atomic.get t.aborted in
  if
    fs <> []
    && not (Atomic.compare_and_set t.aborted cur (List.rev_append fs cur))
  then stash_aborted t fs

let take_aborted t = List.rev (Atomic.exchange t.aborted [])

(* A launch takes what it reuses out for its duration, so two launches
   at once never share it. *)
let take_buffers t =
  Mutex.protect t.carry_lock (fun () ->
      let b = t.buffers in
      t.buffers <- None;
      b)

let give_buffers t b = Mutex.protect t.carry_lock (fun () -> t.buffers <- Some b)

(* [==] first: callers mostly pass the same config record *)
let same_cfg (a : Config.t) b = a == b || a = b

let take_frames t ~cfg ~block ~launch =
  Mutex.protect t.carry_lock (fun () ->
      match t.frames with
      | Some f when f.block = block && f.launch = launch && same_cfg f.cfg cfg ->
          t.frames <- None;
          Some f.frames
      | _ -> None)

let give_frames t ~cfg ~block ~launch frames =
  Mutex.protect t.carry_lock (fun () ->
      t.frames <- Some { cfg; block; launch; frames })

let drain job =
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      job.run i;
      go ()
    end
  in
  go ()

let worker t =
  let mygen = ref 0 in
  let rec loop () =
    Mutex.lock t.m;
    while t.gen = !mygen && not t.stop do
      Condition.wait t.work t.m
    done;
    if t.stop then Mutex.unlock t.m
    else begin
      mygen := t.gen;
      let job = t.job in
      Mutex.unlock t.m;
      (match job with Some j -> drain j | None -> ());
      loop ()
    end
  in
  loop ()

let create ?(sanitize = false) ?faults ?(watchdog = 0.0) ?(domains = 0) () =
  if domains < 0 then invalid_arg "Pool.create: domains must be >= 0";
  (* Cap at a sane multiple of the machine: a pool wider than the host
     only adds scheduling noise. *)
  let workers = min domains (4 * Domain.recommended_domain_count ()) in
  let t =
    {
      sanitize;
      faults;
      watchdog;
      launches = Atomic.make 0;
      aborted = Atomic.make [];
      buffers = None;
      frames = None;
      carry_lock = Mutex.create ();
      workers;
      domains = [||];
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      gen = 0;
      job = None;
      stop = false;
    }
  in
  t.domains <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  Array.iter Domain.join t.domains

let parallel_init t n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  if t.workers = 0 || n <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    (* first_exn keeps the lowest-index failure so the caller sees the
       same exception the sequential path would raise first *)
    let first_exn = ref None in
    let completed = Atomic.make 0 in
    let run_one i =
      (try results.(i) <- Some (f i)
       with e ->
         Mutex.lock t.m;
         (match !first_exn with
         | Some (j, _) when j < i -> ()
         | _ -> first_exn := Some (i, e));
         Mutex.unlock t.m);
      if Atomic.fetch_and_add completed 1 = n - 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.finished;
        Mutex.unlock t.m
      end
    in
    let job = { n; next = Atomic.make 0; completed; run = run_one } in
    Mutex.lock t.m;
    t.job <- Some job;
    t.gen <- t.gen + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    (* the submitting domain simulates too *)
    drain job;
    Mutex.lock t.m;
    while Atomic.get completed < n do
      Condition.wait t.finished t.m
    done;
    t.job <- None;
    Mutex.unlock t.m;
    (match !first_exn with Some (_, e) -> raise e | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> failwith "Pool.parallel_init: missing result")
      results
  end
