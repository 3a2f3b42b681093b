(* A fixed pool of OCaml 5 domains for block-parallel simulation.

   Design constraints (see DESIGN.md "Host-side parallel simulation"):
   - no dependencies beyond the stdlib (Domain / Mutex / Condition / Atomic);
   - deterministic results: workers race only for *indices* (an atomic
     fetch-add over [0, n)); slot [i] of the result array is always filled
     by the computation for index [i], so the caller observes the same
     array no matter which domain ran which index;
   - a pool with zero workers degrades to a plain [Array.init], which is
     the sequential reference path. *)

type job = {
  n : int;
  next : int Atomic.t;  (* next unclaimed index *)
  completed : int Atomic.t;
  run : int -> unit;  (* wrapped task: stores result / records exception *)
}

type t = {
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

let create ?(domains = 0) () =
  if domains < 0 then invalid_arg "Pool.create: domains must be >= 0";
  (* Cap at a sane multiple of the machine: a pool wider than the host
     only adds scheduling noise. *)
  let workers = min domains (4 * Domain.recommended_domain_count ()) in
  let t =
    {
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
