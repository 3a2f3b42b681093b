(* Deterministic fault injection for the simulated device.

   A fault plan is parsed from a spec ("kind=rate" tokens, comma
   separated; the OMPSIMD_FAULTS knob) and a seed (OMPSIMD_FAULT_SEED),
   and installed once by the entry point.  Every decision — does
   this block fail, which thread, at which cycle — is drawn once at
   block start from a Prng seeded by (plan seed, launch nonce,
   block_id), so faults are a pure function of the plan and the block,
   never of the host: pooled runs inject exactly what sequential runs
   inject, and both engines fail at the same access of the same thread
   at the same clock (the simulator's bit-identity contract makes the
   access/clock sequence identical).

   The launch nonce makes *relaunches* draw fresh faults — a recovered
   request would otherwise re-fail forever — while staying
   deterministic: launches are host-sequential, the nonce just counts
   them.  [reset] rewinds it so a replay of a whole trace (the serve
   scheduler, determinism tests) sees the identical fault sequence.

   Kinds:
   - abort:   the victim thread aborts the block at its first global
              access at or after the drawn trigger cycle;
   - flip:    a bit flip on the victim's memory traffic; an
              ECC-correctable flip only counts (data is repaired in the
              line buffer, results are untouched), a fatal one aborts
              the block ("flip=rate:frac" sets the fatal fraction);
   - stall:   one thread of the victim warp parks on a private,
              never-released barrier instead of its real rendezvous —
              the block deadlocks and surfaces as a structured
              barrier-stall failure;
   - exhaust: every sharing-space acquire in the block is forced onto
              the omprt global-memory fallback path.

   Arming the plan (any installed plan, or a positive watchdog cycle
   budget) also switches Device.launch from raising
   Engine.Deadlock to converting hung blocks into structured failure
   reports.  With the plan disarmed every hook is one load-and-branch
   and reports are bit-identical to a build without this module. *)

module Prng = Ompsimd_util.Prng

type kind = Block_abort | Ecc_fatal | Barrier_stall | Watchdog

let kind_label = function
  | Block_abort -> "abort"
  | Ecc_fatal -> "ecc-fatal"
  | Barrier_stall -> "barrier-stall"
  | Watchdog -> "watchdog"

type failure = {
  f_kind : kind;
  f_block : int;
  f_warp : int;  (* -1 when not warp-specific *)
  f_tid : int;  (* -1 when not thread-specific *)
  f_barrier : string;  (* "" when no barrier is involved *)
  f_cycle : float;
}

let failure_to_string f =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "%s block %d" (kind_label f.f_kind) f.f_block);
  if f.f_warp >= 0 then Buffer.add_string b (Printf.sprintf " warp %d" f.f_warp);
  if f.f_tid >= 0 then Buffer.add_string b (Printf.sprintf " tid %d" f.f_tid);
  if f.f_barrier <> "" then
    Buffer.add_string b (Printf.sprintf " at %s" f.f_barrier);
  Buffer.add_string b (Printf.sprintf " cycle %.0f" f.f_cycle);
  Buffer.contents b

type stats = {
  corrected : int;  (* ECC-correctable flips, repaired in place *)
  fatal : int;  (* injected aborts + uncorrectable flips *)
  stalls : int;  (* barrier-stall failures (injected or genuine) *)
  exhausts : int;  (* sharing-space acquires forced onto the fallback *)
  watchdogs : int;  (* blocks over the cycle budget *)
}

let zero_stats = { corrected = 0; fatal = 0; stalls = 0; exhausts = 0; watchdogs = 0 }

let add_stats a b =
  {
    corrected = a.corrected + b.corrected;
    fatal = a.fatal + b.fatal;
    stalls = a.stalls + b.stalls;
    exhausts = a.exhausts + b.exhausts;
    watchdogs = a.watchdogs + b.watchdogs;
  }

type events = {
  ev_corrected : int;
  ev_exhausts : int;
  ev_stall : failure option;  (* the injected stall, when one fired *)
}

let no_events = { ev_corrected = 0; ev_exhausts = 0; ev_stall = None }

exception Fatal of failure

(* --- the plan ---------------------------------------------------------- *)

type plan = {
  abort_rate : float;
  flip_rate : float;
  flip_fatal_frac : float;
  stall_rate : float;
  exhaust_rate : float;
  seed : int;
}

let disarmed =
  {
    abort_rate = 0.0;
    flip_rate = 0.0;
    flip_fatal_frac = 0.25;
    stall_rate = 0.0;
    exhaust_rate = 0.0;
    seed = 0;
  }

let rate_of name s =
  match float_of_string_opt s with
  | Some r when r >= 0.0 && r <= 1.0 -> r
  | _ ->
      invalid_arg
        (Printf.sprintf "OMPSIMD_FAULTS: %s rate %S not in [0,1]" name s)

let parse_spec ~seed spec =
  let p = ref { disarmed with seed } in
  String.split_on_char ',' spec
  |> List.iter (fun tok ->
         let tok = String.trim tok in
         if tok <> "" then
           match String.index_opt tok '=' with
           | None ->
               invalid_arg
                 (Printf.sprintf "OMPSIMD_FAULTS: token %S is not kind=rate"
                    tok)
           | Some i -> (
               let kind = String.sub tok 0 i in
               let v = String.sub tok (i + 1) (String.length tok - i - 1) in
               match kind with
               | "abort" -> p := { !p with abort_rate = rate_of kind v }
               | "stall" -> p := { !p with stall_rate = rate_of kind v }
               | "exhaust" -> p := { !p with exhaust_rate = rate_of kind v }
               | "flip" -> (
                   match String.index_opt v ':' with
                   | None -> p := { !p with flip_rate = rate_of kind v }
                   | Some j ->
                       let r = String.sub v 0 j in
                       let fr =
                         String.sub v (j + 1) (String.length v - j - 1)
                       in
                       p :=
                         {
                           !p with
                           flip_rate = rate_of kind r;
                           flip_fatal_frac = rate_of "flip fatal fraction" fr;
                         })
               | _ ->
                   invalid_arg
                     (Printf.sprintf "OMPSIMD_FAULTS: unknown fault kind %S"
                        kind)));
  !p

(* Armed = a spec is present (even all-zero rates: that arms structured
   deadlock capture without injecting anything).  The watchdog budget is
   independent so divergence reporting can be turned on alone. *)
let armed = ref false
let current : plan ref = ref disarmed
let watchdog = ref 0.0

(* Counts armed launches; see the header note on relaunch determinism.
   Atomic only for memory-model hygiene — launches are host-sequential. *)
let nonce = Atomic.make 0
let reset () = Atomic.set nonce 0

let install plan ~watchdog:budget =
  watchdog := budget;
  match plan with
  | None ->
      armed := false;
      current := disarmed;
      reset ()
  | Some p ->
      (* an unchanged plan keeps the nonce: launches within one armed
         process keep drawing fresh faults across re-installs *)
      if (not !armed) || p <> !current then begin
        current := p;
        reset ()
      end;
      armed := true

let watchdog_budget () = !watchdog
let capture_deadlocks () = !armed || !watchdog > 0.0
let launch_begin () = if !armed then ignore (Atomic.fetch_and_add nonce 1 : int)

(* The serve fleet pins each member launch of a batch to a nonce
   derived from the request identity, so the faults a request draws are
   a pure function of (plan, request, attempt) — independent of where
   the fleet placed it, whether it was batched, and what launched
   before it.  launch_begin stores old+1 and block_begin reads the
   stored value, so landing on [n] means setting the counter to n-1. *)
let with_nonce n f =
  if not !armed then f ()
  else begin
    let saved = Atomic.get nonce in
    Atomic.set nonce (n - 1);
    Fun.protect ~finally:(fun () -> Atomic.set nonce saved) f
  end

(* --- per-block decisions ----------------------------------------------- *)

(* Trigger cycles are drawn uniformly in [0, 2000): early enough that
   kernels of a few thousand cycles almost always reach them, so the
   realized failure rate tracks the plan rate.  A block that finishes
   before its trigger simply does not fail — the draw is part of the
   plan, the kernel decides whether it materializes. *)
let trigger_horizon = 2000.0

type bstate = {
  b_block : int;
  b_threads : int;
  b_ws : int;
  mutable abort_at : float;  (* infinity = armed but not drawn / spent *)
  abort_tid : int;
  mutable flip_at : float;
  flip_tid : int;
  flip_fatal : bool;
  mutable stall_at : float;
  stall_warp : int;
  exhaust : bool;
  mutable corrected : int;
  mutable exhausts : int;
  mutable stall_rec : failure option;
}

let state_slot : bstate option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let block_begin ~block_id ~num_threads ~warp_size =
  if !armed then begin
    let p = !current in
    let seed =
      (((p.seed * 1_000_003) + Atomic.get nonce) * 1_000_003) + block_id
    in
    let g = Prng.create ~seed in
    (* fixed draw order, all draws unconditional: the decision stream
       depends only on (seed, nonce, block_id), never on the rates *)
    let abort_hit = Prng.uniform g < p.abort_rate in
    let abort_at = Prng.float g trigger_horizon in
    let abort_tid = Prng.int g num_threads in
    let flip_hit = Prng.uniform g < p.flip_rate in
    let flip_at = Prng.float g trigger_horizon in
    let flip_tid = Prng.int g num_threads in
    let flip_fatal = Prng.uniform g < p.flip_fatal_frac in
    let num_warps = (num_threads + warp_size - 1) / warp_size in
    let stall_hit = Prng.uniform g < p.stall_rate in
    let stall_at = Prng.float g trigger_horizon in
    let stall_warp = Prng.int g num_warps in
    let exhaust = Prng.uniform g < p.exhaust_rate in
    let slot = Domain.DLS.get state_slot in
    (match !slot with
    | Some _ -> invalid_arg "Fault.block_begin: fault state already open"
    | None -> ());
    slot :=
      Some
        {
          b_block = block_id;
          b_threads = num_threads;
          b_ws = warp_size;
          abort_at = (if abort_hit then abort_at else infinity);
          abort_tid;
          flip_at = (if flip_hit then flip_at else infinity);
          flip_tid;
          flip_fatal;
          stall_at = (if stall_hit then stall_at else infinity);
          stall_warp;
          exhaust;
          corrected = 0;
          exhausts = 0;
          stall_rec = None;
        }
  end

let close_block () =
  let slot = Domain.DLS.get state_slot in
  match !slot with
  | None -> no_events
  | Some b ->
      slot := None;
      { ev_corrected = b.corrected; ev_exhausts = b.exhausts; ev_stall = b.stall_rec }

let block_end () = close_block ()
let block_abort () = close_block ()

(* --- hooks ------------------------------------------------------------- *)

(* Global-access tap (Memory.account).  The victim fails at its first
   access at or after the trigger cycle — both the access sequence and
   the clocks are deterministic, so so is the failure point. *)
let on_access (th : Thread.t) =
  match !(Domain.DLS.get state_slot) with
  | None -> ()
  | Some b ->
      let tid = th.Thread.tid in
      let clk = Thread.clock th in
      if tid = b.abort_tid && clk >= b.abort_at then begin
        b.abort_at <- infinity;
        raise
          (Fatal
             {
               f_kind = Block_abort;
               f_block = b.b_block;
               f_warp = tid / b.b_ws;
               f_tid = tid;
               f_barrier = "";
               f_cycle = clk;
             })
      end;
      if tid = b.flip_tid && clk >= b.flip_at then begin
        b.flip_at <- infinity;
        if b.flip_fatal then
          raise
            (Fatal
               {
                 f_kind = Ecc_fatal;
                 f_block = b.b_block;
                 f_warp = tid / b.b_ws;
                 f_tid = tid;
                 f_barrier = "";
                 f_cycle = clk;
               })
        else begin
          b.corrected <- b.corrected + 1;
          Counters.bump th.Thread.counters "fault.ecc_corrected" 1.0
        end
      end

(* Barrier tap (Engine.barrier_wait).  When the arriving thread is the
   block's stall victim, return a private barrier that can never
   complete ([expected] exceeds the thread count); the engine parks the
   thread there instead of its real rendezvous and the block surfaces
   as a deadlock, which Device converts into this recorded failure. *)
let stall_here (th : Thread.t) ~abandoned =
  match !(Domain.DLS.get state_slot) with
  | None -> None
  | Some b ->
      if b.stall_at = infinity then None
      else
        let tid = th.Thread.tid in
        let warp = tid / b.b_ws in
        if warp <> b.stall_warp || Thread.clock th < b.stall_at then None
        else begin
          b.stall_at <- infinity;
          b.stall_rec <-
            Some
              {
                f_kind = Barrier_stall;
                f_block = b.b_block;
                f_warp = warp;
                f_tid = tid;
                f_barrier = Barrier.name abandoned;
                f_cycle = Thread.clock th;
              };
          Some
            (Barrier.create ~name:"fault.stall" ~expected:(b.b_threads + 1)
               ~cost:0.0 ())
        end

(* Sharing-space tap (Omprt.Sharing.acquire): true forces the global
   fallback regardless of the payload fitting the slice. *)
let exhaust_here () =
  match !(Domain.DLS.get state_slot) with
  | None -> false
  | Some b ->
      if b.exhaust then b.exhausts <- b.exhausts + 1;
      b.exhaust
