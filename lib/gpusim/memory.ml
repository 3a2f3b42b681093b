(* One block's L2 touch log for one space, as [session_end] hands it
   over: the lines in touch order. *)
type log = {
  lspace : space;
  lcfg : Config.t;  (* config to materialize the committed L2 on replay *)
  lines : int array;
}

(* A committed log waiting for its replay, with the touch-counter value
   the replay starts from (the counter itself moved on at commit). *)
and queued = { qlog : log; qstart : float }

and space = {
  sid : int;  (* process-unique id: shadow-memory key for the sanitizer *)
  mutable next_addr : int;
  mutable l2 : Linebuf.t option;  (* created lazily from the first accessing device's config *)
  l2_order : floatarray;
      (* monotonic touch counter (order-based LRU proxy), as a 1-cell
         floatarray: a mutable float field of this mixed record would box
         a fresh float on every L2 touch *)
  pending : queued list Atomic.t;
      (* committed logs not yet replayed into [l2], newest first *)
  replay_lock : Mutex.t;
  rmw_lock : Mutex.t;
      (* serializes locked device atomics on this space's cells (see
         [rmw_locked]) *)
}

let next_sid = Atomic.make 0

let space () =
  {
    sid = Atomic.fetch_and_add next_sid 1;
    next_addr = 0;
    l2 = None;
    l2_order = Float.Array.make 1 0.0;
    pending = Atomic.make [];
    replay_lock = Mutex.create ();
    rmw_lock = Mutex.create ();
  }

(* The committed L2 starts at the first replayed log's [demand] (its
   logged touches), not at the device's size: a serve request's space
   lives for one launch, and a device-sized table there was 1.5 MB of
   zeroed major-heap allocation per request. *)
let l2_of space (cfg : Config.t) ~demand =
  match space.l2 with
  | Some l2 -> l2
  | None ->
      let l2 =
        Linebuf.create_sized ~demand ~capacity:cfg.Config.l2_sectors
          ~coalesce_window:0.0 ()
      in
      space.l2 <- Some l2;
      l2

let element_bytes = 8

type farray = { fbase : int; fdata : float array; fspace : space }
type iarray = { ibase : int; idata : int array; ispace : space }

(* Keep distinct arrays on distinct lines so the coalescing window never
   conflates them; align every allocation to a line boundary. *)
let alloc_bytes space n =
  let align = 128 in
  let base = (space.next_addr + align - 1) / align * align in
  space.next_addr <- base + n;
  base

let falloc space n =
  if n < 0 then invalid_arg "Memory.falloc: negative length";
  {
    fbase = alloc_bytes space (n * element_bytes);
    fdata = Array.make n 0.0;
    fspace = space;
  }

let ialloc space n =
  if n < 0 then invalid_arg "Memory.ialloc: negative length";
  {
    ibase = alloc_bytes space (n * element_bytes);
    idata = Array.make n 0;
    ispace = space;
  }

let of_float_array space a =
  let arr = falloc space (Array.length a) in
  Array.blit a 0 arr.fdata 0 (Array.length a);
  arr

let of_int_array space a =
  let arr = ialloc space (Array.length a) in
  Array.blit a 0 arr.idata 0 (Array.length a);
  arr

let flength a = Array.length a.fdata
let ilength a = Array.length a.idata
let space_of_farray a = a.fspace

(* Logs still queued describe an L2 the reset wipes: drop them unread. *)
let l2_reset space =
  Atomic.set space.pending [];
  (match space.l2 with Some l2 -> Linebuf.clear l2 | None -> ());
  Float.Array.set space.l2_order 0 0.0

(* --- per-block L2 sessions -------------------------------------------- *)

(* The device L2 is the one piece of simulator state shared by all thread
   blocks of a launch.  To make block simulation order-independent (and
   therefore safe and deterministic to run on several domains), each block
   runs inside a session: L2 lookups go to a per-block fork of the
   committed L2 (its state as of launch start), and the block's touch
   sequence is logged.  After every block has finished, the launcher
   commits the logs in ascending block_id order, so the post-launch L2
   (what the next launch's forks see) is canonical.

   A commit only queues the log on its space; the queue is replayed into
   the real L2 when that L2 is next read (a launch's first fork of it, or
   a bare access), and an [l2_reset] drops it unread.  Back-to-back cold
   launches, the common case, never pay for the replay at all.  The
   replay is the same touch sequence at the same touch-counter values as
   an eager one, so the L2 it leaves is too.

   A block therefore never observes L2 lines fetched by a concurrently
   launched sibling block — the launch-start snapshot plus its own
   traffic.  Warm-cache behaviour across launches is unchanged: anything
   resident before the launch is resident in every fork. *)

(* Replay the space's queued logs, oldest first, each from the counter
   value its commit reserved.  Blocks of a pooled launch fork from
   several domains: the first to arrive replays under the lock, the
   others wait for it, and once the queue reads empty the L2 is frozen
   until the launch's commits, so it is safe to fork concurrently. *)
let replay_pending space =
  match Atomic.get space.pending with
  | [] -> ()
  | _ ->
      Mutex.protect space.replay_lock (fun () ->
          match Atomic.get space.pending with
          | [] -> ()
          | queued ->
              List.iter
                (fun { qlog; qstart } ->
                  let lines = qlog.lines in
                  let l2 = l2_of space qlog.lcfg ~demand:(Array.length lines) in
                  (* counter values are integers far below 2^53, so the
                     sum is exact: the i-th touch gets the value the
                     i-th increment of the counter would have *)
                  for i = 0 to Array.length lines - 1 do
                    Linebuf.set_now l2 (qstart +. float_of_int (i + 1));
                    ignore (Linebuf.touch_line l2 ~lane:0 (Array.unsafe_get lines i))
                  done)
                (List.rev queued);
              Atomic.set space.pending [])

type l2_view = {
  vspace : space;
  vcfg : Config.t;
  vfork : Linebuf.t;
  vorder : floatarray;  (* private continuation of the touch counter (1 cell) *)
  (* touch log as a growable int array: the replay walks millions of
     entries on the big experiments, and a cons per touch was
     measurable GC traffic *)
  mutable vlog : int array;
  mutable vlen : int;
}

let vlog_push v line =
  let cap = Array.length v.vlog in
  if v.vlen = cap then begin
    let bigger = Array.make (Int.max 256 (2 * cap)) 0 in
    Array.blit v.vlog 0 bigger 0 cap;
    v.vlog <- bigger
  end;
  v.vlog.(v.vlen) <- line;
  v.vlen <- v.vlen + 1

(* A launch's view storage: at [session_end] a view's stamp table and
   growable log go back here, and the launch's next block reuses them
   instead of growing fresh ones.  Only an exact-size copy of the log
   is queued, so what a space keeps is no larger than its touches. *)
type buffers = {
  stamps : Linebuf.table Ompsimd_util.Freelist.t;
  logs : int array Ompsimd_util.Freelist.t;
}

let buffers () =
  {
    stamps = Ompsimd_util.Freelist.create ();
    logs = Ompsimd_util.Freelist.create ();
  }

type open_session = {
  mutable views : l2_view list;  (* reversed creation order *)
  (* 1-slot view cache: a block's consults cluster by space, so most
     lookups hit the space consulted last and skip the list walk *)
  mutable vmemo : l2_view option;
  buffers : buffers;
}

type block_session = log list

let session_slot : open_session option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Warp-stashed answer to "is a session open on this domain?" (see
   Thread.mem_session): the L2 consult on every warp-cache miss would
   otherwise pay a Domain.DLS lookup.  Safe to memoize per warp because
   sessions bracket whole blocks (Device opens one before
   Engine.run_block creates the warps and closes it after run_block
   returns), so the answer is constant for a warp's entire lifetime —
   [Bare_l2] records the no-session case for blocks run outside a
   session. *)
type Thread.mem_session += Session of open_session | Bare_l2

let session_of_warp (w : Thread.warp_state) =
  match w.Thread.msession with
  | Thread.No_session ->
      let b =
        match !(Domain.DLS.get session_slot) with
        | Some s -> Session s
        | None -> Bare_l2
      in
      w.Thread.msession <- b;
      b
  | b -> b

let session_begin buffers =
  let slot = Domain.DLS.get session_slot in
  (match !slot with
  | Some _ -> invalid_arg "Memory.session_begin: session already open"
  | None -> ());
  slot := Some { views = []; vmemo = None; buffers }

let session_end () =
  let slot = Domain.DLS.get session_slot in
  match !slot with
  | None -> invalid_arg "Memory.session_end: no open session"
  | Some s ->
      slot := None;
      List.fold_left
        (fun logs v ->
          let lines = Array.sub v.vlog 0 v.vlen in
          Ompsimd_util.Freelist.give s.buffers.stamps (Linebuf.table v.vfork);
          Ompsimd_util.Freelist.give s.buffers.logs v.vlog;
          { lspace = v.vspace; lcfg = v.vcfg; lines } :: logs)
        [] s.views

let rec find_view space = function
  | [] -> None
  | v :: rest -> if v.vspace == space then Some v else find_view space rest

let view_of_slow session space (cfg : Config.t) =
  let v =
    match find_view space session.views with
    | Some v -> v
    | None ->
      replay_pending space;
      let table = Ompsimd_util.Freelist.take session.buffers.stamps in
      let vfork =
        match space.l2 with
        | Some l2 -> Linebuf.fork ?table l2
        | None ->
            (* first launch over this space: no committed stamps to fork
               yet.  The view only ever holds this one block's traffic,
               so it must NOT be pre-sized to the device capacity — that
               made the first launch allocate a device-scale table per
               (block, space) pair. *)
            Linebuf.create_sized ?table ~demand:0
              ~capacity:cfg.Config.l2_sectors ~coalesce_window:0.0 ()
      in
      let v =
        {
          vspace = space;
          vcfg = cfg;
          vfork;
          vorder = Float.Array.make 1 (Float.Array.get space.l2_order 0);
          vlog =
            Option.value ~default:[||]
              (Ompsimd_util.Freelist.take session.buffers.logs);
          vlen = 0;
        }
      in
      session.views <- v :: session.views;
      v
  in
  session.vmemo <- Some v;
  v

let[@inline] view_of session space (cfg : Config.t) =
  match session.vmemo with
  | Some v when v.vspace == space -> v
  | _ -> view_of_slow session space cfg

(* Reserve the log's stretch of the touch counter now and queue the log;
   [replay_pending] touches the lines when the L2 is next read. *)
let session_commit logs =
  List.iter
    (fun log ->
      let space = log.lspace in
      let qstart = Float.Array.get space.l2_order 0 in
      Float.Array.set space.l2_order 0
        (qstart +. float_of_int (Array.length log.lines));
      Atomic.set space.pending ({ qlog = log; qstart } :: Atomic.get space.pending))
    logs

let check name len i =
  if i < 0 || i >= len then
    invalid_arg (Printf.sprintf "Memory.%s: index %d out of bounds [0,%d)" name i len)

(* The address → line (coalescing key) computation.  Strided accesses in
   a burst revisit the same few (base, line) pairs, so a 4-slot LRU on
   the warp (one slot per recently seen base, round-robin replacement)
   answers most of them with a compare instead of the division chain.
   The memo is exact: a qcheck property holds it to plain division. *)
let line_of (th : Thread.t) ~base ~index =
  let lb = th.cfg.Config.line_bytes in
  let addr = base + (index * element_bytes) in
  let w = th.Thread.warp in
  let mb = w.Thread.memo_base in
  (* unrolled 4-slot scan: a local rec function here would be a real
     closure allocation per call in classic (non-flambda) ocamlopt *)
  let k =
    if mb.(0) = base then 0
    else if mb.(1) = base then 1
    else if mb.(2) = base then 2
    else if mb.(3) = base then 3
    else -1
  in
  if k < 0 then begin
    let line = addr / lb in
    let k = w.Thread.memo_next in
    w.Thread.memo_next <- (k + 1) land 3;
    mb.(k) <- base;
    w.Thread.memo_line.(k) <- line;
    w.Thread.memo_lo.(k) <- line * lb;
    line
  end
  else begin
    let off = addr - w.Thread.memo_lo.(k) in
    if off >= 0 && off < lb then w.Thread.memo_line.(k)
    else begin
      let line = addr / lb in
      w.Thread.memo_line.(k) <- line;
      w.Thread.memo_lo.(k) <- line * lb;
      line
    end
  end

(* Charge a global access.  Issue cost always; then the warp-level cache
   decides whether the access coalesces, hits, or opens a transaction —
   and a transaction that misses the warp cache still has a chance in the
   device-wide L2 before counting as DRAM traffic. *)
let account (th : Thread.t) ~space ~base ~index ~is_store =
  (* Fault tap: like the sanitizer's, one load-and-branch when disarmed.
     Aborts and bit flips fire here — the global-access path is where
     every kernel's traffic funnels, and thread clocks at each access
     are deterministic, so the failure point is too. *)
  if Thread.injecting th then Fault.on_access th;
  let cfg = th.cfg in
  let cost = cfg.Config.cost in
  let c = th.counters in
  let line = line_of th ~base ~index in
  if is_store then c.Counters.global_stores <- c.Counters.global_stores + 1
  else c.Counters.global_loads <- c.Counters.global_loads + 1;
  Thread.tick th cost.Config.mem_issue;
  let lines = th.Thread.warp.Thread.lines in
  Linebuf.set_now lines (Thread.clock th);
  let code = Linebuf.touch_line lines ~lane:th.Thread.lane line in
  (* codes: 0 coalesced, 1 hit w=1, 2 miss, k>=3 burst hit w=1/(k-2) *)
  if code <> 2 then begin
    c.Counters.line_hits <- c.Counters.line_hits + 1;
    if code <> 0 then Counters.add_lsu c (Linebuf.code_weight code)
  end
  else begin
    Counters.add_lsu c 1.0;
    let l2_resident =
      match session_of_warp th.Thread.warp with
      | Session s ->
          let v = view_of s space cfg in
          let o = Float.Array.unsafe_get v.vorder 0 +. 1.0 in
          Float.Array.unsafe_set v.vorder 0 o;
          vlog_push v line;
          Linebuf.set_now v.vfork o;
          Linebuf.touch_line v.vfork ~lane:0 line <> 2
      | _ ->
          (* no session (bare Engine.run_block): touch the committed L2
             directly, the pre-session behaviour *)
          replay_pending space;
          let l2 = l2_of space cfg ~demand:0 in
          Float.Array.set space.l2_order 0
            (Float.Array.get space.l2_order 0 +. 1.0);
          Linebuf.set_now l2 (Float.Array.get space.l2_order 0);
          Linebuf.touch_line l2 ~lane:0 line <> 2
    in
    if l2_resident then begin
      c.Counters.l2_hits <- c.Counters.l2_hits + 1;
      Thread.tick_wait th (cost.Config.mem_miss_latency /. 2.0)
    end
    else begin
      c.Counters.line_misses <- c.Counters.line_misses + 1;
      Counters.add_dram c (float_of_int cfg.Config.line_bytes);
      Thread.tick_wait th cost.Config.mem_miss_latency
    end
  end;
  line

(* Sanitizer taps: one field load when disabled, never touching clocks
   or counters, so reports stay bit-identical either way. *)
let[@inline] sanitize th space ~base ~index ~kind =
  if Thread.sanitizing th then
    Ompsan.global_access th ~sid:space.sid
      ~addr:(base + (index * element_bytes))
      ~kind

let[@inline] fget a th i =
  check "fget" (Array.length a.fdata) i;
  let (_ : int) =
    account th ~space:a.fspace ~base:a.fbase ~index:i ~is_store:false
  in
  sanitize th a.fspace ~base:a.fbase ~index:i ~kind:Ompsan.Read;
  a.fdata.(i)

let[@inline] fset a th i v =
  check "fset" (Array.length a.fdata) i;
  let (_ : int) =
    account th ~space:a.fspace ~base:a.fbase ~index:i ~is_store:true
  in
  sanitize th a.fspace ~base:a.fbase ~index:i ~kind:Ompsan.Write;
  a.fdata.(i) <- v

let[@inline] iget a th i =
  check "iget" (Array.length a.idata) i;
  let (_ : int) =
    account th ~space:a.ispace ~base:a.ibase ~index:i ~is_store:false
  in
  sanitize th a.ispace ~base:a.ibase ~index:i ~kind:Ompsan.Read;
  a.idata.(i)

let[@inline] iset a th i v =
  check "iset" (Array.length a.idata) i;
  let (_ : int) =
    account th ~space:a.ispace ~base:a.ibase ~index:i ~is_store:true
  in
  sanitize th a.ispace ~base:a.ibase ~index:i ~kind:Ompsan.Write;
  a.idata.(i) <- v

(* Device atomics may target the same cell from blocks running on
   different domains; a host-side lock keeps the read-modify-write
   atomic so no update is lost.  (The *order* of same-cell updates from
   different blocks is unordered on real hardware too — kernels that
   need a deterministic float sum must not reduce through a single cell
   across blocks.)  The lock is the cell's space's: a cell belongs to
   exactly one space, so RMWs on one cell still serialize across
   concurrent pooled launches, while launches over disjoint spaces never
   contend.  Cost accounting stays outside the lock: it only touches
   block-local state.

   The lock only matters when blocks simulate on several domains; a
   sequential launch (no pool, or a zero-worker pool) would pay two
   futex ops per device atomic for nothing.  Whether to lock is the
   launch's own decision, stamped on its warps (Thread.launch), so a
   sequential launch on one domain never changes what a pooled launch
   on another does.  Results are unaffected either way — the lock
   guards host-side read-modify-write only, never timing. *)
let[@inline] rmw_locked (th : Thread.t) =
  th.Thread.warp.Thread.launch.Thread.rmw_lock

let atomic_cost (th : Thread.t) line =
  let cost = th.cfg.Config.cost in
  let prior = Thread.ae_bump th.Thread.warp line in
  th.counters.Counters.atomics <- th.counters.Counters.atomics + 1;
  (* The RMW itself issues; waiting behind other lanes' RMWs on the same
     line is serialization stall, not issue work. *)
  Thread.tick th cost.Config.atomic;
  Thread.tick_wait th (float_of_int prior *. cost.Config.atomic_contend)

let[@inline] atomic_fadd a th i v =
  check "atomic_fadd" (Array.length a.fdata) i;
  let line = account th ~space:a.fspace ~base:a.fbase ~index:i ~is_store:true in
  sanitize th a.fspace ~base:a.fbase ~index:i ~kind:Ompsan.Atomic;
  atomic_cost th line;
  let locked = rmw_locked th in
  if locked then Mutex.lock a.fspace.rmw_lock;
  a.fdata.(i) <- a.fdata.(i) +. v;
  if locked then Mutex.unlock a.fspace.rmw_lock

let atomic_iadd a th i v =
  check "atomic_iadd" (Array.length a.idata) i;
  let line = account th ~space:a.ispace ~base:a.ibase ~index:i ~is_store:true in
  sanitize th a.ispace ~base:a.ibase ~index:i ~kind:Ompsan.Atomic;
  atomic_cost th line;
  let locked = rmw_locked th in
  if locked then Mutex.lock a.ispace.rmw_lock;
  let prev = a.idata.(i) in
  a.idata.(i) <- prev + v;
  if locked then Mutex.unlock a.ispace.rmw_lock;
  prev

let host_get a i =
  check "host_get" (Array.length a.fdata) i;
  a.fdata.(i)

let host_set a i v =
  check "host_set" (Array.length a.fdata) i;
  a.fdata.(i) <- v

let host_geti a i =
  check "host_geti" (Array.length a.idata) i;
  a.idata.(i)

let host_seti a i v =
  check "host_seti" (Array.length a.idata) i;
  a.idata.(i) <- v

let to_float_array a = Array.copy a.fdata
let to_int_array a = Array.copy a.idata
let fill a v = Array.fill a.fdata 0 (Array.length a.fdata) v
