(* Dynamic data-race and barrier-divergence sanitizer.

   Shadow memory over the simulated global and shared address spaces
   records, per cell, the last write and the last read: who performed it
   (block, warp, lane), in which epoch, with which access kind, and at
   which source site.  Epochs advance at barrier releases — block/warp
   barriers and the `__simd` state-machine hand-off rendezvous all funnel
   through [barrier_arrive] — so two accesses conflict iff they touch the
   same cell from different lanes, at least one is a plain (non-atomic)
   write, and no barrier whose participant set covers both lanes released
   between them.  Atomic-vs-atomic pairs are exempt.

   Lanes are identified by their logical ACTOR, not their physical tid:
   in SPMD mode every lane of a SIMD group redundantly executes the
   region code of one OpenMP thread, so region-level accesses by
   group-mates are the same logical thread and must not race with each
   other (uniform redundant stores are how SIMT executes scalar code).
   The runtime switches a lane's actor to its own tid only inside simd
   loop bodies, where iterations genuinely belong to distinct lanes, and
   to the group leader's tid while executing region code on a group's
   behalf.

   Synchronization is tracked exactly (per ordered pair of block
   threads), not transitively: [sync.(t*n+u)] holds the epoch of the
   last release of a barrier both t and u participated in.  Every
   sharing hand-off in this runtime synchronizes the communicating pair
   directly (the publishing main is in the mask its workers wait on), so
   the pairwise relation covers all legal patterns; chained hand-offs
   through a third thread would over-report, which is the conservative
   direction for a sanitizer.

   Whether a launch is sanitized is its pool's setting, stamped on its
   threads (Thread.sanitizing): with the sanitizer off every hook sits
   behind one field load, Device never opens the shadow state, and no
   thread clock or counter is ever touched — the existing bit-identity
   tests double as the proof. *)

type access_kind = Read | Write | Atomic

let kind_label = function Read -> "read" | Write -> "write" | Atomic -> "atomic"

(* --- site registry ----------------------------------------------------

   Sites are interned statement labels ("store out[(r*8)+j]").  Ids are
   process-local and may differ between runs (the walker engine interns
   lazily, in block execution order); labels are what reports print, so
   formatted reports are identical across engines and pool sizes. *)

let site_mutex = Mutex.create ()
let site_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let site_labels : string array ref = ref (Array.make 64 "")
let site_count = ref 0

let register_site label =
  Mutex.lock site_mutex;
  let id =
    match Hashtbl.find_opt site_ids label with
    | Some id -> id
    | None ->
        let id = !site_count in
        let cap = Array.length !site_labels in
        if id = cap then begin
          let bigger = Array.make (2 * cap) "" in
          Array.blit !site_labels 0 bigger 0 cap;
          site_labels := bigger
        end;
        !site_labels.(id) <- label;
        site_count := id + 1;
        Hashtbl.add site_ids label id;
        id
  in
  Mutex.unlock site_mutex;
  id

let runtime_site = register_site "<runtime>"

let site_label id =
  Mutex.lock site_mutex;
  let l = if id >= 0 && id < !site_count then !site_labels.(id) else "<?>" in
  Mutex.unlock site_mutex;
  l

(* --- findings --------------------------------------------------------- *)

type access = {
  a_block : int;
  a_tid : int;
  a_warp : int;
  a_lane : int;
  a_kind : access_kind;
  a_site : int;
}

type finding =
  | Race of {
      shared : bool;  (** shared (team) space rather than global memory *)
      space : int;  (** space / arena id *)
      addr : int;  (** byte address of the cell *)
      first : access;  (** earlier access (from the shadow record) *)
      second : access;  (** current access that completed the race *)
    }
  | Cross_race of { space : int; addr : int; first : access; second : access }
  | Divergence of {
      block : int;
      warp : int;
      stalled_tid : int;
      stalled_bar : string;  (** barrier the sibling lane is parked at *)
      arriving_tid : int;
      arriving_bar : string;  (** different barrier its mask-mate reached *)
    }

type report = { kernel : string; findings : finding list; blocks : int }

let is_clean r = r.findings = []

let pp_access ppf a =
  Format.fprintf ppf "%s by block %d tid %d (warp %d lane %d) at %s"
    (kind_label a.a_kind) a.a_block a.a_tid a.a_warp a.a_lane
    (site_label a.a_site)

let pp_finding ppf = function
  | Race { shared; space; addr; first; second } ->
      Format.fprintf ppf "data race on %s space#%d addr 0x%x: %a vs %a"
        (if shared then "shared" else "global")
        space addr pp_access first pp_access second
  | Cross_race { space; addr; first; second } ->
      Format.fprintf ppf "cross-block data race on global space#%d addr 0x%x: %a vs %a"
        space addr pp_access first pp_access second
  | Divergence { block; warp; stalled_tid; stalled_bar; arriving_tid; arriving_bar }
    ->
      Format.fprintf ppf
        "barrier divergence in block %d warp %d: tid %d parked at [%s] while \
         mask-mate tid %d reached [%s]"
        block warp stalled_tid stalled_bar arriving_tid arriving_bar

let finding_to_string f = Format.asprintf "%a" pp_finding f

let pp_report ppf r =
  if r.findings = [] then
    Format.fprintf ppf "ompsan: kernel %s: clean (%d blocks)" r.kernel r.blocks
  else begin
    Format.fprintf ppf "ompsan: kernel %s: %d finding(s) over %d blocks"
      r.kernel (List.length r.findings) r.blocks;
    List.iter (fun f -> Format.fprintf ppf "@\n  %a" pp_finding f) r.findings
  end

let report_strings r = List.map finding_to_string r.findings

(* --- per-block shadow state ------------------------------------------- *)

type cell = {
  mutable w_tid : int;  (* -1 = no write recorded *)
  mutable w_actor : int;
  mutable w_time : int;
  mutable w_kind : access_kind;
  mutable w_site : int;
  mutable r_tid : int;  (* -1 = no read recorded *)
  mutable r_actor : int;
  mutable r_time : int;
  mutable r_site : int;
}

type cell_key = { ck_shared : bool; ck_id : int; ck_addr : int }

(* cross-block per-cell access summary (global space only) *)
let f_read = 1
and f_write = 2
and f_atomic = 4

type summary = {
  mutable s_flags : int;
  mutable s_r : access option;
  mutable s_w : access option;
  mutable s_a : access option;
}

type parked = {
  p_warp : int;
  p_mask : int;
  p_block_scope : bool;
  p_bar : int;
  p_name : string;
  p_sm : bool;  (* parked inside the __simd state machine: exempt *)
}

type pending = { pend_expected : int; mutable pend_tids : int list }

type state = {
  st_block : int;
  st_threads : int;
  st_ws : int;  (* warp size, to reconstruct warp/lane of recorded tids *)
  sync : int array;  (* st_threads^2 pairwise last-sync epochs *)
  actors : int array;
      (* logical owner of tid's current accesses: its own tid in simd
         loop bodies, the group leader's tid in redundant region code *)
  mutable now : int;  (* current epoch; accesses are stamped with it *)
  mutable cur_site : int;
  cells : (cell_key, cell) Hashtbl.t;
  summaries : (cell_key, summary) Hashtbl.t;
  parked : parked option array;  (* indexed by tid *)
  pendings : (int, pending) Hashtbl.t;  (* barrier id -> arrivals *)
  sm_flag : bool array;  (* tid is executing the __simd state machine *)
  mutable findings_rev : finding list;
  mutable nfindings : int;
  dedup : (int * int * int, unit) Hashtbl.t;
}

type block_report = {
  br_block : int;
  br_findings : finding list;  (* discovery order *)
  br_summaries : (cell_key * summary) list;  (* sorted by cell key *)
}

let max_findings_per_block = 64

let state_slot : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let block_begin ~block_id ~num_threads ~warp_size =
  let slot = Domain.DLS.get state_slot in
  (match !slot with
  | Some _ -> invalid_arg "Ompsan.block_begin: shadow state already open"
  | None -> ());
  slot :=
    Some
      {
        st_block = block_id;
        st_threads = num_threads;
        st_ws = warp_size;
        sync = Array.make (num_threads * num_threads) 0;
        actors = Array.init num_threads Fun.id;
        now = 1;
        cur_site = runtime_site;
        cells = Hashtbl.create 256;
        summaries = Hashtbl.create 64;
        parked = Array.make num_threads None;
        pendings = Hashtbl.create 16;
        sm_flag = Array.make num_threads false;
        findings_rev = [];
        nfindings = 0;
        dedup = Hashtbl.create 16;
      }

let block_end () =
  let slot = Domain.DLS.get state_slot in
  match !slot with
  | None -> None
  | Some st ->
      slot := None;
      let summaries =
        Hashtbl.fold (fun k s acc -> (k, s) :: acc) st.summaries []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Some
        {
          br_block = st.st_block;
          br_findings = List.rev st.findings_rev;
          br_summaries = summaries;
        }

(* Findings that would be lost to an in-flight exception (a sanitized
   kernel that deadlocks — e.g. genuine barrier divergence — never
   reaches the launch epilogue); Device stashes them on the launch's
   pool. *)
let block_abort () =
  match block_end () with None -> [] | Some br -> br.br_findings

let set_site id =
  match !(Domain.DLS.get state_slot) with
  | Some st -> st.cur_site <- id
  | None -> ()

let set_actor (th : Thread.t) actor =
  match !(Domain.DLS.get state_slot) with
  | Some st ->
      let tid = th.Thread.tid in
      let prev = st.actors.(tid) in
      st.actors.(tid) <- actor;
      prev
  | None -> actor

(* --- access checking -------------------------------------------------- *)

(* A pair of accesses conflicts iff at least one side is a plain write:
   R/R never, A/A and A/R are exempt (the paper's atomics carveout), and
   W against anything races. *)
let conflicts k1 k2 = k1 = Write || k2 = Write

let synced st t u time = st.sync.((t * st.st_threads) + u) >= time

let add_finding st key f =
  if st.nfindings < max_findings_per_block && not (Hashtbl.mem st.dedup key)
  then begin
    Hashtbl.add st.dedup key ();
    st.findings_rev <- f :: st.findings_rev;
    st.nfindings <- st.nfindings + 1
  end

let mk_access st ~tid ~kind ~site =
  {
    a_block = st.st_block;
    a_tid = tid;
    a_warp = tid / st.st_ws;
    a_lane = tid mod st.st_ws;
    a_kind = kind;
    a_site = site;
  }

let fresh_cell () =
  {
    w_tid = -1;
    w_actor = -1;
    w_time = 0;
    w_kind = Read;
    w_site = 0;
    r_tid = -1;
    r_actor = -1;
    r_time = 0;
    r_site = 0;
  }

let record st ~shared ~id ~addr ~tid ~kind =
  let site = st.cur_site in
  let actor = st.actors.(tid) in
  let key = { ck_shared = shared; ck_id = id; ck_addr = addr } in
  if not shared then begin
    let s =
      match Hashtbl.find_opt st.summaries key with
      | Some s -> s
      | None ->
          let s = { s_flags = 0; s_r = None; s_w = None; s_a = None } in
          Hashtbl.add st.summaries key s;
          s
    in
    let a () = Some (mk_access st ~tid ~kind ~site) in
    (match kind with
    | Read ->
        if s.s_flags land f_read = 0 then s.s_r <- a ();
        s.s_flags <- s.s_flags lor f_read
    | Write ->
        if s.s_flags land f_write = 0 then s.s_w <- a ();
        s.s_flags <- s.s_flags lor f_write
    | Atomic ->
        if s.s_flags land f_atomic = 0 then s.s_a <- a ();
        s.s_flags <- s.s_flags lor f_atomic)
  end;
  let c =
    match Hashtbl.find_opt st.cells key with
    | Some c -> c
    | None ->
        let c = fresh_cell () in
        Hashtbl.add st.cells key c;
        c
  in
  let race ~first_tid ~first_kind ~first_site =
    let first = mk_access st ~tid:first_tid ~kind:first_kind ~site:first_site in
    let second = mk_access st ~tid ~kind ~site in
    let tag = if shared then 1 else 0 in
    add_finding st (tag, first_site, site)
      (Race { shared; space = id; addr; first; second })
  in
  (* against the last write; same-actor accesses are one logical lane's
     redundant work and never conflict *)
  if
    c.w_tid >= 0 && c.w_tid <> tid && c.w_actor <> actor
    && conflicts c.w_kind kind
    && not (synced st tid c.w_tid c.w_time)
  then race ~first_tid:c.w_tid ~first_kind:c.w_kind ~first_site:c.w_site;
  (* a write also races with the last read *)
  if
    kind = Write && c.r_tid >= 0 && c.r_tid <> tid && c.r_actor <> actor
    && not (synced st tid c.r_tid c.r_time)
  then race ~first_tid:c.r_tid ~first_kind:Read ~first_site:c.r_site;
  match kind with
  | Read ->
      c.r_tid <- tid;
      c.r_actor <- actor;
      c.r_time <- st.now;
      c.r_site <- site
  | Write | Atomic ->
      c.w_tid <- tid;
      c.w_actor <- actor;
      c.w_time <- st.now;
      c.w_kind <- kind;
      c.w_site <- site

let global_access (th : Thread.t) ~sid ~addr ~kind =
  match !(Domain.DLS.get state_slot) with
  | None -> ()
  | Some st -> record st ~shared:false ~id:sid ~addr ~tid:th.Thread.tid ~kind

let shared_access (th : Thread.t) ~aid ~addr ~kind =
  match !(Domain.DLS.get state_slot) with
  | None -> ()
  | Some st -> record st ~shared:true ~id:aid ~addr ~tid:th.Thread.tid ~kind

(* --- barriers and epochs ---------------------------------------------- *)

let enter_state_machine (th : Thread.t) =
  match !(Domain.DLS.get state_slot) with
  | Some st -> st.sm_flag.(th.Thread.tid) <- true
  | None -> ()

let leave_state_machine (th : Thread.t) =
  match !(Domain.DLS.get state_slot) with
  | Some st -> st.sm_flag.(th.Thread.tid) <- false
  | None -> ()

(* Divergence: a lane arriving at barrier B while a mask-mate sits parked
   at a *different* warp-scope barrier whose mask covers (or overlaps)
   the arriver means the two lanes disagree about which rendezvous comes
   next — mismatched masks or trip counts.  Arrivals and parked entries
   inside the __simd state machine are exempt: workers legitimately wait
   at the hand-off barrier (whose mask includes their main) while the
   main runs region code and crosses block-scope barriers. *)
let check_divergence st ~tid ~warp ~mask ~block_scope ~bar_id ~bar_name =
  if not st.sm_flag.(tid) then
    let lane = tid mod st.st_ws in
    Array.iteri
      (fun ptid entry ->
        match entry with
        | Some p
          when ptid <> tid && (not p.p_block_scope) && (not p.p_sm)
               && p.p_warp = warp && p.p_bar <> bar_id
               && (if block_scope then Ompsimd_util.Mask.mem p.p_mask lane
                   else not (Ompsimd_util.Mask.disjoint p.p_mask mask)) ->
            add_finding st (3, p.p_bar, bar_id)
              (Divergence
                 {
                   block = st.st_block;
                   warp;
                   stalled_tid = ptid;
                   stalled_bar = p.p_name;
                   arriving_tid = tid;
                   arriving_bar = bar_name;
                 })
        | _ -> ())
      st.parked

let barrier_arrive (th : Thread.t) ~block_scope ~mask ~bar_id ~bar_name
    ~expected ~participants =
  match !(Domain.DLS.get state_slot) with
  | None -> ()
  | Some st ->
      let tid = th.Thread.tid in
      let warp = th.Thread.warp.Thread.warp_index in
      check_divergence st ~tid ~warp ~mask ~block_scope ~bar_id ~bar_name;
      let pend =
        match Hashtbl.find_opt st.pendings bar_id with
        | Some p -> p
        | None ->
            let p = { pend_expected = expected; pend_tids = [] } in
            Hashtbl.add st.pendings bar_id p;
            p
      in
      pend.pend_tids <- tid :: pend.pend_tids;
      if List.length pend.pend_tids >= pend.pend_expected then begin
        (* release: everyone in the participant set synchronizes pairwise
           at the current epoch; later accesses belong to the next one *)
        let t = st.now in
        let n = st.st_threads in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if a <> b && a < n && b < n then st.sync.((a * n) + b) <- t)
              participants)
          participants;
        st.now <- t + 1;
        List.iter
          (fun p -> if p < n then st.parked.(p) <- None)
          pend.pend_tids;
        Hashtbl.remove st.pendings bar_id
      end
      else
        st.parked.(tid) <-
          Some
            {
              p_warp = warp;
              p_mask = mask;
              p_block_scope = block_scope;
              p_bar = bar_id;
              p_name = bar_name;
              p_sm = st.sm_flag.(tid);
            }

(* --- launch-level composition ----------------------------------------- *)

(* Cross-block conflicts from the per-block summaries, folded in
   ascending block id.  A block's non-atomic write races with any access
   to the same cell from an earlier block; its atomic races with an
   earlier plain write (blocks only synchronize through kernel
   boundaries). *)
let cross_block_findings per_block =
  let acc : (cell_key, summary) Hashtbl.t = Hashtbl.create 64 in
  let dedup = Hashtbl.create 16 in
  let findings = ref [] in
  let nf = ref 0 in
  let emit key f =
    if !nf < max_findings_per_block && not (Hashtbl.mem dedup key) then begin
      Hashtbl.add dedup key ();
      findings := f :: !findings;
      incr nf
    end
  in
  Array.iter
    (fun br_opt ->
      match br_opt with
      | None -> ()
      | Some br ->
          List.iter
            (fun (key, s) ->
              (match Hashtbl.find_opt acc key with
              | None -> ()
              | Some prior ->
                  let pair first second =
                    match (first, second) with
                    | Some first, Some second ->
                        emit
                          (2, first.a_site, second.a_site)
                          (Cross_race
                             {
                               space = key.ck_id;
                               addr = key.ck_addr;
                               first;
                               second;
                             })
                    | _ -> ()
                  in
                  if s.s_flags land f_write <> 0 then begin
                    if prior.s_flags land f_write <> 0 then pair prior.s_w s.s_w;
                    if prior.s_flags land f_read <> 0 then pair prior.s_r s.s_w;
                    if prior.s_flags land f_atomic <> 0 then
                      pair prior.s_a s.s_w
                  end;
                  if
                    s.s_flags land f_read <> 0
                    && prior.s_flags land f_write <> 0
                  then pair prior.s_w s.s_r;
                  if
                    s.s_flags land f_atomic <> 0
                    && prior.s_flags land f_write <> 0
                  then pair prior.s_w s.s_a);
              (* fold this block's summary into the accumulator, keeping
                 the earliest representative access per kind *)
              match Hashtbl.find_opt acc key with
              | None ->
                  Hashtbl.add acc key
                    {
                      s_flags = s.s_flags;
                      s_r = s.s_r;
                      s_w = s.s_w;
                      s_a = s.s_a;
                    }
              | Some prior ->
                  if prior.s_flags land f_read = 0 then prior.s_r <- s.s_r;
                  if prior.s_flags land f_write = 0 then prior.s_w <- s.s_w;
                  if prior.s_flags land f_atomic = 0 then prior.s_a <- s.s_a;
                  prior.s_flags <- prior.s_flags lor s.s_flags)
            br.br_summaries)
    per_block;
  List.rev !findings

(* [per_block.(b)] is block b's report. *)
let launch_report ~kernel (per_block : block_report option array) =
  let intra =
    Array.fold_right
      (fun br_opt acc ->
        match br_opt with Some br -> br.br_findings @ acc | None -> acc)
      per_block []
  in
  {
    kernel;
    findings = intra @ cross_block_findings per_block;
    blocks = Array.length per_block;
  }
