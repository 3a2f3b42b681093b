(* The four float counters live in a nested all-float record: OCaml
   stores all-float records flat (unboxed), so the hot-path [<-] writes
   mutate in place.  Keeping them as fields of the mixed int/float outer
   record would box a fresh float on every write — one allocation per
   Thread.tick, measurable on the slow experiments. *)
type floats = {
  mutable lane_busy_cycles : float;
  mutable dram_bytes : float;
  mutable smem_bytes : float;
  mutable lsu_transactions : float;
}

(* extras cells: a single-field all-float record is stored flat, so the
   per-bump [<-] mutates in place; a [float ref] here would be a pointer
   to a boxed float re-allocated on every bump. *)
type cell = { mutable c : float }

type t = {
  f : floats;
  mutable global_loads : int;
  mutable global_stores : int;
  mutable line_hits : int;
  mutable line_misses : int;
  mutable l2_hits : int;
  mutable atomics : int;
  mutable warp_barriers : int;
  mutable block_barriers : int;
  mutable calls : int;
  extras : (string, cell) Hashtbl.t;
  mutable memo_k1 : string;
  mutable memo_c1 : cell;
  mutable memo_k2 : string;
  mutable memo_c2 : cell;
}

(* Physical-equality memo sentinel: never [==] to any caller string. *)
let memo_sentinel = String.make 1 '\000'
let memo_dummy = { c = 0.0 }

let create () =
  {
    f =
      {
        lane_busy_cycles = 0.0;
        dram_bytes = 0.0;
        smem_bytes = 0.0;
        lsu_transactions = 0.0;
      };
    global_loads = 0;
    global_stores = 0;
    line_hits = 0;
    line_misses = 0;
    l2_hits = 0;
    atomics = 0;
    warp_barriers = 0;
    block_barriers = 0;
    calls = 0;
    extras = Hashtbl.create 8;
    memo_k1 = memo_sentinel;
    memo_c1 = memo_dummy;
    memo_k2 = memo_sentinel;
    memo_c2 = memo_dummy;
  }

let busy_cycles t = t.f.lane_busy_cycles
let dram_bytes t = t.f.dram_bytes
let smem_bytes t = t.f.smem_bytes
let lsu_transactions t = t.f.lsu_transactions
let[@inline] add_dram t v = t.f.dram_bytes <- t.f.dram_bytes +. v
let[@inline] add_smem t v = t.f.smem_bytes <- t.f.smem_bytes +. v
let[@inline] add_lsu t v = t.f.lsu_transactions <- t.f.lsu_transactions +. v

(* Hot path: call sites bump a small set of literal keys over and over,
   so a two-entry physical-equality memo answers almost every bump
   without hashing the string; the hash table is the slow path and the
   ground truth. *)
let[@inline] bump t key v =
  if key == t.memo_k1 then t.memo_c1.c <- t.memo_c1.c +. v
  else if key == t.memo_k2 then t.memo_c2.c <- t.memo_c2.c +. v
  else begin
    let cell =
      match Hashtbl.find_opt t.extras key with
      | Some cell -> cell
      | None ->
          let cell = { c = 0.0 } in
          Hashtbl.replace t.extras key cell;
          cell
    in
    cell.c <- cell.c +. v;
    t.memo_k2 <- t.memo_k1;
    t.memo_c2 <- t.memo_c1;
    t.memo_k1 <- key;
    t.memo_c1 <- cell
  end

let get_extra t key =
  match Hashtbl.find_opt t.extras key with Some cell -> cell.c | None -> 0.0

let merge_into ~dst src =
  dst.f.lane_busy_cycles <- dst.f.lane_busy_cycles +. src.f.lane_busy_cycles;
  dst.f.dram_bytes <- dst.f.dram_bytes +. src.f.dram_bytes;
  dst.f.smem_bytes <- dst.f.smem_bytes +. src.f.smem_bytes;
  dst.global_loads <- dst.global_loads + src.global_loads;
  dst.global_stores <- dst.global_stores + src.global_stores;
  dst.line_hits <- dst.line_hits + src.line_hits;
  dst.line_misses <- dst.line_misses + src.line_misses;
  dst.f.lsu_transactions <- dst.f.lsu_transactions +. src.f.lsu_transactions;
  dst.l2_hits <- dst.l2_hits + src.l2_hits;
  dst.atomics <- dst.atomics + src.atomics;
  dst.warp_barriers <- dst.warp_barriers + src.warp_barriers;
  dst.block_barriers <- dst.block_barriers + src.block_barriers;
  dst.calls <- dst.calls + src.calls;
  Hashtbl.iter (fun k v -> bump dst k v.c) src.extras

(* Bit-exact comparison (floats compared with [=], so 0.0 = -0.0 but no
   tolerance): the determinism tests lean on this to assert that
   sequential and pooled launches produce the same report. *)
let equal a b =
  let extras_subset x y =
    Hashtbl.fold
      (fun k v acc -> acc && match Hashtbl.find_opt y k with
        | Some w -> v.c = w.c
        | None -> v.c = 0.0)
      x true
  in
  a.f.lane_busy_cycles = b.f.lane_busy_cycles
  && a.f.dram_bytes = b.f.dram_bytes
  && a.f.smem_bytes = b.f.smem_bytes
  && a.global_loads = b.global_loads
  && a.global_stores = b.global_stores
  && a.line_hits = b.line_hits
  && a.line_misses = b.line_misses
  && a.f.lsu_transactions = b.f.lsu_transactions
  && a.l2_hits = b.l2_hits
  && a.atomics = b.atomics
  && a.warp_barriers = b.warp_barriers
  && a.block_barriers = b.block_barriers
  && a.calls = b.calls
  && extras_subset a.extras b.extras
  && extras_subset b.extras a.extras

let coalescing_ratio t =
  let total = t.line_hits + t.line_misses in
  if total = 0 then 1.0 else float_of_int t.line_hits /. float_of_int total

let pp ppf t =
  Format.fprintf ppf
    "@[<v>busy=%.0f dram=%.0fB smem=%.0fB loads=%d stores=%d hit/miss=%d/%d \
     atomics=%d wbar=%d bbar=%d calls=%d@]"
    t.f.lane_busy_cycles t.f.dram_bytes t.f.smem_bytes t.global_loads
    t.global_stores t.line_hits t.line_misses t.atomics t.warp_barriers
    t.block_barriers t.calls
