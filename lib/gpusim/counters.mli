(** Performance counters accumulated while a block executes.

    One instance is shared by all threads of a block; the launcher merges
    block counters into a kernel-level report.  Hot-path counters are fixed
    mutable fields; layered components (e.g. the OpenMP runtime) may record
    their own events under string keys via [bump]. *)

type floats = {
  mutable lane_busy_cycles : float;
      (** total cycles in which some lane was executing (the throughput
          leg of the roofline) *)
  mutable dram_bytes : float;  (** global-memory transaction traffic *)
  mutable smem_bytes : float;
  mutable lsu_transactions : float;
      (** L1 lookups issued (hits + misses, excluding coalesced riders) —
          drives the transaction-throughput roofline leg *)
}
(** The float counters, nested in an all-float record so OCaml stores
    them flat: mutating them does not allocate.  Mutate via [t.f] on the
    simulator's hot paths; read through the named accessors elsewhere. *)

type cell = { mutable c : float }
(** An extras counter cell — a single-field float record (stored flat)
    rather than a [float ref] (a pointer to a boxed float), so a [bump]
    mutates in place instead of allocating. *)

type t = {
  f : floats;
  mutable global_loads : int;
  mutable global_stores : int;
  mutable line_hits : int;  (** resident accesses (coalesced or L1 hits) *)
  mutable line_misses : int;  (** accesses that went to DRAM *)
  mutable l2_hits : int;  (** warp-cache misses served by the device L2 *)
  mutable atomics : int;
  mutable warp_barriers : int;
  mutable block_barriers : int;
  mutable calls : int;
  extras : (string, cell) Hashtbl.t;
      (** cells are mutated in place so [bump] costs one lookup on the
          hot path; read through {!get_extra} *)
  mutable memo_k1 : string;
  mutable memo_c1 : cell;
  mutable memo_k2 : string;
  mutable memo_c2 : cell;
      (** two-entry physical-equality memo over [extras]: call sites
          bump literal keys, so most bumps skip the string hash *)
}

val create : unit -> t

val busy_cycles : t -> float
val dram_bytes : t -> float
val smem_bytes : t -> float
val lsu_transactions : t -> float

val add_dram : t -> float -> unit
val add_smem : t -> float -> unit
val add_lsu : t -> float -> unit

val bump : t -> string -> float -> unit
val get_extra : t -> string -> float
(** 0.0 when the key was never bumped. *)

val equal : t -> t -> bool
(** Bit-exact equality of every counter, including extras (a key bumped
    to 0.0 on one side and absent on the other counts as equal). *)

val merge_into : dst:t -> t -> unit
(** Add every counter of the source into [dst]. *)

val coalescing_ratio : t -> float
(** hits / (hits + misses); 1.0 when there were no accesses. *)

val pp : Format.formatter -> t -> unit
