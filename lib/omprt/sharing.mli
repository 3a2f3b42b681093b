(** The variable-sharing space (§5.3.1), as a dynamic per-team allocator.

    A slab of GPU shared memory (paper default grown from 1024 to 2048
    bytes) through which main threads publish outlined-function arguments
    to their workers.  Instead of statically splitting the slab into
    even per-group slices, the runtime allocates variable-size slices on
    demand, scoped to the parallel/SIMD region that acquired them: the
    properly nested case is a bump-pointer stack (acquire pushes,
    releasing the most recent slice pops), and slices released out of
    stack order are recycled through a coalescing first-fit free list.
    A payload that fits neither a recycled hole nor the remaining slab
    falls back to a pooled global-memory buffer; the first acquisition of
    a pool slot pays the device-malloc round-trip, a later reuse pays
    only the freelist access (cf. Bercea et al., "Implementing implicit
    OpenMP data sharing on GPUs"). *)

type location =
  | Shared_space of { offset : int; bytes : int; vbase : int }
      (** A slice of the slab.  [offset] is its physical arena offset,
          [vbase] the sanitizer's virtual shadow base — unique per grant,
          so slab bytes recycled across region lifetimes never alias in
          the race detector. *)
  | Global_fallback of { slot : int; bytes : int }
      (** Overflow: a buffer from the team's global-memory pool. *)

type t

val none : location
(** Placeholder for location-typed fields before any acquire (a zero-byte
    shared slice).  Never pass it to {!release}. *)

val default_bytes : int
(** 2048 — the paper's enlarged reservation. *)

val min_bytes : int
(** 256 — floor applied by the dynamic-sizing heuristic in
    [Openmp.Offload] so a tiny kernel still has room for runtime-internal
    publishes. *)

val create : arena:Gpusim.Shared.arena -> bytes:int -> t
(** Statically reserve [bytes] of the block's shared memory.
    @raise Invalid_argument if the arena cannot fit the reservation. *)

val reset : t -> arena:Gpusim.Shared.arena -> unit
(** Return a recycled allocator to the state {!create} builds, reserving
    its bytes again on [arena] (a recycled block frame's new arena).
    @raise Invalid_argument if the arena cannot fit the reservation. *)

val total_bytes : t -> int

val configure : t -> num_groups:int -> unit
(** Called on parallel-region entry with the region's SIMD-group count
    (zero for a classic SPMD / no-simd region).  Feeds the nominal
    {!slice_bytes} report and, when no slice is live, resets the
    allocator — a belt-and-braces measure only, since paired
    acquire/release drains the stack by itself.
    @raise Invalid_argument on negative [num_groups]. *)

val slice_bytes : t -> int
(** The nominal even split [total / (num_groups + 1)] of the last
    {!configure} — what each publisher would get under a static
    partition.  Reporting only; the allocator is not bound by it. *)

val acquire : t -> Gpusim.Thread.t -> bytes:int -> location
(** Allocate a slice for a payload of [bytes] bytes (callers pass
    [Payload.bytes], so a payload is judged by its real footprint).
    Grants from the slab are free; a global fallback charges the
    device-malloc round-trip for a fresh pool slot or a single global
    access for a reused one, and is counted.
    @raise Invalid_argument on negative [bytes]. *)

val release : t -> location -> unit
(** Return a slice at the end of its region.  Releasing the most recent
    slab slice pops the stack; out-of-order releases are recycled via the
    free list.  A fallback's buffer returns to the pool for reuse.
    Free of simulated cost: the expensive part of a fallback was paid at
    acquire. *)

val publish : t -> Gpusim.Thread.t -> location -> Payload.t -> unit
(** Main-side copy of the payload into the sharing location (per-slot
    shared-memory or global-memory store costs). *)

val fetch : sharers:int -> t -> Gpusim.Thread.t -> location -> Payload.t -> unit
(** Worker-side fetch of a published payload.  [sharers] is how many
    threads fetch the same buffer concurrently — their global-memory
    traffic coalesces (values below 1 count as 1).  A plain labelled
    argument: an optional one is boxed on every fetch. *)

val global_fallbacks : t -> int
(** How many acquires overflowed to global memory since creation. *)

val shared_grants : t -> int
val pool_reuses : t -> int
(** How many fallbacks were served from the pool instead of a fresh
    device malloc. *)

val used_bytes : t -> int
(** Live slab bytes (stack extent minus recycled holes). *)

val live_slices : t -> int
val pool_slots : t -> int
val high_water : t -> int
(** Deepest stack extent ever observed. *)
