(** Data reductions — the paper's stated future work (§6.2, §7),
    implemented here as an extension.

    [simd_*] reduce a per-lane value across the calling thread's SIMD
    group using a register-shuffle tree (log2(group) combining steps plus
    the group's warp barrier), which is what the missing feature would
    compile to on NVIDIA hardware.  [team_*] reduce across the OpenMP
    threads of the parallel region through shared-memory scratch and two
    team barriers.

    Experiment E6 compares [simd_sum] against the atomic-update workaround
    the paper had to use in sparse_matvec. *)

val simd_reduce : Team.ctx -> Redop.t -> float -> float
(** Combine each lane's contribution across the SIMD group; every lane
    receives the result.  Deterministic combining order (lane 0 upward).
    @raise Failure outside a parallel region. *)

val simd_reduce_post : Team.ctx -> float -> unit
val simd_reduce_combine : Team.ctx -> Redop.t -> float
(** {!simd_reduce} for a group of two or more, split around its first
    rendezvous: post the lane's contribution, then (once the group has
    met) charge the shuffle tree and combine.  A second rendezvous
    follows before any lane may post again.  The simd-loop machine
    ([Simd]) runs these between a lane's own arrivals. *)

val simd_sum : Team.ctx -> float -> float

val team_reduce : Team.ctx -> Redop.t -> float -> float
(** Combine one contribution per OpenMP thread (SIMD group) across the
    team.  Must be called by every executing thread of the region, like an
    OpenMP reduction clause on a worksharing loop.  In generic mode the
    callers are the SIMD mains; in SPMD mode all lanes call and the lanes
    of a group must pass equal values (checked). *)
