(** The [__parallel] runtime entry point (§5.2, Fig 3).

    [parallel] is reached by the team main thread alone when the teams
    region runs in generic mode (the workers are idling in the team state
    machine and get signalled), or by every thread when the teams region
    runs in SPMD mode.  Within the region there is a second mode choice:
    an SPMD parallel region is executed by all threads of every SIMD
    group; a generic one only by each group's SIMD main, with the group's
    workers entering the SIMD state machine. *)

val parallel :
  Team.ctx ->
  mode:Mode.t ->
  simd_len:int ->
  ?payload:Payload.t ->
  ?fn_id:int ->
  ?last:bool ->
  Team.microtask ->
  unit
(** Open a parallel region with the given mode and SIMD group size.

    [last] (default [false]) states that the region is the calling
    thread's last action in the kernel: nothing runs after its closing
    barrier.  A teams-SPMD thread then finishes at that barrier without
    parking its fiber ({!Team.team_barrier_last}), and a SIMD worker
    gives its fiber back at its first hand-off
    ({!Simd.state_machine_last}).  The simulated schedule is the same
    either way.  The team main of a generic-teams kernel ignores it.

    [simd_len = 1] always executes as SPMD with singleton groups — the
    paper's two-level compatibility mode (§5.4).  On a device without
    warp-level barriers, a request for a generic region forces
    [simd_len = 1] (§5.4.1), making every simd loop sequential.

    @raise Invalid_argument if [simd_len] does not divide the warp size
    or the team's worker count. *)

val exec_on_thread : Team.ctx -> Team.parallel_task -> unit
(** Per-thread body of [__parallel] (Fig 3) — exposed for the team state
    machine in {!Target} and for tests. *)
