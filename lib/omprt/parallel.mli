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
    barrier.  In a teams-SPMD kernel that barrier sits inside kernel
    code, so only the caller knows it; the thread then gives its fiber
    back ({!Simd.region}): it finishes at the closing barrier without
    parking a fiber there, and a SIMD worker lives on as steps from its
    first hand-off.  The simulated schedule is the same either way.
    The team main of a generic-teams kernel ignores it: its workers'
    closing arrivals are the worker machine's own.

    [simd_len = 1] always executes as SPMD with singleton groups — the
    paper's two-level compatibility mode (§5.4).  On a device without
    warp-level barriers, a request for a generic region forces
    [simd_len = 1] (§5.4.1), making every simd loop sequential.

    @raise Invalid_argument if [simd_len] does not divide the warp size
    or the team's worker count. *)
