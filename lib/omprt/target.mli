(** Offloaded-region entry: [__target_init], the team state machine, and
    the kernel launcher (§5.2, Fig 5).

    In SPMD teams mode every thread returns from initialization straight
    into the target-region body.  In generic teams mode only the team main
    thread (lane 0 of the extra warp, Fig 2) runs the body; worker threads
    enter the team state machine ({!Simd.worker}) where they idle at the
    team barrier until the main thread publishes a parallel region, and
    the remaining lanes of the main warp retire immediately. *)

val launch :
  cfg:Gpusim.Config.t ->
  ?pool:Gpusim.Pool.t ->
  ?trace:Gpusim.Trace.t ->
  ?nonce:int ->
  ?kernel:string ->
  params:Team.params ->
  ?dispatch_table_size:int ->
  (Team.ctx -> unit) ->
  Gpusim.Device.report
(** [launch ~cfg ~params body] runs the target region [body] on
    [params.num_teams] teams of [params.num_threads] worker threads.
    [dispatch_table_size] is the number of outlined regions the compiler
    put in the if-cascade dispatcher (§5.5); ids beyond it pay the
    indirect-call penalty.  The returned report carries the simulated
    kernel time and merged counters.  [pool], [nonce] and [kernel] are
    forwarded to {!Gpusim.Device.launch}: the pool simulates teams on
    several host domains, preserving the report bit-for-bit (see the
    Device determinism contract), and carries the launch's sanitizer
    and fault settings. *)

val thread_main : (Team.ctx -> unit) -> Team.t -> Gpusim.Thread.t -> unit
(** [thread_main body team] is one thread's kernel as {!launch} runs it
    on every thread of [team]'s block — exposed for tests that run a
    block straight on {!Gpusim.Engine.run_block}. *)
