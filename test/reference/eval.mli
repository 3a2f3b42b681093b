(** The reference tree walker: the IR interpreted directly, statement by
    statement, with no staging.  {!Ompir.Compile} is the evaluator the
    product runs; the tests hold it to this walker launch by launch, bit
    for bit (reports, counters, array contents).

    It executes an outlined program on the simulated GPU
    through the device runtime: sequential statements run per-thread
    (redundantly under SPMD, on main threads under generic mode, exactly
    as the runtime dictates), worksharing directives call into
    {!Omprt.Parallel}, {!Omprt.Workshare} and {!Omprt.Simd} with the
    outlined bodies and their captured payloads, and every operation
    charges its simulated cost (ALU/FPU ticks, memory accounting through
    {!Gpusim.Memory}). *)

val run :
  cfg:Gpusim.Config.t ->
  ?pool:Gpusim.Pool.t ->
  ?trace:Gpusim.Trace.t ->
  ?nonce:int ->
  options:Ompir.Compile.options ->
  bindings:(string * Ompir.Compile.binding) list ->
  Ompir.Outline.program ->
  Gpusim.Device.report
(** Launch the kernel.  Every parameter must be bound with the matching
    kind.  [nonce] pins the launch's fault draws ({!Gpusim.Device.launch});
    a sanitized launch's report is named after the kernel.
    @raise Ompir.Compile.Error on binding mismatches. *)
