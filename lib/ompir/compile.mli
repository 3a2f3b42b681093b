(** The staged evaluator.

    [run] compiles the checked program once per launch into a tree of
    OCaml closures — every variable reference resolved to a
    (frame-depth, slot) pair over array-backed frames, array parameters
    and outlined-region metadata hoisted into the closures — and then
    executes that compiled form on the simulated device.  The compiled
    form is immutable and shared by all lanes and blocks; only the
    per-thread frame arrays are private.

    Observable behaviour is bit-identical to the {!Eval} tree walker:
    same values, same cost charges in the same order, same memory
    accounting, so reports and {!Gpusim.Counters} are equal across
    engines.  The walker remains the reference interpreter, selectable
    with [OMPSIMD_EVAL=walk]. *)

type value = Eval.value = V_int of int | V_float of float

type engine = Walk | Staged
(** Which evaluator runs a compiled kernel: the tree walker or the
    staged closures.  Chosen at compile time ([Offload.knobs.engine],
    the [OMPSIMD_EVAL] knob). *)

val run :
  cfg:Gpusim.Config.t ->
  ?pool:Gpusim.Pool.t ->
  ?trace:Gpusim.Trace.t ->
  ?nonce:int ->
  options:Eval.options ->
  bindings:(string * Eval.binding) list ->
  Outline.program ->
  Gpusim.Device.report
(** Compile and launch the kernel; drop-in replacement for {!Eval.run}
    ([nonce] as there).
    @raise Eval.Error on binding mismatches. *)
