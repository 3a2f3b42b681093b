(** The staged evaluator.

    [run] compiles the checked program once per launch into a tree of
    OCaml closures and then executes that compiled form on the
    simulated device.  Compilation gives every scalar — parameter,
    declaration, loop variable, reduction summand — a fixed slot in an
    [int] or a [float] frame, chosen from its type, and resolves every
    reference to a (nesting-level distance, slot) pair; array
    parameters and outlined-region metadata are hoisted into the
    closures.  The compiled form is immutable and shared by all lanes
    and blocks.  Each executing lane gets one frame per nesting level
    (kernel body, region body, simd body) on first use and keeps it for
    the launch, and each creating lane builds its region and simd
    payloads and bodies once per site, refreshing the payloads in
    place: evaluating an expression, a statement or a loop iteration
    allocates nothing.

    This is the one evaluator the product runs kernels with.  A tree
    walker kept with the tests is its reference: the two are certified
    launch by launch to yield the same values, the same cost charges in
    the same order and the same memory accounting, so reports and
    {!Gpusim.Counters} are equal.  The launch types below are shared
    with that reference. *)

exception Error of string
(** A binding mismatch or an ill-typed kernel, raised before the launch
    starts (every kernel {!Check.kernel} accepts types here),
    or an integer division by zero during it. *)

type binding =
  | B_farr of Gpusim.Memory.farray
  | B_iarr of Gpusim.Memory.iarray
  | B_int of int
  | B_float of float

type options = {
  num_teams : int;
  num_threads : int;
  teams_mode : Omprt.Mode.t;
  parallel_mode : [ `Auto | `Force of Omprt.Mode.t ];
      (** [`Auto] uses the {!Spmdize} analysis per region *)
  simd_len : int;
  sharing_bytes : int;
}

val default_options : options
(** 2 teams x 64 threads, SPMD teams, [`Auto] parallel, simdlen 8. *)

val run :
  cfg:Gpusim.Config.t ->
  ?pool:Gpusim.Pool.t ->
  ?trace:Gpusim.Trace.t ->
  ?nonce:int ->
  options:options ->
  bindings:(string * binding) list ->
  Outline.program ->
  Gpusim.Device.report
(** Compile and launch the kernel.  Every parameter must be bound with
    the matching kind.  [nonce] pins the launch's fault draws
    ({!Gpusim.Device.launch}); a sanitized launch's report is named after
    the kernel.
    @raise Error on binding mismatches. *)
