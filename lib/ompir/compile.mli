(** The staged evaluator.

    [run] compiles the checked program once per launch into a tree of
    OCaml closures — every variable reference resolved to a
    (frame-depth, slot) pair over array-backed frames, array parameters
    and outlined-region metadata hoisted into the closures — and then
    executes that compiled form on the simulated device.  The compiled
    form is immutable and shared by all lanes and blocks; only the
    per-thread frame arrays are private.

    This is the one evaluator the product runs kernels with.  A tree
    walker kept with the tests is its reference: the two are certified
    launch by launch to yield the same values, the same cost charges in
    the same order and the same memory accounting, so reports and
    {!Gpusim.Counters} are equal.  The launch types below are shared
    with that reference. *)

exception Error of string
(** Runtime type or binding failure — {!Check.kernel} accepts exactly the
    kernels that cannot raise this. *)

type binding =
  | B_farr of Gpusim.Memory.farray
  | B_iarr of Gpusim.Memory.iarray
  | B_int of int
  | B_float of float

type value = V_int of int | V_float of float
(** Runtime scalar values. *)

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
