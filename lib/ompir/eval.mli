(** The IR evaluator — the stand-in for the machine code Clang would have
    generated.  It executes an outlined program on the simulated GPU
    through the device runtime: sequential statements run per-thread
    (redundantly under SPMD, on main threads under generic mode, exactly
    as the runtime dictates), worksharing directives call into
    {!Omprt.Parallel}, {!Omprt.Workshare} and {!Omprt.Simd} with the
    outlined bodies and their captured payloads, and every operation
    charges its simulated cost (ALU/FPU ticks, memory accounting through
    {!Gpusim.Memory}). *)

exception Error of string
(** Runtime type or binding failure — {!Check.kernel} accepts exactly the
    kernels that cannot raise this. *)

type binding =
  | B_farr of Gpusim.Memory.farray
  | B_iarr of Gpusim.Memory.iarray
  | B_int of int
  | B_float of float

type value = V_int of int | V_float of float
(** Runtime scalar values, shared with the staged evaluator
    ({!Compile}) so the two engines are differentially comparable. *)

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
(** Launch the kernel.  Every parameter must be bound with the matching
    kind.  [nonce] pins the launch's fault draws ({!Gpusim.Device.launch});
    a sanitized launch's report is named after the kernel.
    @raise Error on binding mismatches. *)
