(** The offload launch on the reference walker. *)

type launch =
  cfg:Gpusim.Config.t ->
  ?pool:Gpusim.Pool.t ->
  ?trace:Gpusim.Trace.t ->
  ?nonce:int ->
  ?clauses:Openmp.Clause.t ->
  bindings:(string * Ompir.Compile.binding) list ->
  Openmp.Offload.compiled ->
  Gpusim.Device.report
(** The type of {!Openmp.Offload.run}: a test that takes either launch
    as an argument annotates it with this type. *)

val run : launch
(** {!Openmp.Offload.run}'s inputs, launched by {!Eval.run} on
    {!Openmp.Offload.options} instead of by {!Ompir.Compile.run}. *)
