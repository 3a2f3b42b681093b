(* [Openmp.Offload.run] with the reference walker in place of the
   staged evaluator: the same artifact, the same bindings and the
   options the product resolves ([Offload.options]), so a test can hold
   one launch to the other bit for bit. *)

type launch =
  cfg:Gpusim.Config.t ->
  ?pool:Gpusim.Pool.t ->
  ?trace:Gpusim.Trace.t ->
  ?nonce:int ->
  ?clauses:Openmp.Clause.t ->
  bindings:(string * Ompir.Compile.binding) list ->
  Openmp.Offload.compiled ->
  Gpusim.Device.report

let run : launch =
 fun ~cfg ?pool ?trace ?nonce ?clauses ~bindings c ->
  Eval.run ~cfg ?pool ?trace ?nonce
    ~options:(Openmp.Offload.options ~cfg ?clauses c)
    ~bindings c.Openmp.Offload.program
