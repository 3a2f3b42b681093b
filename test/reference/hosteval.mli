(** Sequential host-side reference interpreter.

    Executes a kernel with plain loop semantics — worksharing directives
    become ordinary loops, [Guarded] blocks run once, [Simd_sum]
    accumulates in iteration order — with no device, no costs and no
    parallelism.  Race-free kernels must produce exactly the same array
    contents under {!Ompir.Compile} and {!Eval} (any mode, any geometry)
    and under this interpreter; the differential test suite exercises
    that on random programs. *)

exception Error of string

val run :
  bindings:(string * Ompir.Compile.binding) list -> Ompir.Ir.kernel -> unit
(** Mutates the bound device arrays in place (host-side, cost-free).
    @raise Error on binding/type failures, like {!Eval}. *)
