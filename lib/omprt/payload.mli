(** Outlined-function argument payloads (§4.1).

    The captured variables of an outlined region or simd loop are
    aggregated into one payload, packed before the runtime call and
    unpacked inside the outlined function — the OCaml analogue of LLVM's
    [void **args].  The model prices a payload by its slot count alone:
    one ALU op per slot to pack and to unpack, and 8 bytes per slot in
    the sharing space.  No runtime code reads a captured value through
    it: an outlined body reaches its captures directly (a hand-written
    body by closure, a compiled one through the creating lane's frame),
    so a payload is just the number of slots its call site declares. *)

type t

val empty : t
(** No slots. *)

val slots : int -> t
(** A payload of [n] pointer-sized slots.
    @raise Invalid_argument when [n] is negative. *)

val length : t -> int
(** The slot count. *)

val bytes : t -> int
(** 8 bytes per argument slot. *)

val pack : Gpusim.Thread.t -> t -> unit
(** Charge the cost of aggregating the payload (one ALU op per slot). *)

val unpack : Gpusim.Thread.t -> t -> unit
(** Charge the cost of unpacking inside the outlined function. *)
