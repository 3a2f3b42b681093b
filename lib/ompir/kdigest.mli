(** Content digest of kernels — the identity under which the service
    layer ({!module:Serve} in [lib/serve]) caches compilation.

    Structurally equal kernels digest equally; the serialization behind
    the digest is injective, so structurally different kernels digest
    differently (up to MD5 collisions).  The [fn_id] annotations stamped
    by {!Outline.run} are excluded: a kernel digests the same before and
    after outlining, so the digest of freshly parsed source equals the
    digest of the same kernel anywhere later in the pipeline. *)

val hex : Ir.kernel -> string
(** 32-character lowercase hex digest. *)

val bytes_of_kernel : Ir.kernel -> string
(** The canonical serialization itself (exposed for tests). *)

val weight : Ir.kernel -> int
(** Structural node count (params + statements + expression nodes) — a
    deterministic, host-independent proxy for compilation cost, used to
    charge virtual compile time in the service layer. *)

val body_weight : Ir.stmt list -> int
(** The statement and expression nodes of {!weight}, for one body. *)
