(** Launch requests: the unit of work the service schedules.

    A request names a kernel template from the built-in catalog plus a
    problem size and launch geometry; {!kernel_of_spec} builds the
    actual IR (the digest the cache keys on is computed from exactly
    what will compile) and {!bindings} fresh, seed-deterministic device
    data in a private memory space — requests share no simulator
    state.  A launch of an already compiled kernel needs only the
    data. *)

type spec = {
  id : int;  (** position in the trace, 0-based *)
  at : float;  (** arrival time, virtual ticks *)
  kernel : string;  (** catalog template name *)
  size : int;
  teams : int;
  threads : int;  (** must be a warp multiple, as everywhere *)
  simdlen : int;
  guardize : bool;  (** compile with the S7 guardize transform *)
  deadline : float option;  (** absolute completion deadline, ticks *)
  priority : int;  (** higher dispatches first *)
  seed : int;  (** binding-data seed *)
  tenant : string;
      (** the client this request bills to — the identity the fleet's
          weighted-fair admission protects neighbours from; ["-"] is
          the default tenant *)
  device : string option;
      (** placement pin for heterogeneous fleets: a {!Gpusim.Zoo} name
          (trace token [device=w64-sw]).  The fleet routes the request
          to a shard carrying that device; a pin no fleet shard
          satisfies is ignored rather than failed, so one trace replays
          under any fleet makeup *)
}

val default_spec : spec
(** The trace parser's baseline: id 0, [saxpy] at size 32, one team of
    32 threads, simdlen 8, no deadline, priority 0, seed 1, tenant
    ["-"].  Convenient for [{ default_spec with ... }] construction in
    generators. *)

val catalog_names : string list
(** [rowsum; saxpy; stencil; hist; chain] — reduction, streaming,
    gather, atomic-contention and fat-body shapes. *)

val kernel_of_spec : spec -> Ompir.Ir.kernel
(** The template instantiated at the request's size (sizes may change
    kernel structure — [chain] unrolls — so different sizes can have
    different digests).  @raise Failure on an unknown template. *)

type bindings = (string * Ompir.Compile.binding) list

val bindings : spec -> bindings * Gpusim.Memory.farray
(** Bindings in a fresh memory space (data from [seed]) and the output
    array to checksum for the per-request report: what a launch of the
    compiled kernel needs.  @raise Failure on an unknown template. *)

val instantiate : spec -> Ompir.Ir.kernel * bindings * Gpusim.Memory.farray
(** {!kernel_of_spec} and {!bindings} together. *)

val checksum : Gpusim.Memory.farray -> float
(** Plain sum of the array — enough to witness bit-identical results. *)

val parse_trace : string -> spec list
(** Parse a trace: one request per line of [key=value] tokens ([kernel=]
    required; [at]/[deadline] in finite non-negative ticks, deadline
    relative to arrival; [size], [teams], [threads] and [simdlen] at
    least 1, [size] at most 65536; [#] comments).  Geometry that depends on the device (a
    warp multiple, the block limit) is checked per launch, not here.
    @raise Failure with the offending line number. *)

val load_trace : string -> spec list
(** {!parse_trace} over a file's contents. *)

val synthetic : n:int -> seed:int -> ?gap:float -> unit -> spec list
(** Deterministic open-loop trace: [n] requests with uniform
    inter-arrival gaps of mean [gap] ticks (default 2000), Zipf-skewed
    template choice (so caches see repeat traffic), occasional
    deadlines.  Same [seed] — same trace, always. *)
