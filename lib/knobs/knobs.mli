(** The run's configuration: every [OMPSIMD_*] knob the library honours,
    parsed once, at the edge, into one typed record.

    This is the only module under [lib/] that reads the environment.
    Entry points (the CLI, tests, examples) call {!parse} or
    {!of_env} before doing any work and hand the record's pieces to the
    library as arguments.  The launch settings — sanitizer, fault plan,
    watchdog — travel on the simulation pool {!pool} builds; no
    process-global switch is ever set.  Every knob keeps the repo-wide
    convention that an unset and a blank value both mean "default". *)

type t = {
  device : Gpusim.Config.t;
      (** [OMPSIMD_DEVICE]: a {!Gpusim.Zoo} spec; default
          {!Gpusim.Config.a100_quarter} *)
  domains : int;
      (** [OMPSIMD_DOMAINS]: block-simulation worker domains for
          {!Gpusim.Pool.create}; unset means cores - 1, which also caps
          explicit requests (more domains than cores only add GC
          coordination) *)
  compile : Openmp.Offload.knobs;
      (** [OMPSIMD_PASSES] (validated pipeline spec; [""] = default) *)
  sanitize : bool;  (** [OMPSIMD_SANITIZE]: [1/on/true/yes] arms ompsan *)
  faults : Gpusim.Fault.plan option;
      (** [OMPSIMD_FAULTS] seeded by [OMPSIMD_FAULT_SEED] (default 0) *)
  watchdog : float;
      (** [OMPSIMD_WATCHDOG]: per-block cycle budget; 0 = off *)
  fleet : Serve.Fleet.config;
      (** the service config: [OMPSIMD_SERVE_*] and [OMPSIMD_FLEET_*],
          on [device] with [compile] as its knobs; the autoscaler is
          armed only with [OMPSIMD_SERVE_SLO_MS] set *)
  telemetry : string option;
      (** [OMPSIMD_SERVE_TELEMETRY]: where the serve telemetry stream
          goes; its presence also sets [fleet.telemetry] *)
}

val names : string list
(** Every variable {!parse} reads. *)

val parse : (string -> string option) -> (t, string) result
(** Build the record from [lookup] (trimmed; blank means unset).  Never
    raises: a malformed or out-of-range value (e.g. zero shards, a
    negative queue bound or watchdog) is an [Error] whose one-line
    message names the variable. *)

val of_env : unit -> (t, string) result
(** [parse] over the process environment ({!Ompsimd_util.Env.var}). *)

val default : t
(** [parse] of an empty lookup: every knob at its default. *)

val pool : t -> Gpusim.Pool.t
(** The launch context the record describes: a {!Gpusim.Pool} of
    [t.domains] workers carrying [t]'s sanitizer, fault plan and
    watchdog.  Each pool counts its own armed launches, so build one
    per run that should replay from the first fault. *)
