(** The run's configuration: every [OMPSIMD_*] knob the library honours,
    parsed once, at the edge, into one typed record.

    This is the only module under [lib/] that reads the environment.
    Entry points (the CLI, the bench, tests, examples) call {!parse} or
    {!of_env} before doing any work, hand the record's pieces to the
    library as arguments, and {!install} its device-wide debug switches
    once.  Every knob keeps the repo-wide convention that an unset and
    a blank value both mean "default". *)

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
      (** [OMPSIMD_EVAL] ([compile]/[staged], default, or [walk]) and
          [OMPSIMD_PASSES] (validated pipeline spec; [""] = default) *)
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
    raises: a malformed value is an [Error] whose one-line message
    names the variable. *)

val of_env : unit -> (t, string) result
(** [parse] over the process environment ({!Ompsimd_util.Env.var}). *)

val default : t
(** [parse] of an empty lookup: every knob at its default. *)

val install : t -> unit
(** Set the device-wide debug switches — {!Gpusim.Ompsan.enabled} and
    the {!Gpusim.Fault} plan and watchdog — from the record.  Until
    something is installed they hold [default]'s values (all off). *)

val with_installed : t -> (unit -> 'a) -> 'a
(** Run with [t]'s switches installed, then restore the previously
    installed record. *)
