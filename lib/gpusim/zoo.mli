(** The device zoo — named configurations sweeping the architecture axes
    the paper's single testbed holds constant: warp width (8/16/32/64),
    warp-barrier implementation ({!Config.barrier_impl}), shared-memory
    size and L2 geometry.

    Every entry passes {!Config.checked} at module initialization, so a
    sweep (or a heterogeneous fleet) can never run on an impossible
    device.  Zoo entries are quarter-scale like {!Config.a100_quarter}:
    relative results match the full-size shapes at a quarter of the
    simulation cost. *)

type entry = {
  name : string;
  config : Config.t;
  blurb : string;  (** one-line description for listings *)
}

val sweep : entry list
(** The zoo proper — the ten swept configurations ([w8-hw] … [w32-l2tiny]),
    in sweep order. *)

val aliases : entry list
(** The pre-zoo device names ([a100], [a100q], [amd], [small]). *)

val all : entry list
(** [aliases @ sweep]. *)

val names : string list

val find : string -> entry option

val resolve : ?default:Config.t -> string -> (Config.t, string) result
(** Resolve a device spec: a zoo name ([w64-sw]), [key=value,...]
    overrides over [default] (itself defaulting to
    {!Config.a100_quarter}), or a name followed by overrides
    ([w64-sw,num_sms=4]).  Errors name the unknown device or the bad
    key, and the result is always validated. *)

val pp_table : Format.formatter -> unit -> unit
(** Render the registry as a listing (name, warp, barrier, blurb). *)
