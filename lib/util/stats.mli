(** Descriptive statistics over float samples, used by the benchmark harness
    and the simulator's counter reports. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
}

val mean : float array -> float
(** Arithmetic mean; 0.0 on the empty array. *)

val variance : float array -> float
(** Sample variance (n-1); 0.0 when fewer than two samples. *)

val stddev : float array -> float

val geomean : float array -> float
(** Geometric mean; requires all samples > 0.
    @raise Invalid_argument otherwise. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in \[0,100\], linear interpolation between
    order statistics.  @raise Invalid_argument on empty input or p outside
    the range. *)

val sort_floats : float array -> unit
(** Sort in place, ascending in {!Float.compare} order (the order
    [Array.sort compare] gives), without boxing an element. *)

val percentile_sorted : float array -> float -> float
(** {!percentile} of an array already sorted ascending: sort once, then
    read several percentiles.  @raise Invalid_argument on empty input or
    p outside the range. *)

val median : float array -> float

val summarize : float array -> summary
(** Full summary.  @raise Invalid_argument on the empty array. *)

val speedup : baseline:float -> float -> float
(** [speedup ~baseline t] = baseline /. t.  @raise Invalid_argument if
    [t <= 0.]. *)
