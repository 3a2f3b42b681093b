(** Directive clauses — the knobs a pragma line carries, assembled into
    the runtime's launch parameters.

    [simdlen] must divide the warp; [num_threads] must be a warp
    multiple; defaults follow LLVM's: 128 threads per team, SPMD
    everywhere the program shape allows, simdlen 1 (two-level
    compatibility) unless a [simd] construct appears. *)

type schedule = Static | Static_chunked of int | Dynamic of int

type t = {
  num_teams : int option;
  num_threads : int option;
  teams_mode : Omprt.Mode.t option;  (** force generic/SPMD teams *)
  parallel_mode : Omprt.Mode.t option;
  simdlen : int option;
  schedule : schedule;
  sharing_bytes : int option;
}

val none : t

val num_teams : int -> t -> t
val num_threads : int -> t -> t
val teams_mode : Omprt.Mode.t -> t -> t
val parallel_mode : Omprt.Mode.t -> t -> t
val simdlen : int -> t -> t
val schedule : schedule -> t -> t
val sharing_bytes : int -> t -> t

val threads_of : t -> int
val simdlen_of : t -> int
val sharing_bytes_of : t -> int
(** One launch parameter with its default filled in, as {!resolve}
    fills it (128 threads, simdlen 1, the default sharing budget),
    without building the whole parameter set. *)

val check_geometry : cfg:Gpusim.Config.t -> t -> (unit, string) result
(** Whether the clause set can launch on [cfg]: teams positive, simdlen
    dividing the warp, threads a positive warp multiple, and the block
    (threads, plus the main warp in generic teams mode) within the
    device's limit.  The error names the first check that fails.  The
    launch makes the same checks; this lets a caller (the serve fleet)
    refuse one request on one device without raising. *)

val resolve :
  cfg:Gpusim.Config.t -> t -> Omprt.Team.params * Omprt.Mode.t * int
(** Launch parameters, the parallel-region mode, and the simdlen, with
    defaults filled in (teams = 2 per SM, threads = 128, everything
    SPMD, simdlen 1).
    @raise Invalid_argument when {!check_geometry} fails. *)

val workshare_schedule : t -> Omprt.Workshare.schedule
