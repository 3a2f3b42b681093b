(** Dynamic data-race and barrier-divergence sanitizer ([ompsan]).

    Shadow memory over the simulated global and shared address spaces
    records, per cell, the last (block, warp, lane, epoch, access kind,
    site).  Epochs advance at barrier releases (block and warp barriers
    and the [__simd] state-machine hand-off all funnel through
    {!barrier_arrive}), so two accesses conflict iff they touch the same
    cell from different lanes with at least one plain write and no
    separating synchronization; atomics are exempt.  A second check
    reports barrier divergence: a lane arriving at one barrier while a
    mask-mate is parked at a different warp-scope barrier.

    Enabled by the [OMPSIMD_SANITIZE=1] knob, which the entry point
    installs into {!enabled} once.
    When disabled every hook is a single load-and-branch: no shadow
    state is allocated and no clock or counter is touched, so sanitized
    builds stay bit-identical to the seed — the existing determinism
    tests are the proof. *)

type access_kind = Read | Write | Atomic

val kind_label : access_kind -> string

val enabled : bool ref
(** Off by default; set once by the entry point from its configuration
    (tests may flip it directly). *)

(** {2 Sites}

    Sites are interned statement labels (e.g. ["store out[(r*8)+j]"]).
    Ids are process-local; reports print labels, which are identical
    across eval engines and pool sizes. *)

val register_site : string -> int
val site_label : int -> string

val runtime_site : int
(** Site 0: accesses issued by the runtime rather than kernel IR. *)

val set_site : int -> unit
(** Attribute subsequent accesses of the current block to this site. *)

val set_actor : Thread.t -> int -> int
(** [set_actor th actor] attributes the thread's subsequent accesses to
    the logical lane [actor] and returns the previous attribution so the
    caller can restore it.  Accesses by the same actor never conflict:
    in SPMD mode all lanes of a SIMD group redundantly execute region
    code as one logical OpenMP thread, so the runtime points them at the
    group leader there and back at their own tid inside simd loop
    bodies.  A no-op (echoing [actor]) when no block is open. *)

(** {2 Reports} *)

type access = {
  a_block : int;
  a_tid : int;
  a_warp : int;
  a_lane : int;
  a_kind : access_kind;
  a_site : int;
}

type finding =
  | Race of {
      shared : bool;
      space : int;
      addr : int;
      first : access;
      second : access;
    }
  | Cross_race of { space : int; addr : int; first : access; second : access }
  | Divergence of {
      block : int;
      warp : int;
      stalled_tid : int;
      stalled_bar : string;
      arriving_tid : int;
      arriving_bar : string;
    }

type report = { kernel : string; findings : finding list; blocks : int }

val is_clean : report -> bool
val pp_access : Format.formatter -> access -> unit
val pp_finding : Format.formatter -> finding -> unit
val finding_to_string : finding -> string
val pp_report : Format.formatter -> report -> unit

val report_strings : report -> string list
(** Formatted findings, in deterministic discovery order. *)

val set_kernel : string -> unit
(** Name stamped on the next {!launch_report}. *)

(** {2 Block lifecycle} (driven by {!Device.launch}) *)

type block_report

val block_begin : block_id:int -> num_threads:int -> warp_size:int -> unit
(** Open the per-block shadow state on the calling domain.  No-op when
    the sanitizer is disabled.
    @raise Invalid_argument if a shadow state is already open. *)

val block_end : unit -> block_report option
(** Close and return the block's findings and cross-block access
    summaries ([None] when the sanitizer was disabled). *)

val block_abort : unit -> unit
(** Exception path: close the shadow state and stash its findings for
    {!take_aborted} (a divergent kernel deadlocks before the launch
    epilogue can run). *)

val take_aborted : unit -> finding list

val launch_report : block_report option array -> report
(** Compose the launch-level report: per-block findings merged in
    ascending block id, then cross-block conflicts derived from the
    per-cell summaries.  Index [b] holds block [b]'s report; with grid
    dedup the same report may stand in for several blocks (a multi-member
    class whose representative writes a fixed cell races with itself). *)

(** {2 Hooks} — all no-ops unless {!enabled} and a block is open. *)

val global_access : Thread.t -> sid:int -> addr:int -> kind:access_kind -> unit
val shared_access : Thread.t -> aid:int -> addr:int -> kind:access_kind -> unit

val barrier_arrive :
  Thread.t ->
  block_scope:bool ->
  mask:int ->
  bar_id:int ->
  bar_name:string ->
  expected:int ->
  participants:int list ->
  unit
(** Record an arrival at a barrier.  When the arrival count reaches
    [expected] the participant set synchronizes pairwise and the epoch
    advances.  [mask] is the warp-scope lane mask ([0] for block scope);
    [participants] lists the tids expected at this rendezvous. *)

val enter_state_machine : Thread.t -> unit
(** Mark the calling thread as parked-capable inside the [__simd]
    state machine: its hand-off waits are exempt from the divergence
    check (its main legitimately crosses block-scope barriers while the
    worker waits). *)

val leave_state_machine : Thread.t -> unit
