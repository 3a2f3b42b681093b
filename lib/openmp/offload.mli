(** The compile-and-offload pipeline for IR kernels: the front-end route
    through the codegen layer (§4), ending on the simulated device.

    [compile] runs the checker, the outliner, the globalization analysis
    and the SPMD-ization analysis; [run] executes the compiled kernel.
    Diagnostics mirror what a compiler would print with optimization
    remarks enabled. *)

type compiled = {
  program : Ompir.Outline.program;
  globalization : Ompir.Globalize.report list;
  region_modes : (string * Omprt.Mode.t) list;
      (** SPMD-ization verdict per parallel-level directive *)
  guards_inserted : int;
      (** guard blocks added by the [guardize] transform (0 without it) *)
  may_races : Ompir.Racecheck.finding list;
      (** static may-race findings (empty unless compiled with
          [~racecheck:true]) *)
  engine : Ompir.Compile.engine;
      (** the evaluator {!run} executes this artifact with *)
}

type knobs = {
  guardize : bool;
  fold : bool;
  racecheck : bool;
  passes : string;
      (** optimization-pipeline spec ({!Ompir.Passes.pipeline_of_spec});
          [""] means {!Ompir.Passes.default_pipeline} *)
  engine : Ompir.Compile.engine;
      (** the evaluator the artifact runs on (the [OMPSIMD_EVAL] knob) *)
}
(** The compile-relevant knobs, bundled so cache layers can key on
    them; see {!cache_key}. *)

val default_knobs : knobs
(** [{ guardize = false; fold = true; racecheck = false; passes = "";
    engine = Staged }] — the defaults of {!compile}. *)

val cache_key : ?knobs:knobs -> Ompir.Ir.kernel -> string
(** The identity of a compilation for caching: content digest of the
    kernel ({!Ompir.Kdigest}) and every knob — the pipeline spec (blank
    prints as [default]), so an optimized variant is a distinct tier-2
    artifact, and the engine.  A pure function of its arguments: two
    calls return equal keys iff [compile_with] would produce an
    interchangeable artifact.
    @raise Invalid_argument on a malformed pipeline spec; the message
    names [OMPSIMD_PASSES] and the offending item. *)

val compile_with :
  knobs:knobs ->
  Ompir.Ir.kernel ->
  (compiled, Ompir.Check.error list) result
(** {!compile} with the knobs bundled — the entry point cache layers
    use so key and compilation can never disagree. *)

val compile :
  ?guardize:bool ->
  ?fold:bool ->
  ?racecheck:bool ->
  ?passes:string ->
  ?engine:Ompir.Compile.engine ->
  Ompir.Ir.kernel ->
  (compiled, Ompir.Check.error list) result
(** [guardize] (default false) applies {!Ompir.Spmdize.guardize} first:
    side-effecting sequential statements of parallel bodies are wrapped in
    guard blocks so the regions become SPMD-safe — the paper's §7 plan for
    SPMDizing parallel regions.  [fold] (default true) runs the
    optimization pipeline before outlining: the spec in [passes] (default
    [""], meaning {!Ompir.Passes.default_pipeline}), applied through
    {!Ompir.Passes.run_verified} so a pass that broke well-formedness
    surfaces as a compile error instead of a miscompile.  [fold:false]
    disables the pipeline entirely.  [racecheck] (default false)
    additionally runs the static ompsan layer ({!Ompir.Racecheck}) on
    the post-pipeline, post-guardize kernel; findings land in
    [may_races] and in {!remarks}.  [engine] (default [Staged]) is
    recorded in the artifact and picks the evaluator {!run} uses.
    @raise Invalid_argument on a malformed [passes] spec; the message
    names [OMPSIMD_PASSES] and the offending item. *)

val remarks : compiled -> string list
(** Human-readable optimization remarks: outlined regions, captured
    payloads, globalized variables, chosen execution modes. *)

val sharing_reservation :
  budget:int ->
  num_threads:int ->
  simd_len:int ->
  Ompir.Outline.program ->
  int
(** The sharing-space bytes {!run} reserves per team (§5.3.1):
    [Globalize.footprint_bytes] times the concurrent-publisher bound
    (one per SIMD group plus the team main), floored at
    {!Omprt.Sharing.min_bytes} and capped at [budget] (the clause or
    default reservation) — shrink-only, so dynamic sizing can reclaim
    shared memory but never introduce fallbacks the budget would have
    avoided.  A launch-time decision, deliberately outside
    {!cache_key}. *)

val run :
  cfg:Gpusim.Config.t ->
  ?pool:Gpusim.Pool.t ->
  ?trace:Gpusim.Trace.t ->
  ?clauses:Clause.t ->
  bindings:(string * Ompir.Eval.binding) list ->
  compiled ->
  Gpusim.Device.report
(** Execute on the device.  Unless the clauses force a parallel mode, each
    region uses its SPMD-ization verdict — SPMD when tightly nested,
    generic otherwise (§3.2), on the evaluator the artifact was compiled
    for.  When the sanitizer is enabled ({!Gpusim.Ompsan.enabled}) the
    returned report carries [sanitizer = Some _] with any dynamic
    findings. *)
