type compiled = {
  program : Ompir.Outline.program;
  globalization : Ompir.Globalize.report list;
  region_modes : (string * Omprt.Mode.t) list;
  guards_inserted : int;
  may_races : Ompir.Racecheck.finding list;
}

type knobs = {
  guardize : bool;
  fold : bool;
  racecheck : bool;
  passes : string;
}

let default_knobs = { guardize = false; fold = true; racecheck = false; passes = "" }

(* The cache identity of a compilation: the content digest of the IR
   plus every knob that changes what [compile] produces.  The trailing
   [:staged] names the evaluator; there is one, but the suffix stays so
   keys (and every snapshot that prints one) keep their bytes. *)
let cache_key ?(knobs = default_knobs) kernel =
  let passes =
    (* validate eagerly — a malformed spec must fail fast naming the
       knob, not surface later as a compile of something else *)
    ignore (Ompir.Passes.pipeline_of_spec knobs.passes);
    match String.trim knobs.passes with "" -> "default" | s -> s
  in
  Printf.sprintf "%s:g%db%dr%d:p[%s]:staged"
    (Ompir.Kdigest.hex kernel)
    (Bool.to_int knobs.guardize) (Bool.to_int knobs.fold)
    (Bool.to_int knobs.racecheck) passes

let compile ?(guardize = false) ?(fold = true) ?(racecheck = false)
    ?(passes = "") kernel =
  match Ompir.Check.kernel kernel with
  | Error es -> Error es
  | Ok () ->
      let pipeline =
        if not fold then [] else Ompir.Passes.pipeline_of_spec passes
      in
      match Ompir.Passes.run_verified pipeline kernel with
      | Error (_pass, es) -> Error es
      | Ok kernel ->
      let kernel, guards =
        if guardize then Ompir.Spmdize.guardize kernel else (kernel, 0)
      in
      (* the static ompsan layer analyzes the kernel the device will run:
         after folding and guardization, before outlining *)
      let may_races =
        if racecheck then Ompir.Racecheck.check_kernel kernel else []
      in
      let program = Ompir.Outline.run kernel in
      Ok
        {
          program;
          globalization = Ompir.Globalize.run program;
          region_modes = Ompir.Spmdize.analyze kernel;
          guards_inserted = guards;
          may_races;
        }

let compile_with ~knobs kernel =
  compile ~guardize:knobs.guardize ~fold:knobs.fold ~racecheck:knobs.racecheck
    ~passes:knobs.passes kernel

let remarks c =
  let outlined =
    List.map
      (fun (o : Ompir.Outline.outlined) ->
        Printf.sprintf "outlined fn %d (%s over %s): captures [%s]"
          o.Ompir.Outline.fn_id
          (match o.Ompir.Outline.kind with
          | `Simd -> "simd"
          | `Simd_sum -> "simd reduction(+)"
          | `Parallel_for -> "parallel for"
          | `Distribute_parallel_for -> "distribute parallel for")
          o.Ompir.Outline.loop_var
          (String.concat ", " o.Ompir.Outline.captures))
      c.program.Ompir.Outline.outlined
  in
  let globalized =
    List.concat_map
      (fun (r : Ompir.Globalize.report) ->
        List.map
          (fun name ->
            Printf.sprintf
              "fn %d: local %s globalized to shared memory (S4.3)"
              r.Ompir.Globalize.fn_id name)
          r.Ompir.Globalize.globalized)
      c.globalization
  in
  let modes =
    List.map
      (fun (var, mode) ->
        Printf.sprintf "parallel region over %s: %s mode" var
          (Omprt.Mode.to_string mode))
      c.region_modes
  in
  let guards =
    if c.guards_inserted > 0 then
      [
        Printf.sprintf
          "SPMDized with %d guard block(s): side effects execute on SIMD \
           mains and declared values broadcast (S7 / [16])"
          c.guards_inserted;
      ]
    else []
  in
  let races =
    List.map Ompir.Racecheck.finding_to_string c.may_races
  in
  outlined @ globalized @ modes @ guards @ races

(* Dynamic sharing-space sizing (§5.3.1): the globalization pass knows
   the largest payload this kernel will ever publish, and the launch
   geometry bounds how many publishers can hold a slice at once (one per
   SIMD group, plus the team main).  Reserving exactly that — instead of
   the full default slab — frees block shared memory for occupancy.
   Shrink-only: the clause/default budget is never exceeded, so a kernel
   whose payloads outgrow the budget degrades to the same global
   fallbacks it always had.  Sizing is a launch-time decision, not a
   compile-time one: it deliberately stays out of {!cache_key}. *)
let sharing_reservation ~budget ~num_threads ~simd_len program =
  let footprint = Ompir.Globalize.footprint_bytes program in
  let publishers = (num_threads / max 1 simd_len) + 1 in
  max Omprt.Sharing.min_bytes (min budget (footprint * publishers))

(* The sharing-fits rule ([Team.check_sharing]) on the reservation
   [run] would make.  It builds nothing unless it fails: the serve
   fleet asks it at every batch. *)
let check_sharing ~cfg ~clauses c =
  Omprt.Team.check_sharing ~cfg
    ~bytes:
      (sharing_reservation ~budget:(Clause.sharing_bytes_of clauses)
         ~num_threads:(Clause.threads_of clauses)
         ~simd_len:(Clause.simdlen_of clauses) c.program)

(* The launch options [run] hands the evaluator: the clauses resolved
   against the device, with the sharing space sized for this kernel. *)
let options ~cfg ?(clauses = Clause.none) c =
  let params, _, simdlen = Clause.resolve ~cfg clauses in
  {
    Ompir.Compile.num_teams = params.Omprt.Team.num_teams;
    num_threads = params.Omprt.Team.num_threads;
    teams_mode = params.Omprt.Team.teams_mode;
    parallel_mode =
      (match clauses.Clause.parallel_mode with
      | Some m -> `Force m
      | None -> `Auto);
    simd_len = simdlen;
    sharing_bytes =
      sharing_reservation ~budget:params.Omprt.Team.sharing_bytes
        ~num_threads:params.Omprt.Team.num_threads ~simd_len:simdlen c.program;
  }

let run ~cfg ?pool ?trace ?nonce ?clauses ~bindings c =
  Ompir.Compile.run ~cfg ?pool ?trace ?nonce ~options:(options ~cfg ?clauses c)
    ~bindings c.program
