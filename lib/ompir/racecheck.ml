(* Static may-race analysis (the ompsan compile-time layer).

   The rule mirrors what the dynamic sanitizer observes at runtime: a
   plain (non-atomic) array store executed under workshared or SIMD
   loops whose index is invariant in at least one enclosing parallel
   induction variable may land on the same cell from different lanes of
   that loop.  Reduction accumulators are scalars (never array stores)
   and atomic updates are exempt by construction, so neither is
   flagged.

   Dependence is tracked through scalar [Decl]/[Assign] chains: a
   variable's dependence set is the union of the parallel induction
   variables reachable from its defining expression.  A sequential [For]
   variable inherits the dependence of its bounds — `for k = i*4 ...`
   keeps stores through [k] quiet when [i] is parallel, while a loop
   with invariant bounds contributes nothing (every lane walks the same
   range, so a store indexed only by it still collides).

   The pass is conservative in the may-race direction: depending on a
   parallel induction variable in any way silences the warning for that
   loop, so overlapping-range patterns (`a[i/2]`, `a[i]` with `a[i+1]`)
   can go unreported; a lane-invariant index is never exempted.  The
   differential suite cross-validates the two layers on generated
   kernels. *)

module S = Set.Make (String)

type finding = {
  array : string;  (** array written *)
  site : string;  (** pretty-printed access, e.g. ["store out[0]"] *)
  parallel_vars : string list;
      (** enclosing parallel induction variables, outermost first *)
  reason : string;  (** human-readable explanation *)
}

let pp_finding ppf f =
  Format.fprintf ppf "may-race: %s under %s: %s" f.site
    (String.concat ", " f.parallel_vars)
    f.reason

let finding_to_string f = Format.asprintf "%a" pp_finding f

(* Scalar environment: variable -> set of parallel induction vars its
   value depends on, as a list of frames, innermost first; lookup scans
   outward like the evaluators do. *)
let lookup env name =
  let rec go = function
    | [] -> None
    | frame :: rest -> (
        match List.assoc_opt name frame with
        | Some s -> Some s
        | None -> go rest)
  in
  go env

let rec expr_deps env (e : Ir.expr) =
  match e with
  | Ir.Int_lit _ | Ir.Float_lit _ -> S.empty
  | Ir.Var name -> ( match lookup env name with Some s -> s | None -> S.empty)
  | Ir.Unop (_, a) -> expr_deps env a
  | Ir.Binop (_, a, b) -> S.union (expr_deps env a) (expr_deps env b)
  | Ir.Load (_, idx) | Ir.Load_int (_, idx) ->
      (* a gather through a parallel-indexed table still varies per lane *)
      expr_deps env idx

let bind frame name deps = (name, deps) :: frame

(* [parallel] is the stack of enclosing parallel induction variables,
   outermost first.  [findings] accumulates in reverse source order. *)
let rec check_stmts env ~parallel findings stmts =
  let frame, outer = match env with f :: r -> (f, r) | [] -> ([], []) in
  let _, findings =
    List.fold_left
      (fun (frame, findings) s ->
        check_stmt (frame :: outer) ~parallel findings s)
      (frame, findings) stmts
  in
  findings

and check_store env ~parallel findings ~array ~idx ~label =
  if parallel = [] then findings
  else
    let deps = expr_deps env idx in
    (* the index must vary with EVERY enclosing parallel loop: an index
       invariant in some parallel induction variable is written by every
       lane of that loop *)
    let missing = List.filter (fun v -> not (S.mem v deps)) parallel in
    if missing = [] then findings
    else
      let site = Format.asprintf "%s %s[%a]" label array Printer.pp_expr idx in
      {
        array;
        site;
        parallel_vars = List.rev parallel;
        reason =
          Format.asprintf
            "index is invariant in parallel induction variable%s %s; \
             distinct lanes may write the same element of %s"
            (if List.length missing > 1 then "s" else "")
            (String.concat ", " (List.rev missing))
            array;
      }
      :: findings

and check_directive env ~parallel findings (d : Ir.loop_directive) =
  let deps = S.union (expr_deps env d.Ir.lo) (expr_deps env d.Ir.hi) in
  let frame = bind [] d.Ir.loop_var (S.add d.Ir.loop_var deps) in
  (* A statically single-trip directive assigns every lane the same
     (single) iteration, so its induction variable partitions nothing:
     stores need not depend on it.  This keeps the common trip-1 simd
     broadcast-store idiom out of the report. *)
  let single_trip =
    match (d.Ir.lo, d.Ir.hi) with
    | Ir.Int_lit lo, Ir.Int_lit hi -> hi - lo <= 1
    | _ -> false
  in
  let parallel =
    if single_trip then parallel else d.Ir.loop_var :: parallel
  in
  check_stmts (frame :: env) ~parallel findings d.Ir.body

and check_stmt env ~parallel findings (s : Ir.stmt) :
    (string * S.t) list * finding list =
  let frame = match env with f :: _ -> f | [] -> [] in
  match s with
  | Ir.Decl { name; init; _ } ->
      (bind frame name (expr_deps env init), findings)
  | Ir.Assign (name, e) ->
      (* overwrite wherever the name is visible: record in this frame *)
      (bind frame name (expr_deps env e), findings)
  | Ir.Store (arr, idx, value) ->
      let findings = check_store env ~parallel findings ~array:arr ~idx ~label:"store" in
      ignore value;
      (frame, findings)
  | Ir.Store_int (arr, idx, value) ->
      let findings = check_store env ~parallel findings ~array:arr ~idx ~label:"store" in
      ignore value;
      (frame, findings)
  | Ir.Atomic_add _ -> (frame, findings) (* atomics never race *)
  | Ir.If (_, then_, else_) ->
      let findings = check_stmts ([] :: env) ~parallel findings then_ in
      let findings = check_stmts ([] :: env) ~parallel findings else_ in
      (frame, findings)
  | Ir.While (_, body) ->
      (frame, check_stmts ([] :: env) ~parallel findings body)
  | Ir.For { var; lo; hi; body } ->
      let deps = S.union (expr_deps env lo) (expr_deps env hi) in
      let bframe = bind [] var deps in
      (frame, check_stmts (bframe :: env) ~parallel findings body)
  | Ir.Distribute_parallel_for d | Ir.Parallel_for d | Ir.Simd d ->
      (frame, check_directive env ~parallel findings d)
  | Ir.Simd_sum { acc; value; dir = d } ->
      (* the accumulator is privatized per lane and combined by the
         runtime reduction: the summand expression itself cannot race *)
      let findings = check_directive env ~parallel findings d in
      ignore value;
      (bind frame acc S.empty, findings)
  | Ir.Guarded body ->
      (* one leader per SIMD group executes, but leaders of different
         groups, teams and blocks still run concurrently: the body is
         checked under the same parallel context *)
      (frame, check_stmts ([] :: env) ~parallel findings body)
  | Ir.Sync -> (frame, findings)

let check_kernel (k : Ir.kernel) =
  (* scalar params are lane-invariant: empty dependence sets *)
  let frame =
    List.filter_map
      (fun (p : Ir.param) ->
        match p.Ir.pty with
        | Ir.P_int | Ir.P_float -> Some (p.Ir.pname, S.empty)
        | Ir.P_farray | Ir.P_iarray -> None)
      k.Ir.params
  in
  List.rev (check_stmts [ frame ] ~parallel:[] [] k.Ir.body)
