type pass = { name : string; transform : Ir.kernel -> Ir.kernel }

let fold = { name = "fold"; transform = Fold.kernel }

(* --- dead code elimination ---------------------------------------------- *)

module Names = Set.Make (String)

let rec expr_reads acc (e : Ir.expr) =
  match e with
  | Ir.Var name -> Names.add name acc
  | Ir.Int_lit _ | Ir.Float_lit _ -> acc
  | Ir.Binop (_, a, b) -> expr_reads (expr_reads acc a) b
  | Ir.Unop (_, a) -> expr_reads acc a
  | Ir.Load (_, idx) | Ir.Load_int (_, idx) -> expr_reads acc idx

(* All scalar reads anywhere in a statement list. *)
let stmt_list_reads body =
  Ir.fold_directives
    (fun acc (s : Ir.stmt) ->
      let acc =
        match s with
        | Ir.Simd_sum { acc = red_acc; _ } ->
            (* the accumulator is written, not read, but keep it: removing
               the decl would orphan the reduction *)
            Names.add red_acc acc
        | _ -> acc
      in
      Ir.fold_exprs expr_reads acc s)
    Names.empty body

(* Remove Decls and Assigns of scalars that no later statement reads.
   Conservative: a name read anywhere in the enclosing body (even before
   the site) keeps it — loops make flow-sensitive liveness subtle and the
   win does not justify it here. *)
let rec dce_body body =
  let reads = stmt_list_reads body in
  body
  |> List.filter_map (fun (s : Ir.stmt) ->
         match s with
         | Ir.Decl { name; init; _ }
           when (not (Names.mem name reads)) && Fold.is_pure init ->
             None
         | Ir.Assign (name, e)
           when (not (Names.mem name reads)) && Fold.is_pure e ->
             None
         | s -> Some (Ir.map_bodies dce_body s))

let dce =
  {
    name = "dce";
    transform = (fun k -> { k with Ir.body = dce_body k.Ir.body });
  }

(* --- simd unrolling ------------------------------------------------------ *)

(* Unrolling replicates the body as region code, so it is only sound for
   bodies whose replicas are idempotent under SPMD's redundant execution:
   atomics are out. *)
let has_atomic = Ir.exists (function Ir.Atomic_add _ -> true | _ -> false)

(* Freshen the body's declarations per replica so replicas do not collide
   in one scope. *)
let rename_decls ~suffix body =
  let decls =
    List.filter_map
      (function Ir.Decl { name; _ } -> Some name | _ -> None)
      body
  in
  List.fold_left
    (fun body name ->
      let fresh = name ^ suffix in
      Subst.stmts ~var:name ~by:(Ir.Var fresh)
        (List.map
           (fun (s : Ir.stmt) ->
             match s with
             | Ir.Decl { name = n; ty; init } when n = name ->
                 Ir.Decl { name = fresh; ty; init }
             | s -> s)
           body))
    body decls

(* --- targeting mini-language -------------------------------------------- *)

(* OptiTrust-style loop addressing: a transform applies to every loop
   ([T_all]), to loops with a given induction variable ([T_var]), or to
   the [n]th loop in pre-order ([T_nth], 0-based).  Positions count every
   For / Parallel_for / Distribute_parallel_for / Simd / Simd_sum header
   in pre-order (an If's else branch before its then branch, the order
   {!Ir.map_bodies} visits them); replacement statements are not
   revisited, so a transform that rewrites loop [n] leaves later
   positions stable. *)
type target = T_all | T_var of string | T_nth of int

let hits target ~pos ~var =
  match target with
  | T_all -> true
  | T_var v -> String.equal v var
  | T_nth n -> pos = n

(* Pre-order loop walker: [f ~pos ~var stmt] returns [Some replacement]
   to rewrite the loop (children of the replacement are not revisited) or
   [None] to descend.  The position counter threads through the whole
   kernel body. *)
let map_loops f body =
  let pos = ref (-1) in
  let rec stmts body = List.concat_map stmt body
  and stmt (s : Ir.stmt) =
    match Ir.loop_var s with
    | Some var -> (
        incr pos;
        match f ~pos:!pos ~var s with
        | Some replacement -> replacement
        | None -> [ Ir.map_bodies stmts s ])
    | None -> [ Ir.map_bodies stmts s ]
  in
  stmts body

(* --- shared analyses ----------------------------------------------------- *)

(* Scalars assigned anywhere in a body (Assign targets and Simd_sum
   accumulators; Decls are bindings, not mutations). *)
let mutated_in acc body =
  Ir.fold_directives
    (fun acc (s : Ir.stmt) ->
      match s with
      | Ir.Assign (name, _) | Ir.Simd_sum { acc = name; _ } -> Names.add name acc
      | _ -> acc)
    acc body

let rec load_arrays acc (e : Ir.expr) =
  match e with
  | Ir.Load (a, idx) | Ir.Load_int (a, idx) -> load_arrays (Names.add a acc) idx
  | Ir.Binop (_, x, y) -> load_arrays (load_arrays acc x) y
  | Ir.Unop (_, x) -> load_arrays acc x
  | Ir.Int_lit _ | Ir.Float_lit _ | Ir.Var _ -> acc

(* Array names read / written anywhere in a body (atomics count as both). *)
let array_rw body =
  Ir.fold_directives
    (fun (r, w) (s : Ir.stmt) ->
      let r = Ir.fold_exprs load_arrays r s in
      match s with
      | Ir.Store (a, _, _) | Ir.Store_int (a, _, _) -> (r, Names.add a w)
      | Ir.Atomic_add (a, _, _) -> (Names.add a r, Names.add a w)
      | _ -> (r, w))
    (Names.empty, Names.empty) body

let contains_sync = Ir.exists (function Ir.Sync -> true | _ -> false)

(* Assignments to scalars not declared inside the body itself — the
   writes a transform must not duplicate or reorder.  Scope tracking
   mirrors {!Subst}: a Decl binds the rest of its list, loop variables
   bind their bodies, Guarded is scope-transparent.  Simd_sum's
   accumulator counts as an assignment when bound outside. *)
let free_assigns body =
  let rec go bound acc body = snd (List.fold_left stmt (bound, acc) body)
  and stmt (bound, acc) (s : Ir.stmt) =
    match s with
    | Ir.Decl { name; _ } -> (Names.add name bound, acc)
    | Ir.Guarded b -> List.fold_left stmt (bound, acc) b
    | _ ->
        let acc =
          match s with
          | (Ir.Assign (name, _) | Ir.Simd_sum { acc = name; _ })
            when not (Names.mem name bound) ->
              Names.add name acc
          | _ -> acc
        in
        let inner =
          match Ir.loop_var s with
          | Some v -> Names.add v bound
          | None -> bound
        in
        (bound, Ir.fold_bodies (go inner) acc s)
  in
  go Names.empty Names.empty body

let decl_names_anywhere acc body =
  Ir.fold_directives
    (fun acc (s : Ir.stmt) ->
      match s with Ir.Decl { name; _ } -> Names.add name acc | _ -> acc)
    acc body

let top_decl_names body =
  List.fold_left
    (fun acc (s : Ir.stmt) ->
      match s with Ir.Decl { name; _ } -> Names.add name acc | _ -> acc)
    Names.empty body

(* Safe to evaluate speculatively (hoist out of a possibly-zero-trip
   loop): no division or modulo except by a provably nonzero literal,
   and — unless [loads] — no array accesses (an out-of-loop load could
   read an index the loop would never have touched). *)
let rec trap_free ~loads (e : Ir.expr) =
  match e with
  | Ir.Int_lit _ | Ir.Float_lit _ | Ir.Var _ -> true
  | Ir.Binop ((Ir.Div | Ir.Mod), a, b) ->
      (match b with
      | Ir.Int_lit n -> n <> 0
      | Ir.Float_lit f -> f <> 0.0
      | _ -> false)
      && trap_free ~loads a
  | Ir.Binop (_, a, b) -> trap_free ~loads a && trap_free ~loads b
  | Ir.Unop (_, a) -> trap_free ~loads a
  | Ir.Load (_, idx) | Ir.Load_int (_, idx) -> loads && trap_free ~loads idx

(* Every name appearing anywhere in a kernel, for capture-free freshening. *)
let all_names (k : Ir.kernel) =
  let rec expr acc (e : Ir.expr) =
    match e with
    | Ir.Var n -> Names.add n acc
    | Ir.Load (a, idx) | Ir.Load_int (a, idx) -> expr (Names.add a acc) idx
    | Ir.Binop (_, x, y) -> expr (expr acc x) y
    | Ir.Unop (_, x) -> expr acc x
    | Ir.Int_lit _ | Ir.Float_lit _ -> acc
  in
  let stmt acc (s : Ir.stmt) =
    let acc =
      match s with
      | Ir.Decl { name; _ }
      | Ir.Assign (name, _)
      | Ir.Store (name, _, _)
      | Ir.Store_int (name, _, _)
      | Ir.Atomic_add (name, _, _)
      | Ir.Simd_sum { acc = name; _ } ->
          Names.add name acc
      | _ -> acc
    in
    let acc =
      match Ir.loop_var s with Some v -> Names.add v acc | None -> acc
    in
    Ir.fold_exprs expr acc s
  in
  let acc =
    List.fold_left
      (fun acc (p : Ir.param) -> Names.add p.Ir.pname acc)
      Names.empty k.Ir.params
  in
  Ir.fold_directives stmt acc k.Ir.body

(* First-unused-index fresh-name generator over a kernel's name universe. *)
let freshener k =
  let used = ref (all_names k) in
  fun base ->
    let rec try_i i =
      let cand = Printf.sprintf "%s__%d" base i in
      if Names.mem cand !used then try_i (i + 1)
      else begin
        used := Names.add cand !used;
        cand
      end
    in
    if Names.mem base !used then try_i 0
    else begin
      used := Names.add base !used;
      base
    end

let rec fixpoint n f k =
  if n <= 0 then k
  else
    let k' = f k in
    if k' = k then k else fixpoint (n - 1) f k'

(* --- racecheck-preserving combinator ------------------------------------- *)

(* No pass may introduce a may-race finding: run the static racecheck on
   both sides and revert the transform unless the transformed kernel's
   finding set (compared as rendered strings) is a subset of the
   original's.  De-collapsing and strength reduction can defeat the
   conservative dependence analysis and surface pre-existing findings;
   reverting in that case keeps the invariant by construction. *)
let preserving name transform =
  let transform k =
    let k' = transform k in
    if k' = k then k
    else
      let strings kk =
        List.fold_left
          (fun acc f -> Names.add (Racecheck.finding_to_string f) acc)
          Names.empty
          (Racecheck.check_kernel kk)
      in
      if Names.subset (strings k') (strings k) then k' else k
  in
  { name; transform }

(* The most IR nodes one unrolled loop may become: its trip count times
   the weight of its (already unrolled) body.  Trip limits alone multiply
   through literal nests — four nested 32-trip loops unrolled to 6.3M
   nodes, five exhausted memory.  The largest unroll of any shipped
   kernel or test corpus weighs 880, so the budget moves none of them. *)
let unroll_budget = 4096

let fits_budget trip body = trip * Kdigest.body_weight body <= unroll_budget

let unroll ?(max_trip = 8) ?simd_trip ?(target = T_all) () =
  (* Simd replication rewrites parallel structure — the loop's lanes
     become straight region code, changing SPMD verdicts and hiding the
     loop from the sanitizers — so it keeps its own small limit and the
     default pipeline turns it off entirely ([simd_trip = 0]); explicit
     OMPSIMD_PASSES specs get the historical cap. *)
  let simd_trip = match simd_trip with Some n -> n | None -> min max_trip 8 in
  let transform (k : Ir.kernel) =
    let pos = ref (-1) in
    let replicate ~loop_var body (lo, hi) =
      List.concat_map
        (fun iv ->
          let body = rename_decls ~suffix:(Printf.sprintf "__u%d" iv) body in
          Subst.stmts ~var:loop_var ~by:(Ir.Int_lit iv) body)
        (List.init (hi - lo) (fun k -> lo + k))
    in
    let rec stmts body = List.concat_map stmt body
    and stmt (s : Ir.stmt) =
      let on =
        match Ir.loop_var s with
        | Some var ->
            incr pos;
            hits target ~pos:!pos ~var
        | None -> false
      in
      (* Unrolled simd replicas become region code every lane runs:
         atomic replicas would multiply their updates — decline.
         Sequential replication is exact, atomics included — this is what
         makes collapse-produced literal inner loops unrollable. *)
      match Ir.map_bodies stmts s with
      | Ir.Simd { loop_var; lo = Ir.Int_lit lo; hi = Ir.Int_lit hi; body; _ }
        when on && hi - lo >= 1 && hi - lo <= simd_trip
             && (not (has_atomic body))
             && fits_budget (hi - lo) body ->
          replicate ~loop_var body (lo, hi)
      | Ir.For { var; lo = Ir.Int_lit l; hi = Ir.Int_lit h; body }
        when on && h - l >= 1 && h - l <= max_trip && fits_budget (h - l) body ->
          replicate ~loop_var:var body (l, h)
      | s -> [ s ]
    in
    { k with Ir.body = stmts k.Ir.body }
  in
  { name = Printf.sprintf "unroll(%d)" max_trip; transform }

(* --- loop-invariant code motion ------------------------------------------ *)

(* Hoist top-level Decls whose initializer is invariant in the loop out in
   front of it, under a fresh name (the loop's scope may already have the
   original).  Loads hoist only when the trip count is provably positive —
   speculating a load a zero-trip loop never performs could touch an index
   the program never meant to.  A few rounds of the whole-kernel rewrite
   hoist chains of dependent decls and multi-level nests. *)
let licm ?(target = T_all) () =
  let transform (k : Ir.kernel) =
    let fresh = freshener k in
    let hoist_from ~var ~lo ~hi body =
      let trip_positive =
        match (Fold.expr lo, Fold.expr hi) with
        | Ir.Int_lit l, Ir.Int_lit h -> h > l
        | _ -> false
      in
      let muts = Names.add var (mutated_in Names.empty body) in
      let _, written = array_rw body in
      let binds = top_decl_names body in
      let hoistable name init =
        let reads = expr_reads Names.empty init in
        Names.is_empty
          (Names.inter reads (Names.union muts (Names.remove name binds)))
        && (not (Names.mem name muts))
        && trap_free ~loads:trip_positive init
        && Names.is_empty (Names.inter (load_arrays Names.empty init) written)
      in
      let hoisted, rest =
        List.partition_map
          (fun (s : Ir.stmt) ->
            match s with
            | Ir.Decl { name; ty; init } when hoistable name init ->
                Left (name, ty, init)
            | s -> Right s)
          body
      in
      if hoisted = [] then None
      else
        let decls, rest =
          List.fold_left
            (fun (ds, b) (name, ty, init) ->
              let fresh_name = fresh name in
              ( Ir.Decl { name = fresh_name; ty; init } :: ds,
                Subst.stmts ~var:name ~by:(Ir.Var fresh_name) b ))
            ([], rest) hoisted
        in
        Some (List.rev decls, rest)
    in
    let body =
      map_loops
        (fun ~pos ~var s ->
          match s with
          | Ir.For { lo; hi; _ }
          | Ir.Simd { lo; hi; _ }
          | Ir.Parallel_for { lo; hi; _ }
          | Ir.Distribute_parallel_for { lo; hi; _ }
            when hits target ~pos ~var ->
              Ir.fold_bodies (fun _ body -> hoist_from ~var ~lo ~hi body) None s
              |> Option.map (fun (decls, body) ->
                     decls @ [ Ir.map_bodies (fun _ -> body) s ])
          | _ -> None)
        k.Ir.body
    in
    { k with Ir.body = body }
  in
  preserving "licm" (fun k -> fixpoint 3 transform k)

(* --- strength reduction --------------------------------------------------- *)

(* Rewrite [i * stride] recurrences in sequential loops into an
   accumulator initialized to [lo * stride] and bumped by [stride] at the
   end of each iteration — the index-math half of the classic transform.
   Restricted to integer strides (a literal, or an integer parameter) so
   the rewrite is bit-exact; floats would trade a multiplication for a
   rounding-divergent addition chain. *)
let strength_reduce ?(target = T_all) () =
  let transform (k : Ir.kernel) =
    let fresh = freshener k in
    let param_ints =
      List.fold_left
        (fun acc (p : Ir.param) ->
          match p.Ir.pty with
          | Ir.P_int -> Names.add p.Ir.pname acc
          | _ -> acc)
        Names.empty k.Ir.params
    in
    let ok_stride (e : Ir.expr) =
      match e with
      | Ir.Int_lit n -> n <> 0 && n <> 1
      | Ir.Var v -> Names.mem v param_ints
      | _ -> false
    in
    (* every [i * stride] / [stride * i] with an eligible stride *)
    let rec collect_expr i acc (e : Ir.expr) =
      let acc =
        match e with
        | Ir.Binop (Ir.Mul, Ir.Var v, s) when String.equal v i && ok_stride s ->
            if List.mem s acc then acc else s :: acc
        | Ir.Binop (Ir.Mul, s, Ir.Var v) when String.equal v i && ok_stride s ->
            if List.mem s acc then acc else s :: acc
        | _ -> acc
      in
      match e with
      | Ir.Binop (_, a, b) -> collect_expr i (collect_expr i acc a) b
      | Ir.Unop (_, a) | Ir.Load (_, a) | Ir.Load_int (_, a) ->
          collect_expr i acc a
      | Ir.Int_lit _ | Ir.Float_lit _ | Ir.Var _ -> acc
    in
    (* in source order; only run on bodies that do not rebind [i] *)
    let collect_body i body =
      Ir.fold_directives (Ir.fold_exprs (collect_expr i)) [] body
    in
    (* the body must not rebind the induction variable anywhere, or the
       textual replacement could cross a shadowing boundary *)
    let rebinds i body =
      Ir.exists
        (fun (s : Ir.stmt) ->
          match (s, Ir.loop_var s) with
          | Ir.Decl { name = v; _ }, _ | _, Some v -> String.equal v i
          | _, None -> false)
        body
    in
    let body =
      map_loops
        (fun ~pos ~var s ->
          match s with
          | Ir.For { var = i; lo; hi; body }
            when hits target ~pos ~var
                 && (not (rebinds i body))
                 && trap_free ~loads:false lo -> (
              match List.rev (collect_body i body) with
              | [] -> None
              | strides ->
                  let strides =
                    List.filteri (fun idx _ -> idx < 4) strides
                  in
                  let decls, body =
                    List.fold_left
                      (fun (ds, body) stride ->
                        let a = fresh (i ^ "_sr") in
                        let rec replace (e : Ir.expr) =
                          match e with
                          | Ir.Binop (Ir.Mul, Ir.Var v, s)
                            when String.equal v i && s = stride ->
                              Ir.Var a
                          | Ir.Binop (Ir.Mul, s, Ir.Var v)
                            when String.equal v i && s = stride ->
                              Ir.Var a
                          | Ir.Binop (op, x, y) ->
                              Ir.Binop (op, replace x, replace y)
                          | Ir.Unop (op, x) -> Ir.Unop (op, replace x)
                          | Ir.Load (arr, x) -> Ir.Load (arr, replace x)
                          | Ir.Load_int (arr, x) -> Ir.Load_int (arr, replace x)
                          | Ir.Int_lit _ | Ir.Float_lit _ | Ir.Var _ -> e
                        in
                        let body = Subst.map_exprs ~var:i replace body in
                        let body =
                          body
                          @ [ Ir.Assign (a, Ir.Binop (Ir.Add, Ir.Var a, stride)) ]
                        in
                        ( Ir.Decl
                            {
                              name = a;
                              ty = Ir.Tint;
                              init = Fold.expr (Ir.Binop (Ir.Mul, lo, stride));
                            }
                          :: ds,
                          body ))
                      ([], body) strides
                  in
                  Some (List.rev decls @ [ Ir.For { var = i; lo; hi; body } ]))
          | _ -> None)
        k.Ir.body
    in
    { k with Ir.body = body }
  in
  preserving "strength" (fun k -> fixpoint 3 transform k)

(* --- collapse de-flattening ----------------------------------------------- *)

(* Recognize the div/mod decoder prologue {!Ir.collapsed_distribute_parallel_for}
   emits (before or after constant folding) and rebuild the explicit
   rectangular nest: the outermost recovered index becomes the parallel
   dimension, the rest become plain [For] loops — no division or modulo
   left on the hot path. *)
let collapse ?(target = T_all) () =
  let transform (k : Ir.kernel) =
    let body =
      map_loops
        (fun ~pos ~var s ->
          if not (hits target ~pos ~var) then None
          else
            let try_dir rebuild (d : Ir.loop_directive) =
              let fv = d.Ir.loop_var in
              if Fold.expr d.Ir.lo <> Ir.Int_lit 0 then None
              else
                (* peel leading decoder Decls: v = flat / inner mod extent *)
                let factor_out hi inner =
                  (* hi = extent * inner (either operand order),
                     structurally after folding *)
                  match hi with
                  | Ir.Binop (Ir.Mul, a, b) when b = inner -> Some a
                  | Ir.Binop (Ir.Mul, a, b) when a = inner -> Some b
                  | _ -> None
                in
                let rec peel acc body =
                  match (body : Ir.stmt list) with
                  | Ir.Decl { name; ty = Ir.Tint; init } :: rest -> (
                      match Fold.expr init with
                      | Ir.Binop
                          (Ir.Mod, Ir.Binop (Ir.Div, Ir.Var v, inner), extent)
                        when String.equal v fv ->
                          peel ((name, inner, extent) :: acc) rest
                      | Ir.Binop (Ir.Mod, Ir.Var v, extent)
                        when String.equal v fv ->
                          peel ((name, Ir.Int_lit 1, extent) :: acc) rest
                      | Ir.Binop (Ir.Div, Ir.Var v, inner)
                        when String.equal v fv && acc = [] -> (
                          (* the outermost decoder needs no [mod] when the
                             flat bound is exact, so hand-collapsed sources
                             (and clang's collapse lowering) write it as a
                             bare division — recover its extent by peeling
                             the divisor off the flat bound *)
                          match
                            factor_out (Fold.expr d.Ir.hi) (Fold.expr inner)
                          with
                          | Some extent -> peel [ (name, inner, extent) ] rest
                          | None -> (List.rev acc, body))
                      | _ -> (List.rev acc, body))
                  | _ -> (List.rev acc, body)
                in
                let decoders, rest = peel [] d.Ir.body in
                if List.length decoders < 2 then None
                else
                  let extents = List.map (fun (_, _, e) -> e) decoders in
                  let product es =
                    Fold.expr
                      (List.fold_left
                         (fun acc e -> Ir.Binop (Ir.Mul, acc, e))
                         (Ir.Int_lit 1) es)
                  in
                  (* each decoder's divisor must be the product of the
                     extents inner to it, and the flat bound the product
                     of all of them *)
                  let rec inners_ok = function
                    | [] -> true
                    | (_, inner, _) :: rest_d ->
                        Fold.expr inner
                        = product (List.map (fun (_, _, e) -> e) rest_d)
                        && inners_ok rest_d
                  in
                  let vars = List.map (fun (v, _, _) -> v) decoders in
                  let var_set = Names.of_list vars in
                  let rest_reads = stmt_list_reads rest in
                  let rest_muts = mutated_in Names.empty rest in
                  let _, rest_written = array_rw rest in
                  let extent_ok e =
                    let reads = expr_reads Names.empty e in
                    Names.is_empty (Names.inter reads var_set)
                    && Names.is_empty (Names.inter reads rest_muts)
                    && Names.is_empty
                         (Names.inter (load_arrays Names.empty e) rest_written)
                  in
                  if
                    inners_ok decoders
                    && Fold.expr d.Ir.hi = product extents
                    && (not (Names.mem fv rest_reads))
                    && List.for_all extent_ok extents
                    && Names.is_empty (Names.inter var_set rest_muts)
                    && Names.is_empty
                         (Names.inter var_set (decl_names_anywhere Names.empty rest))
                  then
                    match decoders with
                    | (v1, _, e1) :: inner_decoders ->
                        let nest =
                          List.fold_right
                            (fun (v, _, e) inner_body ->
                              [
                                Ir.For
                                  {
                                    var = v;
                                    lo = Ir.Int_lit 0;
                                    hi = e;
                                    body = inner_body;
                                  };
                              ])
                            inner_decoders rest
                        in
                        Some
                          [
                            rebuild
                              {
                                d with
                                Ir.loop_var = v1;
                                Ir.lo = Ir.Int_lit 0;
                                Ir.hi = e1;
                                Ir.body = nest;
                              };
                          ]
                    | [] -> None
                  else None
            in
            match s with
            | Ir.Distribute_parallel_for d ->
                try_dir (fun d -> Ir.Distribute_parallel_for d) d
            | Ir.Parallel_for d -> try_dir (fun d -> Ir.Parallel_for d) d
            | _ -> None)
        k.Ir.body
    in
    { k with Ir.body = body }
  in
  preserving "collapse" transform

(* --- loop interchange ------------------------------------------------------ *)

(* Swap a perfect sequential 2-nest.  Sound when iterations are provably
   independent: the body only declares locals and stores through affine
   row-major indices [outer*w + inner] with the inner range a literal
   subrange of [0, w) — distinct iterations then hit distinct cells, so
   any execution order produces the same memory. *)
let interchange ?(target = T_all) () =
  let transform (k : Ir.kernel) =
    let affine_ok ~outer ~inner idx =
      match Fold.expr idx with
      | Ir.Binop (Ir.Add, Ir.Binop (Ir.Mul, Ir.Var a, Ir.Int_lit w), Ir.Var b)
      | Ir.Binop (Ir.Add, Ir.Binop (Ir.Mul, Ir.Int_lit w, Ir.Var a), Ir.Var b)
        when String.equal a outer && String.equal b inner && w > 0 ->
          Some w
      | _ -> None
    in
    let body =
      map_loops
        (fun ~pos ~var s ->
          match s with
          | Ir.For
              {
                var = i;
                lo = ilo;
                hi = ihi;
                body = [ Ir.For { var = j; lo = jlo; hi = jhi; body } ];
              }
            when hits target ~pos ~var -> (
              let bounds_ok =
                List.for_all (trap_free ~loads:false) [ ilo; ihi; jlo; jhi ]
                && (not (Names.mem i (expr_reads Names.empty jlo)))
                && not (Names.mem i (expr_reads Names.empty jhi))
              in
              let jrange =
                match (Fold.expr jlo, Fold.expr jhi) with
                | Ir.Int_lit l, Ir.Int_lit h when l >= 0 -> Some (l, h)
                | _ -> None
              in
              let r, w = array_rw body in
              let rec stores_ok stmts =
                List.for_all
                  (fun (st : Ir.stmt) ->
                    match st with
                    | Ir.Decl _ | Ir.Assign _ -> true
                    | Ir.Store (_, idx, _) | Ir.Store_int (_, idx, _) -> (
                        match (affine_ok ~outer:i ~inner:j idx, jrange) with
                        | Some width, Some (_, h) -> h <= width
                        | _ -> false)
                    | Ir.If (_, a, b) -> stores_ok a && stores_ok b
                    | _ -> false)
                  stmts
              in
              match jrange with
              | Some _
                when bounds_ok
                     && Names.is_empty (Names.inter r w)
                     && Names.is_empty (free_assigns body)
                     && (not (has_atomic body))
                     && (not (contains_sync body))
                     && stores_ok body ->
                  Some
                    [
                      Ir.For
                        {
                          var = j;
                          lo = jlo;
                          hi = jhi;
                          body =
                            [ Ir.For { var = i; lo = ilo; hi = ihi; body } ];
                        };
                    ]
              | _ -> None)
          | _ -> None)
        k.Ir.body
    in
    { k with Ir.body = body }
  in
  preserving "interchange" transform

(* --- loop fusion ----------------------------------------------------------- *)

(* Fuse adjacent loops over the same iteration space.  The second body is
   renamed apart, checked for independence — the first loop's writes must
   not feed the second's reads or overlap its writes, and vice versa, or
   interleaving the iterations would let one loop observe the other's
   partial progress — then concatenated with its induction variable
   mapped onto the first's.  Chains fuse: the result is reconsidered
   against the next statement. *)
let fuse ?(target = T_all) () =
  let transform (k : Ir.kernel) =
    let pos = ref (-1) in
    let fcount = ref 0 in
    let can_fuse ~v1 ~b1 ~v2 ~b2' =
      let r1, w1 = array_rw b1 in
      let r2, w2 = array_rw b2' in
      let reads2 = stmt_list_reads b2' in
      Names.is_empty (Names.inter w1 (Names.union r2 w2))
      && Names.is_empty (Names.inter w2 r1)
      && (not (contains_sync b1))
      && (not (contains_sync b2'))
      && Names.is_empty (free_assigns b1)
      && Names.is_empty (free_assigns b2')
      && Names.is_empty (Names.inter (top_decl_names b1) reads2)
      && (String.equal v1 v2
         || (not (Names.mem v1 reads2))
            && not (Names.mem v1 (decl_names_anywhere Names.empty b2')))
    in
    let fuse_bodies ~v1 ~b1 ~v2 ~b2 =
      incr fcount;
      let b2' = rename_decls ~suffix:(Printf.sprintf "__f%d" !fcount) b2 in
      if not (can_fuse ~v1 ~b1 ~v2 ~b2') then None
      else
        let b2' =
          if String.equal v1 v2 then b2'
          else Subst.stmts ~var:v2 ~by:(Ir.Var v1) b2'
        in
        Some (b1 @ b2')
    in
    let same_bounds lo1 hi1 lo2 hi2 =
      Fold.expr lo1 = Fold.expr lo2 && Fold.expr hi1 = Fold.expr hi2
    in
    let rec stmts (body : Ir.stmt list) =
      match body with
      | Ir.Simd d1 :: Ir.Simd d2 :: rest
        when hits target ~pos:(!pos + 1) ~var:d1.Ir.loop_var
             && same_bounds d1.Ir.lo d1.Ir.hi d2.Ir.lo d2.Ir.hi
             && d1.Ir.sched = d2.Ir.sched -> (
          match
            fuse_bodies ~v1:d1.Ir.loop_var ~b1:d1.Ir.body ~v2:d2.Ir.loop_var
              ~b2:d2.Ir.body
          with
          | Some body -> stmts (Ir.Simd { d1 with Ir.body = body } :: rest)
          | None -> descend (Ir.Simd d1) :: stmts (Ir.Simd d2 :: rest))
      | Ir.For { var = v1; lo = lo1; hi = hi1; body = b1 }
        :: Ir.For { var = v2; lo = lo2; hi = hi2; body = b2 }
        :: rest
        when hits target ~pos:(!pos + 1) ~var:v1
             && same_bounds lo1 hi1 lo2 hi2 -> (
          match fuse_bodies ~v1 ~b1 ~v2 ~b2 with
          | Some body ->
              stmts (Ir.For { var = v1; lo = lo1; hi = hi1; body } :: rest)
          | None ->
              descend (Ir.For { var = v1; lo = lo1; hi = hi1; body = b1 })
              :: stmts
                   (Ir.For { var = v2; lo = lo2; hi = hi2; body = b2 } :: rest))
      | s :: rest -> descend s :: stmts rest
      | [] -> []
    and descend (s : Ir.stmt) =
      if Option.is_some (Ir.loop_var s) then incr pos;
      Ir.map_bodies stmts s
    in
    { k with Ir.body = stmts k.Ir.body }
  in
  preserving "fuse" transform

(* --- tiling to warp width -------------------------------------------------- *)

let warp_width = 32

(* Split a simd loop into warp-width tiles: an outer sequential loop over
   tiles with an inner simd loop of at most [width] iterations, so each
   round maps one-to-one onto a full warp.  Bounds are snapshotted into
   fresh scalars so re-evaluating them per tile cannot observe the body's
   stores.  Literal trips at or under the width are left alone — they
   already fit one round. *)
let tile ?(width = warp_width) ?(target = T_all) () =
  if width <= 0 then invalid_arg "Passes.tile: width must be positive";
  let transform (k : Ir.kernel) =
    let fresh = freshener k in
    let already_tiled (lo : Ir.expr) =
      match lo with
      | Ir.Binop (Ir.Add, Ir.Var _, Ir.Binop (Ir.Mul, Ir.Var _, Ir.Int_lit w))
        ->
          w = width
      | _ -> false
    in
    let body =
      map_loops
        (fun ~pos ~var s ->
          match s with
          | Ir.Simd d
            when hits target ~pos ~var
                 && (not (has_atomic d.Ir.body))
                 && (not (already_tiled d.Ir.lo))
                 &&
                 match (Fold.expr d.Ir.lo, Fold.expr d.Ir.hi) with
                 | Ir.Int_lit l, Ir.Int_lit h -> h - l > width
                 | _ -> true ->
              let v = d.Ir.loop_var in
              let lo_n = fresh (v ^ "_lo") in
              let hi_n = fresh (v ^ "_hi") in
              let tiles_n = fresh (v ^ "_tiles") in
              let t = fresh (v ^ "_t") in
              let wm1 = width - 1 in
              let open Ir in
              Some
                [
                  Decl { name = lo_n; ty = Tint; init = d.lo };
                  Decl { name = hi_n; ty = Tint; init = d.hi };
                  Decl
                    {
                      name = tiles_n;
                      ty = Tint;
                      init =
                        Binop
                          ( Div,
                            Binop
                              ( Add,
                                Binop (Sub, Var hi_n, Var lo_n),
                                Int_lit wm1 ),
                            Int_lit width );
                    };
                  For
                    {
                      var = t;
                      lo = Int_lit 0;
                      hi = Var tiles_n;
                      body =
                        [
                          Simd
                            {
                              d with
                              lo =
                                Binop
                                  ( Add,
                                    Var lo_n,
                                    Binop (Mul, Var t, Int_lit width) );
                              hi =
                                Binop
                                  ( Min,
                                    Var hi_n,
                                    Binop
                                      ( Add,
                                        Var lo_n,
                                        Binop
                                          ( Mul,
                                            Binop (Add, Var t, Int_lit 1),
                                            Int_lit width ) ) );
                            };
                        ];
                    };
                ]
          | _ -> None)
        k.Ir.body
    in
    { k with Ir.body = body }
  in
  preserving (Printf.sprintf "tile(%d)" width) transform

(* --- auto-SPMDization upgrade ---------------------------------------------- *)

(* When the static racecheck proves nothing suspicious and some region
   still falls back to generic mode, apply {!Spmdize.guardize}: the
   sequential side effects get wrapped in Guarded blocks and every region
   becomes SPMD — the tier-2 counterpart of the paper's §7 plan. *)
let spmdize_upgrade =
  {
    name = "spmdize";
    transform =
      (fun k ->
        if Racecheck.check_kernel k = [] && not (Spmdize.all_spmd k) then
          fst (Spmdize.guardize k)
        else k);
  }

let default_pipeline =
  [ fold; unroll ~max_trip:warp_width ~simd_trip:0 (); dce ]

(* --- pipeline specs (OMPSIMD_PASSES) --------------------------------------- *)

let known_passes =
  [
    "fold"; "dce"; "unroll"; "licm"; "strength"; "collapse"; "interchange";
    "fuse"; "tile"; "spmdize";
  ]

let target_of_string spec s =
  if s = "" then
    invalid_arg
      (Printf.sprintf "OMPSIMD_PASSES: empty target in %S (use pass@var or pass@#n)" spec)
  else if s.[0] = '#' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n when n >= 0 -> T_nth n
    | _ ->
        invalid_arg
          (Printf.sprintf
             "OMPSIMD_PASSES: bad loop position %S in %S (want #<non-negative int>)"
             s spec)
  else T_var s

let pass_of_spec item =
  let base, target =
    match String.index_opt item '@' with
    | None -> (item, T_all)
    | Some i ->
        ( String.sub item 0 i,
          target_of_string item
            (String.sub item (i + 1) (String.length item - i - 1)) )
  in
  let name, arg =
    match String.index_opt base ':' with
    | None -> (base, None)
    | Some i -> (
        let a = String.sub base (i + 1) (String.length base - i - 1) in
        match int_of_string_opt a with
        | Some n when n > 0 -> (String.sub base 0 i, Some n)
        | _ ->
            invalid_arg
              (Printf.sprintf
                 "OMPSIMD_PASSES: bad argument %S for pass %S (want a positive int)"
                 a item))
  in
  let no_arg p =
    match arg with
    | None -> p
    | Some _ ->
        invalid_arg
          (Printf.sprintf "OMPSIMD_PASSES: pass %S takes no argument" name)
  in
  let no_target p =
    match target with
    | T_all -> p
    | _ ->
        invalid_arg
          (Printf.sprintf "OMPSIMD_PASSES: pass %S takes no target" name)
  in
  match name with
  | "fold" -> no_arg (no_target fold)
  | "dce" -> no_arg (no_target dce)
  | "spmdize" -> no_arg (no_target spmdize_upgrade)
  (* spec-language unroll is the structure-preserving variant: simd
     replication erases parallel structure, so it stays API-only and the
     default pipeline is expressible as a spec (fold,unroll:32,dce) *)
  | "unroll" -> unroll ?max_trip:arg ~simd_trip:0 ~target ()
  | "licm" -> no_arg (licm ~target ())
  | "strength" -> no_arg (strength_reduce ~target ())
  | "collapse" -> no_arg (collapse ~target ())
  | "interchange" -> no_arg (interchange ~target ())
  | "fuse" -> no_arg (fuse ~target ())
  | "tile" -> tile ?width:arg ~target ()
  | "" -> invalid_arg "OMPSIMD_PASSES: empty pass name"
  | _ ->
      invalid_arg
        (Printf.sprintf "OMPSIMD_PASSES: unknown pass %S (known: %s)" name
           (String.concat ", " known_passes))

let pipeline_of_spec spec =
  match String.trim spec with
  | "" | "default" -> default_pipeline
  | "none" -> []
  | spec ->
      String.split_on_char ',' spec
      |> List.map (fun item ->
             let item = String.trim item in
             if item = "" then
               invalid_arg
                 (Printf.sprintf "OMPSIMD_PASSES: empty pass name in %S" spec)
             else pass_of_spec item)

let run passes kernel =
  List.fold_left (fun k p -> p.transform k) kernel passes

let run_verified passes kernel =
  List.fold_left
    (fun acc p ->
      match acc with
      | Error _ as e -> e
      | Ok k -> (
          let k = p.transform k in
          match Check.kernel k with
          | Ok () -> Ok k
          | Error es -> Error (p.name, es)))
    (Ok kernel) passes
