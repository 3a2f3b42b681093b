(* A statement is innocuous outside a simd loop if it cannot write
   anything observable: declarations and pure control flow are fine,
   stores/atomics are not, and assignments only touch region-local
   declarations (each redundant thread owns its copy). *)
let rec side_effect_free_outside_simd ~locals stmts =
  let stmt locals (s : Ir.stmt) =
    match s with
    | Ir.Decl { name; _ } -> (true, name :: locals)
    | Ir.Assign (name, _) -> (List.mem name locals, locals)
    | Ir.Store _ | Ir.Store_int _ | Ir.Atomic_add _ -> (false, locals)
    | Ir.Sync -> (true, locals)
    | Ir.Simd _ -> (true, locals) (* side effects inside simd are the point *)
    | Ir.Simd_sum { acc; _ } ->
        (* the group total lands in [acc] on the executing threads: safe
           exactly when [acc] is region-local *)
        (List.mem acc locals, locals)
    | Ir.Guarded body ->
        (* guarding is exactly what makes the block SPMD-safe; its
           declarations extend the enclosing scope *)
        let decls =
          List.filter_map
            (function Ir.Decl { name; _ } -> Some name | _ -> None)
            body
        in
        (true, decls @ locals)
    | Ir.Parallel_for _ | Ir.Distribute_parallel_for _ ->
        (* nested parallelism is outside this analysis: stay generic *)
        (false, locals)
    | s ->
        (* pure control flow: safe when every body is *)
        ( Ir.fold_bodies
            (fun ok body -> ok && side_effect_free_outside_simd ~locals body)
            true s,
          locals )
  in
  let ok, _ =
    List.fold_left
      (fun (ok, locals) s ->
        if not ok then (false, locals)
        else
          let ok', locals = stmt locals s in
          (ok && ok', locals))
      (true, locals) stmts
  in
  ok

let directive_mode (d : Ir.loop_directive) =
  if side_effect_free_outside_simd ~locals:[] d.Ir.body then Omprt.Mode.Spmd
  else Omprt.Mode.Generic

let analyze (k : Ir.kernel) =
  Ir.fold_directives
    (fun acc s ->
      match s with
      | Ir.Parallel_for d | Ir.Distribute_parallel_for d ->
          acc @ [ (d.Ir.loop_var, directive_mode d) ]
      | _ -> acc)
    [] k.Ir.body

let all_spmd k =
  List.for_all (fun (_, m) -> m = Omprt.Mode.Spmd) (analyze k)


(* --- guardize: the transform of [16] applied at the parallel level ----

   Wrap every side-effecting statement of a parallel body's sequential
   part in a [Guarded] block, making the region SPMD-safe: the SIMD main
   executes the guarded code once and broadcasts declared values.  Only
   statement runs *outside* simd loops are touched. *)

let contains_directive =
  Ir.exists (function
    | Ir.Simd _ | Ir.Simd_sum _ | Ir.Parallel_for _ | Ir.Distribute_parallel_for _
      ->
        true
    | _ -> false)

let rec is_offender ~locals (s : Ir.stmt) =
  match s with
  | Ir.Store _ | Ir.Store_int _ | Ir.Atomic_add _ -> true
  | Ir.Assign (name, _) -> not (List.mem name locals)
  | Ir.If _ | Ir.While _ | Ir.For _ ->
      (* a control structure is only guardable when no worksharing
         directive hides inside: guarding a simd loop would desynchronize
         its group protocol *)
      (not (contains_directive [ s ]))
      && Ir.fold_bodies
           (fun hit b -> hit || List.exists (is_offender ~locals) b)
           false s
  | _ -> false

let guardize_body body =
  let guards = ref 0 in
  let flush pending acc =
    match pending with
    | [] -> acc
    | run ->
        incr guards;
        Ir.Guarded (List.rev run) :: acc
  in
  let rec go locals pending acc = function
    | [] -> List.rev (flush pending acc)
    | s :: rest ->
        if is_offender ~locals s then go locals (s :: pending) acc rest
        else
          let locals =
            match s with Ir.Decl { name; _ } -> name :: locals | _ -> locals
          in
          go locals [] (s :: flush pending acc) rest
  in
  let result = go [] [] [] body in
  (result, !guards)

let guardize (k : Ir.kernel) =
  let total = ref 0 in
  let guard body =
    let body, n = guardize_body body in
    total := Stdlib.( + ) !total n;
    body
  in
  let rec stmts body = List.map stmt body
  and stmt (s : Ir.stmt) =
    match s with
    | Ir.Parallel_for _ | Ir.Distribute_parallel_for _ -> Ir.map_bodies guard s
    | Ir.Simd _ | Ir.Simd_sum _ | Ir.Guarded _ -> s
    | s -> Ir.map_bodies stmts s
  in
  let body = stmts k.Ir.body in
  ({ k with Ir.body }, !total)
