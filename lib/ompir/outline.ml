type outlined = {
  fn_id : int;
  kind : [ `Simd | `Simd_sum | `Parallel_for | `Distribute_parallel_for ];
  loop_var : string;
  captures : string list;
}

type program = { kernel : Ir.kernel; outlined : outlined list }

(* [body_vars] are the free variables of the outlined body. *)
let capture_of ~kind ~fn_id ~body_vars (d : Ir.loop_directive) =
  (* The loop variable is rebound by the runtime per iteration; everything
     else the body references must travel in the payload — including the
     variables of the bound expressions, since the outlined task maps the
     normalized iteration number back to the source index. *)
  let module S = Set.Make (String) in
  let bound_vars e = Ir.free_vars [ Ir.Assign ("__sink", e) ] in
  let names =
    S.union (S.of_list body_vars)
      (S.union (S.of_list (bound_vars d.Ir.lo)) (S.of_list (bound_vars d.Ir.hi)))
  in
  let captures =
    S.elements (S.filter (fun n -> n <> d.Ir.loop_var && n <> "__sink") names)
  in
  { fn_id; kind; loop_var = d.Ir.loop_var; captures }

let run (k : Ir.kernel) =
  let counter = ref 0 in
  let acc_ref = ref [] in
  let fresh kind ~body_vars d =
    let fn_id = !counter in
    incr counter;
    acc_ref := capture_of ~kind ~fn_id ~body_vars d :: !acc_ref;
    fn_id
  in
  let rec stmts body = List.map stmt body
  and dir kind (d : Ir.loop_directive) =
    let fn_id = fresh kind ~body_vars:(Ir.free_vars d.Ir.body) d in
    { d with Ir.fn_id; body = stmts d.Ir.body }
  and stmt (s : Ir.stmt) =
    match s with
    | Ir.Distribute_parallel_for d ->
        Ir.Distribute_parallel_for (dir `Distribute_parallel_for d)
    | Ir.Parallel_for d -> Ir.Parallel_for (dir `Parallel_for d)
    | Ir.Simd d -> Ir.Simd (dir `Simd d)
    | Ir.Simd_sum { acc; value; dir = d } as s ->
        (* the summand is part of the outlined body, which [Ir.free_vars]
           scopes; the accumulator stays with the caller *)
        let body_vars = List.filter (fun n -> n <> acc) (Ir.free_vars [ s ]) in
        let fn_id = fresh `Simd_sum ~body_vars d in
        Ir.Simd_sum { acc; value; dir = { d with Ir.fn_id; body = stmts d.Ir.body } }
    | s -> Ir.map_bodies stmts s
  in
  let body = stmts k.Ir.body in
  { kernel = { k with Ir.body }; outlined = List.rev !acc_ref }

let dispatch_table_size p = List.length p.outlined

let find p ~fn_id = List.find (fun o -> o.fn_id = fn_id) p.outlined
