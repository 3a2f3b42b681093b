let rec expr ~var ~by (e : Ir.expr) =
  match e with
  | Ir.Var name when name = var -> by
  | Ir.Var _ | Ir.Int_lit _ | Ir.Float_lit _ -> e
  | Ir.Binop (op, a, b) -> Ir.Binop (op, expr ~var ~by a, expr ~var ~by b)
  | Ir.Unop (op, a) -> Ir.Unop (op, expr ~var ~by a)
  | Ir.Load (arr, idx) -> Ir.Load (arr, expr ~var ~by idx)
  | Ir.Load_int (arr, idx) -> Ir.Load_int (arr, expr ~var ~by idx)

let rec map_exprs ~var f body =
  let rec go = function
    | [] -> []
    | s :: rest -> (
        match s with
        | Ir.Decl { name; ty; init } ->
            let s = Ir.Decl { name; ty; init = f init } in
            if name = var then s :: rest (* shadowed from here on *)
            else s :: go rest
        | Ir.Assign (name, e) -> Ir.Assign (name, f e) :: go rest
        | Ir.Store (arr, idx, value) -> Ir.Store (arr, f idx, f value) :: go rest
        | Ir.Store_int (arr, idx, value) ->
            Ir.Store_int (arr, f idx, f value) :: go rest
        | Ir.Atomic_add (arr, idx, value) ->
            Ir.Atomic_add (arr, f idx, f value) :: go rest
        | Ir.If (cond, a, b) ->
            Ir.If (f cond, map_exprs ~var f a, map_exprs ~var f b) :: go rest
        | Ir.While (cond, b) -> Ir.While (f cond, map_exprs ~var f b) :: go rest
        | Ir.For { var = v; lo; hi; body } ->
            let lo = f lo and hi = f hi in
            let body = if v = var then body else map_exprs ~var f body in
            Ir.For { var = v; lo; hi; body } :: go rest
        | Ir.Distribute_parallel_for d ->
            Ir.Distribute_parallel_for (directive d) :: go rest
        | Ir.Parallel_for d -> Ir.Parallel_for (directive d) :: go rest
        | Ir.Simd d -> Ir.Simd (directive d) :: go rest
        | Ir.Simd_sum { acc; value; dir } ->
            let value = if dir.Ir.loop_var = var then value else f value in
            Ir.Simd_sum { acc; value; dir = directive dir } :: go rest
        | Ir.Guarded body ->
            (* scope-transparent: a Decl of [var] inside shadows the rest *)
            let body' = map_exprs ~var f body in
            let shadows =
              List.exists
                (function Ir.Decl { name; _ } -> name = var | _ -> false)
                body
            in
            if shadows then Ir.Guarded body' :: rest
            else Ir.Guarded body' :: go rest
        | Ir.Sync -> Ir.Sync :: go rest)
  and directive (d : Ir.loop_directive) =
    let lo = f d.Ir.lo and hi = f d.Ir.hi in
    let body =
      if d.Ir.loop_var = var then d.Ir.body else map_exprs ~var f d.Ir.body
    in
    { d with Ir.lo; hi; body }
  in
  go body

let stmts ~var ~by body = map_exprs ~var (expr ~var ~by) body
