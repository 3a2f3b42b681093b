type ty = Tint | Tfloat

type binop =
  | Add | Sub | Mul | Div | Mod
  | Min | Max
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type unop = Neg | Not | To_float | To_int | Sqrt | Exp | Log | Abs

type expr =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Load of string * expr
  | Load_int of string * expr

type schedule = Sched_static | Sched_chunked of int | Sched_dynamic of int

type stmt =
  | Decl of { name : string; ty : ty; init : expr }
  | Assign of string * expr
  | Store of string * expr * expr
  | Store_int of string * expr * expr
  | Atomic_add of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
  | Distribute_parallel_for of loop_directive
  | Parallel_for of loop_directive
  | Simd of loop_directive
  | Simd_sum of { acc : string; value : expr; dir : loop_directive }
  | Guarded of stmt list
  | Sync

and loop_directive = {
  loop_var : string;
  lo : expr;
  hi : expr;
  body : stmt list;
  fn_id : int;
  sched : schedule;
}

type param_ty = P_farray | P_iarray | P_int | P_float

type param = { pname : string; pty : param_ty }

type kernel = { kname : string; params : param list; body : stmt list }

let kernel ~name ~params body = { kname = name; params; body }

let directive ?(sched = Sched_static) ~var ~lo ~hi body =
  { loop_var = var; lo; hi; body; fn_id = -1; sched }

let simd ~var ~lo ~hi body = Simd (directive ~var ~lo ~hi body)

let simd_sum ~acc ~var ~lo ~hi ~value body =
  Simd_sum { acc; value; dir = directive ~var ~lo ~hi body }

let parallel_for ?sched ~var ~lo ~hi body =
  Parallel_for (directive ?sched ~var ~lo ~hi body)

let distribute_parallel_for ?sched ~var ~lo ~hi body =
  Distribute_parallel_for (directive ?sched ~var ~lo ~hi body)

(* collapse(n): flatten nested rectangular loops into one worksharing
   loop, recovering the source indices by division and modulo — the
   standard lowering. *)
let collapsed_distribute_parallel_for ?sched ~vars body =
  if List.length vars < 2 then
    invalid_arg "Ir.collapsed_distribute_parallel_for: needs >= 2 loops";
  let flat = "__flat" in
  let total =
    List.fold_left
      (fun acc (_, extent) -> Binop (Mul, acc, extent))
      (Int_lit 1) vars
  in
  (* v_i = flat / (prod of inner extents) mod extent_i *)
  let rec decoders rem_vars =
    match rem_vars with
    | [] -> []
    | (var, extent) :: rest ->
        let inner =
          List.fold_left
            (fun acc (_, e) -> Binop (Mul, acc, e))
            (Int_lit 1) rest
        in
        Decl
          {
            name = var;
            ty = Tint;
            init = Binop (Mod, Binop (Div, Var flat, inner), extent);
          }
        :: decoders rest
  in
  Distribute_parallel_for
    (directive ?sched ~var:flat ~lo:(Int_lit 0) ~hi:total
       (decoders vars @ body))

let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( = ) a b = Binop (Eq, a, b)
let i n = Int_lit n
let f x = Float_lit x
let v name = Var name

module Names = Set.Make (String)

let rec expr_vars acc = function
  | Int_lit _ | Float_lit _ -> acc
  | Var name -> Names.add name acc
  | Binop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Unop (_, a) -> expr_vars acc a
  | Load (arr, idx) | Load_int (arr, idx) -> expr_vars (Names.add arr acc) idx

(* Free variables: referenced but not bound by a Decl / loop variable in
   the enclosing statement list. *)
let free_vars stmts =
  let rec go_stmts bound acc stmts =
    let _, acc =
      List.fold_left
        (fun (bound, acc) stmt -> go_stmt bound acc stmt)
        (bound, acc) stmts
    in
    acc
  and use bound acc e =
    Names.fold
      (fun name acc -> if Names.mem name bound then acc else Names.add name acc)
      (expr_vars Names.empty e)
      acc
  and go_stmt bound acc stmt =
    match stmt with
    | Decl { name; init; _ } ->
        let acc = use bound acc init in
        (Names.add name bound, acc)
    | Assign (name, e) ->
        let acc = use bound acc e in
        let acc = if Names.mem name bound then acc else Names.add name acc in
        (bound, acc)
    | Store (arr, idx, value)
    | Store_int (arr, idx, value)
    | Atomic_add (arr, idx, value) ->
        let acc = if Names.mem arr bound then acc else Names.add arr acc in
        let acc = use bound acc idx in
        (bound, use bound acc value)
    | If (cond, then_, else_) ->
        let acc = use bound acc cond in
        let acc = go_stmts bound acc then_ in
        (bound, go_stmts bound acc else_)
    | While (cond, body) ->
        let acc = use bound acc cond in
        (bound, go_stmts bound acc body)
    | For { var; lo; hi; body } ->
        let acc = use bound acc lo in
        let acc = use bound acc hi in
        (bound, go_stmts (Names.add var bound) acc body)
    | Distribute_parallel_for d | Parallel_for d | Simd d ->
        let acc = use bound acc d.lo in
        let acc = use bound acc d.hi in
        (bound, go_stmts (Names.add d.loop_var bound) acc d.body)
    | Simd_sum { acc = acc_name; value; dir = d } ->
        let acc = use bound acc d.lo in
        let acc = use bound acc d.hi in
        let acc =
          if Names.mem acc_name bound then acc else Names.add acc_name acc
        in
        (* the summand runs after the body, in the body's scope *)
        ( bound,
          go_stmts (Names.add d.loop_var bound) acc
            (d.body @ [ Assign (acc_name, value) ]) )
    | Guarded body ->
        (* scope-transparent: declarations inside remain bound after *)
        let bound', acc =
          List.fold_left
            (fun (bound, acc) stmt -> go_stmt bound acc stmt)
            (bound, acc) body
        in
        (bound', acc)
    | Sync -> (bound, acc)
  in
  Names.elements (go_stmts Names.empty Names.empty stmts)

(* --- statement shape ------------------------------------------------------

   The one place that knows which statements have child bodies and which
   expressions a statement owns; every pure walk goes through these. *)

(* [If]'s else body is mapped first: loop positions ([Passes.T_nth]) and
   outlined ids are numbered in this order. *)
let map_bodies f stmt =
  match stmt with
  | If (c, a, b) ->
      let b = f b in
      If (c, f a, b)
  | While (c, body) -> While (c, f body)
  | For r -> For { r with body = f r.body }
  | Distribute_parallel_for d -> Distribute_parallel_for { d with body = f d.body }
  | Parallel_for d -> Parallel_for { d with body = f d.body }
  | Simd d -> Simd { d with body = f d.body }
  | Simd_sum r -> Simd_sum { r with dir = { r.dir with body = f r.dir.body } }
  | Guarded body -> Guarded (f body)
  | Decl _ | Assign _ | Store _ | Store_int _ | Atomic_add _ | Sync -> stmt

let fold_bodies f acc = function
  | If (_, a, b) -> f (f acc a) b
  | While (_, body) | For { body; _ } | Guarded body -> f acc body
  | Distribute_parallel_for d | Parallel_for d | Simd d | Simd_sum { dir = d; _ }
    ->
      f acc d.body
  | Decl _ | Assign _ | Store _ | Store_int _ | Atomic_add _ | Sync -> acc

let fold_exprs f acc = function
  | Decl { init = e; _ } | Assign (_, e) | If (e, _, _) | While (e, _) -> f acc e
  | Store (_, idx, v) | Store_int (_, idx, v) | Atomic_add (_, idx, v) ->
      f (f acc idx) v
  | For { lo; hi; _ }
  | Distribute_parallel_for { lo; hi; _ }
  | Parallel_for { lo; hi; _ }
  | Simd { lo; hi; _ } ->
      f (f acc lo) hi
  | Simd_sum { value; dir; _ } -> f (f (f acc dir.lo) dir.hi) value
  | Guarded _ | Sync -> acc

let loop_var = function
  | For { var; _ } -> Some var
  | Distribute_parallel_for d | Parallel_for d | Simd d | Simd_sum { dir = d; _ }
    ->
      Some d.loop_var
  | Decl _ | Assign _ | Store _ | Store_int _ | Atomic_add _ | If _ | While _
  | Guarded _ | Sync ->
      None

let fold_directives f init stmts =
  let rec go acc stmt = fold_bodies body (f acc stmt) stmt
  and body acc stmts = List.fold_left go acc stmts in
  body init stmts

let exists p stmts =
  let rec go stmt = p stmt || fold_bodies body false stmt
  and body found stmts = found || List.exists go stmts in
  List.exists go stmts
