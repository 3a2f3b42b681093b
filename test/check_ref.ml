(* Reference checker: {!Ompir.Check} as it stood with assoc-list
   scopes, where every lookup scans the names in scope (quadratic on
   kernels that declare a local per statement, but obviously faithful
   to the scoping rules).  The keyed checker is certified against it
   in [Test_frontend]: equal verdicts and equal error lists, in order. *)

module Ir = Ompir.Ir

type error = Ompir.Check.error = { where : string; what : string }

type env = {
  params : (string * Ir.param_ty) list;
  locals : (string * Ir.ty) list;  (** innermost first *)
  loop_vars : string list;
}

let scalar_param_ty = function
  | Ir.P_int -> Some Ir.Tint
  | Ir.P_float -> Some Ir.Tfloat
  | Ir.P_farray | Ir.P_iarray -> None

let lookup_var env name =
  match List.assoc_opt name env.locals with
  | Some ty -> Ok ty
  | None -> (
      if List.mem name env.loop_vars then Ok Ir.Tint
      else
        match List.assoc_opt name env.params with
        | Some pty -> (
            match scalar_param_ty pty with
            | Some ty -> Ok ty
            | None ->
                Error
                  (Printf.sprintf "%s is an array parameter used as a scalar"
                     name))
        | None -> Error (Printf.sprintf "unbound variable %s" name))

let rec type_of env (e : Ir.expr) =
  match e with
  | Ir.Int_lit _ -> Ok Ir.Tint
  | Ir.Float_lit _ -> Ok Ir.Tfloat
  | Ir.Var name -> lookup_var env name
  | Ir.Load (arr, idx) -> array_ref env ~arr ~idx ~expect:Ir.P_farray Ir.Tfloat
  | Ir.Load_int (arr, idx) -> array_ref env ~arr ~idx ~expect:Ir.P_iarray Ir.Tint
  | Ir.Unop (op, a) -> (
      match type_of env a with
      | Error _ as e -> e
      | Ok ty -> (
          match op with
          | Ir.Neg -> Ok ty
          | Ir.Not -> if ty = Ir.Tint then Ok Ir.Tint else Error "not on float"
          | Ir.To_float -> Ok Ir.Tfloat
          | Ir.To_int -> Ok Ir.Tint
          | Ir.Sqrt | Ir.Exp | Ir.Log ->
              if ty = Ir.Tfloat then Ok Ir.Tfloat
              else Error "math intrinsic on int"
          | Ir.Abs -> Ok ty))
  | Ir.Binop (op, a, b) -> (
      match (type_of env a, type_of env b) with
      | Ok ta, Ok tb ->
          if ta <> tb then Error "operand types differ"
          else (
            match op with
            | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Min | Ir.Max -> Ok ta
            | Ir.Mod ->
                if ta = Ir.Tint then Ok Ir.Tint else Error "mod on float"
            | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne -> Ok Ir.Tint
            | Ir.And | Ir.Or ->
                if ta = Ir.Tint then Ok Ir.Tint
                else Error "logic op on float")
      | (Error _ as e), _ | _, (Error _ as e) -> e)

and array_ref env ~arr ~idx ~expect result_ty =
  match List.assoc_opt arr env.params with
  | None -> Error (Printf.sprintf "unknown array %s" arr)
  | Some pty when pty <> expect ->
      Error (Printf.sprintf "array %s has the wrong element kind" arr)
  | Some _ -> (
      match type_of env idx with
      | Ok Ir.Tint -> Ok result_ty
      | Ok Ir.Tfloat -> Error (Printf.sprintf "index of %s is not an int" arr)
      | Error _ as e -> e)

let expr_type ~params ~locals e =
  type_of { params; locals; loop_vars = [] } e

type position =
  | Region_level
  | Inside_parallel
  | Inside_simd of (string * Ir.ty) list
      (* the locals visible at simd entry: assigning one of those from the
         outlined body would race the sharing protocol *)
  | Inside_guard of (string * Ir.ty) list
      (* locals visible at guard entry: only the SIMD main executes the
         block, so assigning an outer local would leave the other lanes'
         copies stale (declarations broadcast instead) *)

let kernel (k : Ir.kernel) =
  let errors = ref [] in
  let report where what = errors := { where; what } :: !errors in
  let check_expr_is env ~where ~want e =
    match type_of env e with
    | Ok ty when ty = want -> ()
    | Ok _ -> report where "wrong type"
    | Error what -> report where what
  in
  (* duplicate parameter names *)
  let () =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (p : Ir.param) ->
        if Hashtbl.mem seen p.Ir.pname then
          report p.Ir.pname "duplicate parameter"
        else Hashtbl.add seen p.Ir.pname ())
      k.Ir.params
  in
  let params = List.map (fun (p : Ir.param) -> (p.Ir.pname, p.Ir.pty)) k.Ir.params in
  let rec stmts env ~position ~scope_names body =
    ignore
      (List.fold_left
         (fun (env, scope_names) s -> stmt env ~position ~scope_names s)
         (env, scope_names) body)
  and directive_ok env ~position ~where (d : Ir.loop_directive) expected_pos =
    if position <> expected_pos then
      report where "worksharing directive in an illegal position";
    (match d.Ir.sched with
    | Ir.Sched_chunked n | Ir.Sched_dynamic n ->
        if n <= 0 then report where "schedule chunk must be positive"
    | Ir.Sched_static -> ());
    check_expr_is env ~where ~want:Ir.Tint d.Ir.lo;
    check_expr_is env ~where ~want:Ir.Tint d.Ir.hi
  and stmt env ~position ~scope_names (s : Ir.stmt) =
    match s with
    | Ir.Decl { name; ty; init } ->
        let where = "decl " ^ name in
        if List.mem name scope_names then report where "duplicate declaration";
        if List.mem_assoc name env.params then
          report where "shadows a parameter";
        check_expr_is env ~where ~want:ty init;
        ({ env with locals = (name, ty) :: env.locals }, name :: scope_names)
    | Ir.Assign (name, e) ->
        let where = "assign " ^ name in
        if List.mem name env.loop_vars then
          report where "assignment to a loop variable";
        (match lookup_var env name with
        | Error what -> report where what
        | Ok ty -> check_expr_is env ~where ~want:ty e);
        (match position with
        | Inside_simd outer when List.mem_assoc name outer ->
            report where
              "simd body assigns a captured scalar (sharing is one-directional)"
        | Inside_guard outer when List.mem_assoc name outer ->
            report where
              "guarded block assigns an outer local (declare and broadcast instead)"
        | Inside_simd _ | Inside_guard _ | Region_level | Inside_parallel -> ());
        (env, scope_names)
    | Ir.Store (arr, idx, value) ->
        let where = "store " ^ arr in
        (match array_ref env ~arr ~idx ~expect:Ir.P_farray Ir.Tfloat with
        | Ok _ -> ()
        | Error what -> report where what);
        check_expr_is env ~where ~want:Ir.Tfloat value;
        (env, scope_names)
    | Ir.Store_int (arr, idx, value) ->
        let where = "store " ^ arr in
        (match array_ref env ~arr ~idx ~expect:Ir.P_iarray Ir.Tint with
        | Ok _ -> ()
        | Error what -> report where what);
        check_expr_is env ~where ~want:Ir.Tint value;
        (env, scope_names)
    | Ir.Atomic_add (arr, idx, value) ->
        let where = "atomic " ^ arr in
        (match array_ref env ~arr ~idx ~expect:Ir.P_farray Ir.Tfloat with
        | Ok _ -> ()
        | Error what -> report where what);
        check_expr_is env ~where ~want:Ir.Tfloat value;
        (env, scope_names)
    | Ir.If (cond, then_, else_) ->
        check_expr_is env ~where:"if" ~want:Ir.Tint cond;
        stmts env ~position ~scope_names:[] then_;
        stmts env ~position ~scope_names:[] else_;
        (env, scope_names)
    | Ir.While (cond, body) ->
        check_expr_is env ~where:"while" ~want:Ir.Tint cond;
        stmts env ~position ~scope_names:[] body;
        (env, scope_names)
    | Ir.For { var; lo; hi; body } ->
        check_expr_is env ~where:("for " ^ var) ~want:Ir.Tint lo;
        check_expr_is env ~where:("for " ^ var) ~want:Ir.Tint hi;
        stmts
          { env with loop_vars = var :: env.loop_vars }
          ~position ~scope_names:[] body;
        (env, scope_names)
    | Ir.Distribute_parallel_for d ->
        let where = "distribute parallel for " ^ d.Ir.loop_var in
        directive_ok env ~position ~where d Region_level;
        stmts
          { env with loop_vars = d.Ir.loop_var :: env.loop_vars }
          ~position:Inside_parallel ~scope_names:[] d.Ir.body;
        (env, scope_names)
    | Ir.Parallel_for d ->
        let where = "parallel for " ^ d.Ir.loop_var in
        directive_ok env ~position ~where d Region_level;
        stmts
          { env with loop_vars = d.Ir.loop_var :: env.loop_vars }
          ~position:Inside_parallel ~scope_names:[] d.Ir.body;
        (env, scope_names)
    | Ir.Simd d ->
        let where = "simd " ^ d.Ir.loop_var in
        (if position <> Inside_parallel then
           report where "worksharing directive in an illegal position");
        check_expr_is env ~where ~want:Ir.Tint d.Ir.lo;
        check_expr_is env ~where ~want:Ir.Tint d.Ir.hi;
        stmts
          { env with loop_vars = d.Ir.loop_var :: env.loop_vars }
          ~position:(Inside_simd env.locals) ~scope_names:[] d.Ir.body;
        (env, scope_names)
    | Ir.Simd_sum { acc; value; dir = d } ->
        let where = "simd reduction " ^ acc in
        (if position <> Inside_parallel then
           report where "worksharing directive in an illegal position");
        check_expr_is env ~where ~want:Ir.Tint d.Ir.lo;
        check_expr_is env ~where ~want:Ir.Tint d.Ir.hi;
        (* the accumulator must be an assignable float in the region scope *)
        (match lookup_var env acc with
        | Ok Ir.Tfloat -> ()
        | Ok Ir.Tint -> report where "reduction accumulator must be a float"
        | Error what -> report where what);
        if List.mem acc env.loop_vars then
          report where "reduction into a loop variable";
        (* the body and summand see the loop variable; the summand is
           checked in an environment extended with the body's declarations *)
        let inner =
          { env with loop_vars = d.Ir.loop_var :: env.loop_vars }
        in
        stmts inner ~position:(Inside_simd env.locals) ~scope_names:[]
          d.Ir.body;
        let body_locals =
          List.filter_map
            (function Ir.Decl { name; ty; _ } -> Some (name, ty) | _ -> None)
            d.Ir.body
        in
        check_expr_is
          { inner with locals = body_locals @ inner.locals }
          ~where ~want:Ir.Tfloat value;
        (env, scope_names)
    | Ir.Guarded body ->
        (match position with
        | Inside_parallel -> ()
        | Region_level | Inside_simd _ | Inside_guard _ ->
            report "guarded" "guarded block outside a parallel region body");
        (* scope-transparent: its declarations extend the enclosing scope *)
        let env', names' =
          List.fold_left
            (fun (env, names) s ->
              stmt env ~position:(Inside_guard env.locals) ~scope_names:names s)
            (env, scope_names) body
        in
        (env', names')
    | Ir.Sync ->
        (match position with
        | Inside_simd _ | Inside_guard _ -> report "sync" "barrier inside simd"
        | Region_level | Inside_parallel -> ());
        (env, scope_names)
  in
  stmts { params; locals = []; loop_vars = [] } ~position:Region_level
    ~scope_names:[] k.Ir.body;
  match List.rev !errors with [] -> Ok () | es -> Error es
