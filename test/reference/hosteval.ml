module Memory = Gpusim.Memory
module Ir = Ompir.Ir
module Compile = Ompir.Compile

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type value = V_int of int | V_float of float

type env = {
  farrays : (string, Memory.farray) Hashtbl.t;
  iarrays : (string, Memory.iarray) Hashtbl.t;
  mutable scope : (string * value ref) list;
}

let as_int name = function
  | V_int n -> n
  | V_float _ -> err "%s: expected an int" name

let as_float name = function
  | V_float x -> x
  | V_int _ -> err "%s: expected a float" name

let lookup env name =
  match List.assoc_opt name env.scope with
  | Some cell -> cell
  | None -> err "unbound variable %s" name

let farray env name =
  try Hashtbl.find env.farrays name with Not_found -> err "unbound array %s" name

let iarray env name =
  try Hashtbl.find env.iarrays name with Not_found -> err "unbound array %s" name

let rec eval env (e : Ir.expr) =
  match e with
  | Ir.Int_lit n -> V_int n
  | Ir.Float_lit x -> V_float x
  | Ir.Var name -> !(lookup env name)
  | Ir.Load (arr, idx) ->
      V_float (Memory.host_get (farray env arr) (as_int arr (eval env idx)))
  | Ir.Load_int (arr, idx) ->
      V_int (Memory.host_geti (iarray env arr) (as_int arr (eval env idx)))
  | Ir.Unop (op, a) -> (
      let va = eval env a in
      match op with
      | Ir.Neg -> (
          match va with V_int n -> V_int (-n) | V_float x -> V_float (-.x))
      | Ir.Not -> V_int (if as_int "!" va = 0 then 1 else 0)
      | Ir.To_float -> V_float (float_of_int (as_int "(double)" va))
      | Ir.To_int -> V_int (int_of_float (as_float "(int)" va))
      | Ir.Sqrt -> V_float (sqrt (as_float "sqrt" va))
      | Ir.Exp -> V_float (exp (as_float "exp" va))
      | Ir.Log -> V_float (log (as_float "log" va))
      | Ir.Abs -> (
          match va with
          | V_int n -> V_int (abs n)
          | V_float x -> V_float (abs_float x)))
  | Ir.Binop (op, a, b) -> (
      let va = eval env a and vb = eval env b in
      let bool_ r = V_int (if r then 1 else 0) in
      match (va, vb) with
      | V_int x, V_int y -> (
          match op with
          | Ir.Add -> V_int (x + y)
          | Ir.Sub -> V_int (x - y)
          | Ir.Mul -> V_int (x * y)
          | Ir.Div -> if y = 0 then err "division by zero" else V_int (x / y)
          | Ir.Mod -> if y = 0 then err "mod by zero" else V_int (x mod y)
          | Ir.Min -> V_int (min x y)
          | Ir.Max -> V_int (max x y)
          | Ir.Lt -> bool_ (x < y)
          | Ir.Le -> bool_ (x <= y)
          | Ir.Gt -> bool_ (x > y)
          | Ir.Ge -> bool_ (x >= y)
          | Ir.Eq -> bool_ (x = y)
          | Ir.Ne -> bool_ (x <> y)
          | Ir.And -> bool_ (x <> 0 && y <> 0)
          | Ir.Or -> bool_ (x <> 0 || y <> 0))
      | V_float x, V_float y -> (
          match op with
          | Ir.Add -> V_float (x +. y)
          | Ir.Sub -> V_float (x -. y)
          | Ir.Mul -> V_float (x *. y)
          | Ir.Div -> V_float (x /. y)
          | Ir.Min -> V_float (Float.min x y)
          | Ir.Max -> V_float (Float.max x y)
          | Ir.Lt -> bool_ (x < y)
          | Ir.Le -> bool_ (x <= y)
          | Ir.Gt -> bool_ (x > y)
          | Ir.Ge -> bool_ (x >= y)
          | Ir.Eq -> bool_ (x = y)
          | Ir.Ne -> bool_ (x <> y)
          | Ir.And | Ir.Or -> err "logic op on floats"
          | Ir.Mod -> err "mod on floats")
      | _ -> err "mixed operand types")

let rec exec env (s : Ir.stmt) =
  match s with
  | Ir.Decl { name; init; _ } ->
      env.scope <- (name, ref (eval env init)) :: env.scope
  | Ir.Assign (name, e) -> lookup env name := eval env e
  | Ir.Store (arr, idx, value) ->
      Memory.host_set (farray env arr)
        (as_int arr (eval env idx))
        (as_float arr (eval env value))
  | Ir.Store_int (arr, idx, value) ->
      Memory.host_seti (iarray env arr)
        (as_int arr (eval env idx))
        (as_int arr (eval env value))
  | Ir.Atomic_add (arr, idx, value) ->
      let a = farray env arr in
      let i = as_int arr (eval env idx) in
      Memory.host_set a i (Memory.host_get a i +. as_float arr (eval env value))
  | Ir.If (cond, then_, else_) ->
      exec_block env (if as_int "if" (eval env cond) <> 0 then then_ else else_)
  | Ir.While (cond, body) ->
      while as_int "while" (eval env cond) <> 0 do
        exec_block env body
      done
  | Ir.For { var; lo; hi; body } ->
      let lo = as_int var (eval env lo) and hi = as_int var (eval env hi) in
      run_loop env ~var ~lo ~hi body
  | Ir.Distribute_parallel_for d | Ir.Parallel_for d | Ir.Simd d ->
      let lo = as_int d.Ir.loop_var (eval env d.Ir.lo) in
      let hi = as_int d.Ir.loop_var (eval env d.Ir.hi) in
      run_loop env ~var:d.Ir.loop_var ~lo ~hi d.Ir.body
  | Ir.Simd_sum { acc; value; dir = d } ->
      let lo = as_int d.Ir.loop_var (eval env d.Ir.lo) in
      let hi = as_int d.Ir.loop_var (eval env d.Ir.hi) in
      let total = ref 0.0 in
      let saved = env.scope in
      let cell = ref (V_int lo) in
      env.scope <- (d.Ir.loop_var, cell) :: env.scope;
      for iv = lo to hi - 1 do
        cell := V_int iv;
        let mark = env.scope in
        exec_block_no_reset env d.Ir.body;
        total := !total +. as_float acc (eval env value);
        env.scope <- mark
      done;
      env.scope <- saved;
      lookup env acc := V_float !total
  | Ir.Guarded body ->
      (* one executor, scope-transparent *)
      List.iter (exec env) body
  | Ir.Sync -> ()

and run_loop env ~var ~lo ~hi body =
  let saved = env.scope in
  let cell = ref (V_int lo) in
  env.scope <- (var, cell) :: env.scope;
  for iv = lo to hi - 1 do
    cell := V_int iv;
    exec_block env body
  done;
  env.scope <- saved

and exec_block env body =
  let saved = env.scope in
  List.iter (exec env) body;
  env.scope <- saved

and exec_block_no_reset env body = List.iter (exec env) body

let run ~bindings (k : Ir.kernel) =
  let env =
    { farrays = Hashtbl.create 8; iarrays = Hashtbl.create 8; scope = [] }
  in
  List.iter
    (fun (prm : Ir.param) ->
      match (prm.Ir.pty, List.assoc_opt prm.Ir.pname bindings) with
      | _, None -> err "parameter %s is not bound" prm.Ir.pname
      | Ir.P_farray, Some (Compile.B_farr a) ->
          Hashtbl.replace env.farrays prm.Ir.pname a
      | Ir.P_iarray, Some (Compile.B_iarr a) ->
          Hashtbl.replace env.iarrays prm.Ir.pname a
      | Ir.P_int, Some (Compile.B_int n) ->
          env.scope <- (prm.Ir.pname, ref (V_int n)) :: env.scope
      | Ir.P_float, Some (Compile.B_float x) ->
          env.scope <- (prm.Ir.pname, ref (V_float x)) :: env.scope
      | _, Some _ -> err "parameter %s bound with the wrong kind" prm.Ir.pname)
    k.Ir.params;
  exec_block env k.Ir.body
