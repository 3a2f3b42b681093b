module Memory = Gpusim.Memory
module Ir = Ompir.Ir
module Outline = Ompir.Outline
module Scope = Ompir.Scope
module Sites = Ompir.Sites
module Spmdize = Ompir.Spmdize
module Compile = Ompir.Compile
module Mode = Omprt.Mode
module Payload = Omprt.Payload
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

(* The launch types are the staged evaluator's, so a test hands both
   evaluators the same inputs and catches the same [Compile.Error]. *)
type binding = Compile.binding =
  | B_farr of Memory.farray
  | B_iarr of Memory.iarray
  | B_int of int
  | B_float of float

type options = Compile.options = {
  num_teams : int;
  num_threads : int;
  teams_mode : Mode.t;
  parallel_mode : [ `Auto | `Force of Mode.t ];
  simd_len : int;
  sharing_bytes : int;
}

(* Runtime scalar values: the walker's cells carry their type *)
type value = V_int of int | V_float of float

(* A thread's lexical scope is a private [cell Scope.t] (keyed frames,
   innermost-wins).  Array parameters live in a static table; scalar
   parameters are seeded into the root frame. *)
type cell = value ref

(* What an access does to its array: the first part of a site's key. *)
type access = Read | Write | Atomic

type statics = {
  farrays : (string, Memory.farray) Hashtbl.t;
  iarrays : (string, Memory.iarray) Hashtbl.t;
  sites : (access * string * Ir.expr, Sites.t) Hashtbl.t;
      (* the sanitizer site of every access in the kernel, made before
         the launch and only read during it (see [site_table]) *)
  guard_broadcasts : (int, (string * value) list) Hashtbl.t array;
      (* indexed by block_id, group -> values a guarded block's SIMD main
         published.  One table per block: a block simulates entirely on a
         single domain (Device.simulate_block), so per-block tables keep
         concurrent blocks from mutating a shared Hashtbl across domains. *)
}

let err fmt = Printf.ksprintf (fun s -> raise (Compile.Error s)) fmt

(* One [Sites.t] per access of the kernel, keyed by what it does, its
   array and its index expression: accesses alike in all three carry one
   label, so they share a site.  Made once per launch, before it starts,
   so an access interns its label on its first sanitized run instead of
   formatting and registering a fresh one every time; the launch's
   blocks, pooled ones included, only read the table. *)
let site_table (k : Ir.kernel) =
  let sites = Hashtbl.create 16 in
  let add access arr idx =
    let key = (access, arr, idx) in
    if not (Hashtbl.mem sites key) then
      Hashtbl.add sites key
        ((match access with
         | Read -> Sites.load
         | Write -> Sites.store
         | Atomic -> Sites.atomic)
           arr idx)
  in
  let rec expr () = function
    | Ir.Int_lit _ | Ir.Float_lit _ | Ir.Var _ -> ()
    | Ir.Binop (_, a, b) ->
        expr () a;
        expr () b
    | Ir.Unop (_, a) -> expr () a
    | Ir.Load (arr, idx) | Ir.Load_int (arr, idx) ->
        add Read arr idx;
        expr () idx
  in
  let stmt () (s : Ir.stmt) =
    (match s with
    | Ir.Store (arr, idx, _) | Ir.Store_int (arr, idx, _) -> add Write arr idx
    | Ir.Atomic_add (arr, idx, _) -> add Atomic arr idx
    | _ -> ());
    Ir.fold_exprs expr () s
  in
  Ir.fold_directives stmt () k.Ir.body;
  sites

let set_site statics access arr idx =
  Gpusim.Ompsan.set_site (Sites.id (Hashtbl.find statics.sites (access, arr, idx)))

let as_int name = function
  | V_int n -> n
  | V_float _ -> err "%s: expected an int" name

let as_float name = function
  | V_float x -> x
  | V_int _ -> err "%s: expected a float" name

let farray statics name =
  match Hashtbl.find_opt statics.farrays name with
  | Some a -> a
  | None -> err "unbound float array %s" name

let iarray statics name =
  match Hashtbl.find_opt statics.iarrays name with
  | Some a -> a
  | None -> err "unbound int array %s" name

let charge (ctx : Team.ctx) c = Gpusim.Thread.tick ctx.Team.th c

let cost (ctx : Team.ctx) =
  ctx.Team.team.Team.cfg.Gpusim.Config.cost

let rec eval_expr ctx statics (scope : cell Scope.t) (e : Ir.expr) =
  match e with
  | Ir.Int_lit n -> V_int n
  | Ir.Float_lit x -> V_float x
  | Ir.Var name -> (
      match Scope.find name scope with
      | Some (_, cell) -> !cell
      | None -> err "unbound variable %s" name)
  | Ir.Load (arr, idx) ->
      let i = as_int arr (eval_expr ctx statics scope idx) in
      if Gpusim.Thread.sanitizing ctx.Team.th then
        set_site statics Read arr idx;
      V_float (Memory.fget (farray statics arr) ctx.Team.th i)
  | Ir.Load_int (arr, idx) ->
      let i = as_int arr (eval_expr ctx statics scope idx) in
      if Gpusim.Thread.sanitizing ctx.Team.th then
        set_site statics Read arr idx;
      V_int (Memory.iget (iarray statics arr) ctx.Team.th i)
  | Ir.Unop (op, a) -> (
      let va = eval_expr ctx statics scope a in
      let c = cost ctx in
      match op with
      | Ir.Neg ->
          charge ctx c.Gpusim.Config.alu;
          (match va with
          | V_int n -> V_int (-n)
          | V_float x -> V_float (-.x))
      | Ir.Not ->
          charge ctx c.Gpusim.Config.alu;
          V_int (if as_int "!" va = 0 then 1 else 0)
      | Ir.To_float ->
          charge ctx c.Gpusim.Config.alu;
          V_float (float_of_int (as_int "(double)" va))
      | Ir.To_int ->
          charge ctx c.Gpusim.Config.alu;
          V_int (int_of_float (as_float "(int)" va))
      | Ir.Sqrt ->
          charge ctx c.Gpusim.Config.special;
          V_float (sqrt (as_float "sqrt" va))
      | Ir.Exp ->
          charge ctx c.Gpusim.Config.special;
          V_float (exp (as_float "exp" va))
      | Ir.Log ->
          charge ctx c.Gpusim.Config.special;
          V_float (log (as_float "log" va))
      | Ir.Abs -> (
          charge ctx c.Gpusim.Config.alu;
          match va with
          | V_int n -> V_int (abs n)
          | V_float x -> V_float (abs_float x)))
  | Ir.Binop (op, a, b) -> (
      let va = eval_expr ctx statics scope a in
      let vb = eval_expr ctx statics scope b in
      let c = cost ctx in
      let bool_ r = V_int (if r then 1 else 0) in
      match (va, vb) with
      | V_int x, V_int y -> (
          charge ctx c.Gpusim.Config.alu;
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
          charge ctx c.Gpusim.Config.flop;
          match op with
          | Ir.Add -> V_float (x +. y)
          | Ir.Sub -> V_float (x -. y)
          | Ir.Mul -> V_float (x *. y)
          | Ir.Div ->
              charge ctx (c.Gpusim.Config.special -. c.Gpusim.Config.flop);
              V_float (x /. y)
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

(* An outlined function's payload is one slot per capture.  The bodies
   read the creating thread's cells through the scope they close over —
   precisely the sharing semantics of §4.3 (workers read the main
   thread's storage). *)
let find_outlined outlined fn_id =
  List.find
    (fun (o : Outline.outlined) -> o.Outline.fn_id = fn_id)
    outlined

let rec eval_stmts ctx statics outlined options scope body =
  ignore
    (List.fold_left
       (fun scope s -> eval_stmt ctx statics outlined options scope s)
       scope body)

(* [body] in a fresh frame binding [frame]'s cells *)
and eval_body_in_frame ctx statics outlined options scope ~frame body =
  eval_stmts ctx statics outlined options
    (List.fold_left (fun sc (n, cell) -> Scope.add n cell sc) (Scope.push scope)
       frame)
    body

and loop_bounds ctx statics scope (d : Ir.loop_directive) =
  let lo = as_int d.Ir.loop_var (eval_expr ctx statics scope d.Ir.lo) in
  let hi = as_int d.Ir.loop_var (eval_expr ctx statics scope d.Ir.hi) in
  (lo, max 0 (hi - lo))

and region_mode options (d : Ir.loop_directive) =
  match options.parallel_mode with
  | `Force m -> m
  | `Auto -> Spmdize.directive_mode d

and schedule_of (d : Ir.loop_directive) =
  match d.Ir.sched with
  | Ir.Sched_static -> Workshare.Static
  | Ir.Sched_chunked n -> Workshare.Chunked n
  | Ir.Sched_dynamic n -> Workshare.Dynamic n

and distribute_workshare ctx ~schedule ~trip f =
  Workshare.distribute_parallel_for ctx ~schedule ~trip f

and for_workshare ctx ~schedule ~trip f = Workshare.omp_for ctx ~schedule ~trip f

and run_parallel ?last ctx statics outlined options scope d ~workshare =
  let o = find_outlined outlined d.Ir.fn_id in
  let payload = Payload.slots (List.length o.Outline.captures) in
  let lo, trip = loop_bounds ctx statics scope d in
  let mode = region_mode options d in
  Parallel.parallel ctx ~mode ~simd_len:options.simd_len ~payload
    ~fn_id:d.Ir.fn_id ?last (fun ctx ->
      workshare ctx ~schedule:(schedule_of d) ~trip (fun iv ->
          let frame = [ (d.Ir.loop_var, ref (V_int (lo + iv))) ] in
          eval_body_in_frame ctx statics outlined options scope ~frame
            d.Ir.body))

and eval_stmt ctx statics outlined options scope (s : Ir.stmt) =
  let c = cost ctx in
  match s with
  | Ir.Decl { name; init; _ } ->
      let v = eval_expr ctx statics scope init in
      charge ctx c.Gpusim.Config.alu;
      Scope.add name (ref v) scope
  | Ir.Assign (name, e) ->
      let v = eval_expr ctx statics scope e in
      charge ctx c.Gpusim.Config.alu;
      (match Scope.find name scope with
      | Some (_, cell) -> cell := v
      | None -> err "assignment to unbound %s" name);
      scope
  | Ir.Store (arr, idx, value) ->
      let i = as_int arr (eval_expr ctx statics scope idx) in
      let v = as_float arr (eval_expr ctx statics scope value) in
      if Gpusim.Thread.sanitizing ctx.Team.th then
        set_site statics Write arr idx;
      Memory.fset (farray statics arr) ctx.Team.th i v;
      scope
  | Ir.Store_int (arr, idx, value) ->
      let i = as_int arr (eval_expr ctx statics scope idx) in
      let v = as_int arr (eval_expr ctx statics scope value) in
      if Gpusim.Thread.sanitizing ctx.Team.th then
        set_site statics Write arr idx;
      Memory.iset (iarray statics arr) ctx.Team.th i v;
      scope
  | Ir.Atomic_add (arr, idx, value) ->
      let i = as_int arr (eval_expr ctx statics scope idx) in
      let v = as_float arr (eval_expr ctx statics scope value) in
      if Gpusim.Thread.sanitizing ctx.Team.th then
        set_site statics Atomic arr idx;
      Memory.atomic_fadd (farray statics arr) ctx.Team.th i v;
      scope
  | Ir.If (cond, then_, else_) ->
      charge ctx c.Gpusim.Config.branch;
      let taken =
        if as_int "if" (eval_expr ctx statics scope cond) <> 0 then then_
        else else_
      in
      eval_body_in_frame ctx statics outlined options scope ~frame:[] taken;
      scope
  | Ir.While (cond, body) ->
      let rec loop () =
        charge ctx c.Gpusim.Config.branch;
        if as_int "while" (eval_expr ctx statics scope cond) <> 0 then begin
          eval_body_in_frame ctx statics outlined options scope ~frame:[] body;
          loop ()
        end
      in
      loop ();
      scope
  | Ir.For { var; lo; hi; body } ->
      let lo = as_int var (eval_expr ctx statics scope lo) in
      let hi = as_int var (eval_expr ctx statics scope hi) in
      let cell = ref (V_int lo) in
      for iv = lo to hi - 1 do
        charge ctx (c.Gpusim.Config.alu +. c.Gpusim.Config.branch);
        cell := V_int iv;
        eval_body_in_frame ctx statics outlined options scope
          ~frame:[ (var, cell) ] body
      done;
      scope
  | Ir.Distribute_parallel_for d ->
      run_parallel ctx statics outlined options scope d
        ~workshare:distribute_workshare;
      scope
  | Ir.Parallel_for d ->
      run_parallel ctx statics outlined options scope d ~workshare:for_workshare;
      scope
  | Ir.Simd d ->
      let o = find_outlined outlined d.Ir.fn_id in
      let payload = Payload.slots (List.length o.Outline.captures) in
      let lo, trip = loop_bounds ctx statics scope d in
      Simd.simd ctx ~payload ~fn_id:d.Ir.fn_id ~trip (fun ctx iv ->
          let frame = [ (d.Ir.loop_var, ref (V_int (lo + iv))) ] in
          eval_body_in_frame ctx statics outlined options scope ~frame
            d.Ir.body);
      scope
  | Ir.Simd_sum { acc; value; dir = d } ->
      let o = find_outlined outlined d.Ir.fn_id in
      let payload = Payload.slots (List.length o.Outline.captures) in
      let lo, trip = loop_bounds ctx statics scope d in
      (* The summand is evaluated after the body, in the body's scope: a
         synthesized trailing assignment into a per-iteration cell keeps
         the body's declarations visible to it. *)
      let red = "__red" in
      let stmts_with_sum = d.Ir.body @ [ Ir.Assign (red, value) ] in
      let total =
        Simd.simd_sum ctx ~payload ~fn_id:d.Ir.fn_id ~trip (fun ctx iv ->
            let red_cell = ref (V_float 0.0) in
            let frame =
              [ (d.Ir.loop_var, ref (V_int (lo + iv))); (red, red_cell) ]
            in
            eval_body_in_frame ctx statics outlined options scope ~frame
              stmts_with_sum;
            Simd.fold ctx (as_float red !red_cell))
      in
      (match Scope.find acc scope with
      | Some (_, cell) -> cell := V_float total
      | None -> err "reduction accumulator %s is unbound" acc);
      scope
  | Ir.Guarded body ->
      let team = ctx.Team.team in
      let g = Team.geometry team in
      let gs = Omprt.Simd_group.get_simd_group_size g in
      let fold_scope from_scope =
        List.fold_left
          (fun sc st -> eval_stmt ctx statics outlined options sc st)
          from_scope body
      in
      let generic_task =
        match team.Team.active_task with
        | Some task -> task.Team.task_mode = Mode.Generic
        | None -> false
      in
      if gs = 1 || generic_task then
        (* a single executor per group already: the guard is free *)
        fold_scope scope
      else begin
        let tid = ctx.Team.th.Gpusim.Thread.tid in
        let group = Omprt.Simd_group.get_simd_group g ~tid in
        let bcasts = statics.guard_broadcasts.(team.Team.block_id) in
        let smem_cost entries =
          List.iter (fun _ -> Gpusim.Shared.touch ctx.Team.th ~bytes:8) entries
        in
        if Omprt.Simd_group.is_simd_group_leader g ~tid then begin
          (* the SIMD main executes the block alone: full-group issue
             width per instruction *)
          let scope' =
            Gpusim.Thread.with_simt_factor ctx.Team.th (float_of_int gs)
              (fun () -> fold_scope (Scope.push scope))
          in
          (* one entry per declaration of the guarded frame, most recent
             first; a redeclared name broadcasts its visible value *)
          let entries =
            List.fold_left
              (fun entries (st : Ir.stmt) ->
                match st with
                | Ir.Decl { name; _ } -> (
                    match Scope.find name scope' with
                    | Some (_, cell) -> (name, !cell) :: entries
                    | None -> entries)
                | _ -> entries)
              [] body
          in
          smem_cost entries;
          Hashtbl.replace bcasts group entries;
          Gpusim.Counters.bump ctx.Team.th.Gpusim.Thread.counters
            "guard.blocks" 1.0;
          Team.sync_warp ctx;
          (* the closing barrier keeps this block's broadcast slot alive
             until every lane has read it *)
          Team.sync_warp ctx;
          scope'
        end
        else begin
          Team.sync_warp ctx;
          let entries =
            try Hashtbl.find bcasts group with Not_found -> []
          in
          smem_cost entries;
          Team.sync_warp ctx;
          List.fold_left
            (fun sc (n, v) -> Scope.add n (ref v) sc)
            (Scope.push scope) (List.rev entries)
        end
      end
  | Ir.Sync ->
      Team.region_barrier_wait ctx;
      scope

(* The kernel body: a parallel region that is its last top-level
   statement is every thread's last action. *)
let eval_kernel_body ctx statics outlined options scope body =
  let rec go scope = function
    | [] -> ()
    | [ Ir.Distribute_parallel_for d ] ->
        run_parallel ~last:true ctx statics outlined options scope d
          ~workshare:distribute_workshare
    | [ Ir.Parallel_for d ] ->
        run_parallel ~last:true ctx statics outlined options scope d
          ~workshare:for_workshare
    | s :: rest -> go (eval_stmt ctx statics outlined options scope s) rest
  in
  go scope body

let run ~cfg ?pool ?trace ?nonce ~options ~bindings (p : Outline.program) =
  let statics =
    {
      farrays = Hashtbl.create 8;
      iarrays = Hashtbl.create 8;
      sites = site_table p.Outline.kernel;
      guard_broadcasts =
        Array.init (max 0 options.num_teams) (fun _ -> Hashtbl.create 8);
    }
  in
  let root_values = ref [] in
  List.iter
    (fun (prm : Ir.param) ->
      match (prm.Ir.pty, List.assoc_opt prm.Ir.pname bindings) with
      | _, None -> err "parameter %s is not bound" prm.Ir.pname
      | Ir.P_farray, Some (B_farr a) ->
          Hashtbl.replace statics.farrays prm.Ir.pname a
      | Ir.P_iarray, Some (B_iarr a) ->
          Hashtbl.replace statics.iarrays prm.Ir.pname a
      | Ir.P_int, Some (B_int n) ->
          root_values := (prm.Ir.pname, V_int n) :: !root_values
      | Ir.P_float, Some (B_float x) ->
          root_values := (prm.Ir.pname, V_float x) :: !root_values
      | _, Some _ -> err "parameter %s bound with the wrong kind" prm.Ir.pname)
    p.Outline.kernel.Ir.params;
  let params =
    {
      Team.num_teams = options.num_teams;
      num_threads = options.num_threads;
      teams_mode = options.teams_mode;
      sharing_bytes = options.sharing_bytes;
    }
  in
  Target.launch ~cfg ?pool ?trace ?nonce ~kernel:p.Outline.kernel.Ir.kname
    ~params ~dispatch_table_size:(Outline.dispatch_table_size p) (fun ctx ->
      (* every executing thread owns a private copy of the region scope *)
      let scope =
        List.fold_left
          (fun sc (n, v) -> Scope.add n (ref v) sc)
          (Scope.push Scope.empty) (List.rev !root_values)
      in
      eval_kernel_body ctx statics p.Outline.outlined options scope
        p.Outline.kernel.Ir.body)
