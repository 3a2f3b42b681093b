(* The staged evaluator: checked IR is compiled once per launch into a
   tree of OCaml closures, shared read-only by every simulated lane and
   block.  Compilation resolves each variable reference to a
   (frame-depth, slot) pair over array-backed frames — replacing the
   walker's per-reference assoc-list scan — and hoists static lookups
   (array parameters, outlined-region metadata, region modes, schedules)
   out of the execution path entirely.  The compile-time scopes are
   keyed by name ({!Scope}), so compiling is linear in kernel size, and
   memory-access sites stay unlabelled until a sanitizing launch first
   reaches them ({!Sites}): an unsanitized launch formats no label.

   It is the one evaluator the product launches with.  A reference tree
   walker lives with the tests, and its contract with this module is
   bit-identical observable behaviour: every cost charge, memory
   account, barrier, broadcast and reduction happens in the same order
   with the same magnitude, so a launch under either yields equal reports
   and equal {!Gpusim.Counters}.  The launch types ([binding], [options],
   [Error]) are defined here and shared with that reference. *)

module Memory = Gpusim.Memory
module Mode = Omprt.Mode
module Payload = Omprt.Payload
module Team = Omprt.Team
module Workshare = Omprt.Workshare
module Simd = Omprt.Simd
module Parallel = Omprt.Parallel
module Target = Omprt.Target

exception Error of string

type binding =
  | B_farr of Memory.farray
  | B_iarr of Memory.iarray
  | B_int of int
  | B_float of float

type options = {
  num_teams : int;
  num_threads : int;
  teams_mode : Mode.t;
  parallel_mode : [ `Auto | `Force of Mode.t ];
  simd_len : int;
  sharing_bytes : int;
}

let default_options =
  {
    num_teams = 2;
    num_threads = 64;
    teams_mode = Mode.Spmd;
    parallel_mode = `Auto;
    simd_len = 8;
    sharing_bytes = Omprt.Sharing.default_bytes;
  }

type value = V_int of int | V_float of float

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Runtime representation                                              *)

type cell = value ref

(* Innermost frame first, mirroring the walker's scope list; cells keep
   the walker's sharing semantics (a [For] loop mutates one cell that
   every iteration's body frame sees, workers of a parallel region read
   the creating thread's cells through the captured env). *)
type env = cell array list

let dummy_cell : cell = ref (V_int 0)

let rec nth_frame env d =
  match env with
  | frame :: rest -> if d = 0 then frame else nth_frame rest (d - 1)
  | [] -> err "internal: frame depth out of range"

(* ------------------------------------------------------------------ *)
(* Compile-time scope                                                  *)

(* A compile-time frame mirrors one runtime frame array: its bindings
   are keyed by name (the most recent declaration wins, like the
   walker's cons-front scan) and its length is the next free slot, so
   resolving a name and placing a declaration cost a map probe rather
   than a scan of every binding in scope. *)
type senv = int Scope.t

(* Number of slots a block's frame needs: its initial bindings plus its
   top-level declarations.  Nested constructs get their own frames;
   [Guarded] pushes a separate persistent frame, so it does not count. *)
let decl_count stmts =
  List.fold_left
    (fun n -> function Ir.Decl _ -> n + 1 | _ -> n)
    0 stmts

type statics = {
  farrays : (string, Memory.farray) Hashtbl.t;
  iarrays : (string, Memory.iarray) Hashtbl.t;
  guard_broadcasts : (int, (string * value) list) Hashtbl.t array;
      (* indexed by block_id, group -> values a guarded block's SIMD main
         published.  One table per block: a block simulates entirely on a
         single domain (Device.simulate_block), so per-block tables keep
         concurrent blocks from mutating a shared Hashtbl across domains. *)
}

let farray statics name =
  match Hashtbl.find_opt statics.farrays name with
  | Some a -> a
  | None -> err "unbound float array %s" name

let iarray statics name =
  match Hashtbl.find_opt statics.iarrays name with
  | Some a -> a
  | None -> err "unbound int array %s" name

let as_int name = function
  | V_int n -> n
  | V_float _ -> err "%s: expected an int" name

let as_float name = function
  | V_float x -> x
  | V_int _ -> err "%s: expected a float" name

let charge (ctx : Team.ctx) c = Gpusim.Thread.tick ctx.Team.th c

let cost (ctx : Team.ctx) = ctx.Team.team.Team.cfg.Gpusim.Config.cost

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)

type cexpr = Team.ctx -> env -> value

let compile_var senv name : cexpr =
  match Scope.find name senv with
  | None -> err "unbound variable %s" name
  | Some (0, s) -> fun _ env -> !((List.hd env).(s))
  | Some (1, s) -> fun _ env -> !((List.hd (List.tl env)).(s))
  | Some (d, s) -> fun _ env -> !((nth_frame env d).(s))

let cell_ref senv name : (env -> cell) option =
  match Scope.find name senv with
  | None -> None
  | Some (0, s) -> Some (fun env -> (List.hd env).(s))
  | Some (1, s) -> Some (fun env -> (List.hd (List.tl env)).(s))
  | Some (d, s) -> Some (fun env -> (nth_frame env d).(s))

let rec compile_expr statics senv (e : Ir.expr) : cexpr =
  match e with
  | Ir.Int_lit n ->
      let v = V_int n in
      fun _ _ -> v
  | Ir.Float_lit x ->
      let v = V_float x in
      fun _ _ -> v
  | Ir.Var name -> compile_var senv name
  | Ir.Load (arr, idx) ->
      let a = farray statics arr in
      let cidx = compile_expr statics senv idx in
      (* the site is labelled on its first sanitized access; the running
         closure only pays a flag test when the sanitizer is off *)
      let site = Sites.load arr idx in
      fun ctx env ->
        let i = as_int arr (cidx ctx env) in
        if Gpusim.Thread.sanitizing ctx.Team.th then
          Gpusim.Ompsan.set_site (Sites.id site);
        V_float (Memory.fget a ctx.Team.th i)
  | Ir.Load_int (arr, idx) ->
      let a = iarray statics arr in
      let cidx = compile_expr statics senv idx in
      let site = Sites.load arr idx in
      fun ctx env ->
        let i = as_int arr (cidx ctx env) in
        if Gpusim.Thread.sanitizing ctx.Team.th then
          Gpusim.Ompsan.set_site (Sites.id site);
        V_int (Memory.iget a ctx.Team.th i)
  | Ir.Unop (op, a) -> (
      let ca = compile_expr statics senv a in
      match op with
      | Ir.Neg ->
          fun ctx env ->
            let va = ca ctx env in
            charge ctx (cost ctx).Gpusim.Config.alu;
            (match va with V_int n -> V_int (-n) | V_float x -> V_float (-.x))
      | Ir.Not ->
          fun ctx env ->
            let va = ca ctx env in
            charge ctx (cost ctx).Gpusim.Config.alu;
            V_int (if as_int "!" va = 0 then 1 else 0)
      | Ir.To_float ->
          fun ctx env ->
            let va = ca ctx env in
            charge ctx (cost ctx).Gpusim.Config.alu;
            V_float (float_of_int (as_int "(double)" va))
      | Ir.To_int ->
          fun ctx env ->
            let va = ca ctx env in
            charge ctx (cost ctx).Gpusim.Config.alu;
            V_int (int_of_float (as_float "(int)" va))
      | Ir.Sqrt ->
          fun ctx env ->
            let va = ca ctx env in
            charge ctx (cost ctx).Gpusim.Config.special;
            V_float (sqrt (as_float "sqrt" va))
      | Ir.Exp ->
          fun ctx env ->
            let va = ca ctx env in
            charge ctx (cost ctx).Gpusim.Config.special;
            V_float (exp (as_float "exp" va))
      | Ir.Log ->
          fun ctx env ->
            let va = ca ctx env in
            charge ctx (cost ctx).Gpusim.Config.special;
            V_float (log (as_float "log" va))
      | Ir.Abs ->
          fun ctx env ->
            let va = ca ctx env in
            charge ctx (cost ctx).Gpusim.Config.alu;
            (match va with
            | V_int n -> V_int (abs n)
            | V_float x -> V_float (abs_float x)))
  | Ir.Binop (op, a, b) ->
      let ca = compile_expr statics senv a in
      let cb = compile_expr statics senv b in
      fun ctx env ->
        let va = ca ctx env in
        let vb = cb ctx env in
        let c = cost ctx in
        let bool_ r = V_int (if r then 1 else 0) in
        (match (va, vb) with
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

(* ------------------------------------------------------------------ *)
(* Payload construction (resolved at compile time)                     *)

let compile_captures statics senv captures =
  let slot name =
    match Hashtbl.find_opt statics.farrays name with
    | Some a ->
        let p = Payload.Farr a in
        fun _env -> p
    | None -> (
        match Hashtbl.find_opt statics.iarrays name with
        | Some a ->
            let p = Payload.Iarr a in
            fun _env -> p
        | None -> (
            match cell_ref senv name with
            | Some get ->
                fun env -> (
                  match !(get env) with
                  | V_int n -> Payload.Int (ref n)
                  | V_float x -> Payload.Float (ref x))
            | None -> err "capture %s is unbound" name))
  in
  let slots = List.map slot captures in
  fun env -> Payload.of_list (List.map (fun f -> f env) slots)

let find_outlined outlined fn_id =
  List.find (fun (o : Outline.outlined) -> o.Outline.fn_id = fn_id) outlined

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)

(* A compiled statement returns the (possibly extended) env: [Guarded]
   pushes a persistent frame visible to the statements after it, exactly
   like the walker's scope threading. *)
type cstmt = Team.ctx -> env -> env

let schedule_of (d : Ir.loop_directive) =
  match d.Ir.sched with
  | Ir.Sched_static -> Workshare.Static
  | Ir.Sched_chunked n -> Workshare.Chunked n
  | Ir.Sched_dynamic n -> Workshare.Dynamic n

let region_mode (options : options) (d : Ir.loop_directive) =
  match options.parallel_mode with
  | `Force m -> m
  | `Auto -> Spmdize.directive_mode d

(* Top-level [Decl]s in the statements after a [Guarded] block land in
   the guard's persistent frame (the walker threads the extended scope
   through), so the guard frame must reserve slots for them.  The count
   stops at the next [Guarded]: its frame hosts the decls after it. *)
let decls_until_guard stmts =
  let rec go n = function
    | [] | Ir.Guarded _ :: _ -> n
    | Ir.Decl _ :: rest -> go (n + 1) rest
    | _ :: rest -> go n rest
  in
  go 0 stmts

(* Compile [stmts] to run inside a fresh frame seeded with [init] (given
   in the walker's frame order: first element is scanned first on
   lookup).  Returns the frame size and a closure that executes the
   block given the pre-filled frame array pushed by the caller. *)
let rec compile_block ?(kernel = false) statics outlined options senv ~init
    stmts =
  let ninit = List.length init in
  let nslots = ninit + decl_count stmts in
  (* slots follow [init]'s order; binding the head last lets the first of
     duplicate names win, as the walker's scan does *)
  let frame0 =
    let rec bind slot = function
      | [] -> Scope.push senv
      | n :: rest -> Scope.add n slot (bind (slot + 1) rest)
    in
    bind 0 init
  in
  let rec go senv acc = function
    | [] -> List.rev acc
    | s :: rest ->
        let guard_extra =
          match s with Ir.Guarded _ -> decls_until_guard rest | _ -> 0
        in
        (* a parallel region that ends the kernel's top-level body is
           every thread's last action *)
        let last = kernel && rest = [] in
        let senv', cs =
          compile_stmt statics outlined options ~guard_extra ~last senv s
        in
        go senv' (cs :: acc) rest
  in
  let compiled = Array.of_list (go frame0 [] stmts) in
  let run ctx env frame =
    let env = frame :: env in
    let e = ref env in
    Array.iter (fun cs -> e := cs ctx !e) compiled;
    ()
  in
  (nslots, run)

(* A body executed in an empty fresh frame (If branches, While bodies). *)
and compile_anon_block statics outlined options senv stmts =
  let nslots, run = compile_block statics outlined options senv ~init:[] stmts in
  if nslots = 0 then fun ctx env -> run ctx env [||]
  else fun ctx env -> run ctx env (Array.make nslots dummy_cell)

and compile_parallel statics outlined options senv (d : Ir.loop_directive)
    ~last ~workshare : cstmt =
  let o = find_outlined outlined d.Ir.fn_id in
  let mk_payload = compile_captures statics senv o.Outline.captures in
  let clo = compile_expr statics senv d.Ir.lo in
  let chi = compile_expr statics senv d.Ir.hi in
  let mode = region_mode options d in
  let schedule = schedule_of d in
  let fn_id = d.Ir.fn_id in
  let simd_len = options.simd_len in
  let nslots, run_body =
    compile_block statics outlined options senv ~init:[ d.Ir.loop_var ] d.Ir.body
  in
  fun ctx env ->
    let payload = mk_payload env in
    let lo = as_int d.Ir.loop_var (clo ctx env) in
    let hi = as_int d.Ir.loop_var (chi ctx env) in
    let trip = max 0 (hi - lo) in
    Parallel.parallel ctx ~mode ~simd_len ~payload ~fn_id ~last (fun ctx _ ->
        workshare ctx ~schedule ~trip (fun iv ->
            let frame = Array.make nslots dummy_cell in
            frame.(0) <- ref (V_int (lo + iv));
            run_body ctx env frame));
    env

and compile_stmt statics outlined options ~guard_extra ~last senv
    (s : Ir.stmt) : senv * cstmt =
  match s with
  | Ir.Decl { name; init; _ } ->
      let ce = compile_expr statics senv init in
      let slot = Scope.length senv in
      let senv' = Scope.add name slot senv in
      ( senv',
        fun ctx env ->
          let v = ce ctx env in
          charge ctx (cost ctx).Gpusim.Config.alu;
          (List.hd env).(slot) <- ref v;
          env )
  | Ir.Assign (name, e) ->
      let ce = compile_expr statics senv e in
      let get =
        match cell_ref senv name with
        | Some get -> get
        | None -> err "assignment to unbound %s" name
      in
      ( senv,
        fun ctx env ->
          let v = ce ctx env in
          charge ctx (cost ctx).Gpusim.Config.alu;
          get env := v;
          env )
  | Ir.Store (arr, idx, value) ->
      let a = farray statics arr in
      let cidx = compile_expr statics senv idx in
      let cval = compile_expr statics senv value in
      let site = Sites.store arr idx in
      ( senv,
        fun ctx env ->
          let i = as_int arr (cidx ctx env) in
          let v = as_float arr (cval ctx env) in
          if Gpusim.Thread.sanitizing ctx.Team.th then
            Gpusim.Ompsan.set_site (Sites.id site);
          Memory.fset a ctx.Team.th i v;
          env )
  | Ir.Store_int (arr, idx, value) ->
      let a = iarray statics arr in
      let cidx = compile_expr statics senv idx in
      let cval = compile_expr statics senv value in
      let site = Sites.store arr idx in
      ( senv,
        fun ctx env ->
          let i = as_int arr (cidx ctx env) in
          let v = as_int arr (cval ctx env) in
          if Gpusim.Thread.sanitizing ctx.Team.th then
            Gpusim.Ompsan.set_site (Sites.id site);
          Memory.iset a ctx.Team.th i v;
          env )
  | Ir.Atomic_add (arr, idx, value) ->
      let a = farray statics arr in
      let cidx = compile_expr statics senv idx in
      let cval = compile_expr statics senv value in
      let site = Sites.atomic arr idx in
      ( senv,
        fun ctx env ->
          let i = as_int arr (cidx ctx env) in
          let v = as_float arr (cval ctx env) in
          if Gpusim.Thread.sanitizing ctx.Team.th then
            Gpusim.Ompsan.set_site (Sites.id site);
          Memory.atomic_fadd a ctx.Team.th i v;
          env )
  | Ir.If (cond, then_, else_) ->
      let ccond = compile_expr statics senv cond in
      let cthen = compile_anon_block statics outlined options senv then_ in
      let celse = compile_anon_block statics outlined options senv else_ in
      ( senv,
        fun ctx env ->
          charge ctx (cost ctx).Gpusim.Config.branch;
          if as_int "if" (ccond ctx env) <> 0 then cthen ctx env
          else celse ctx env;
          env )
  | Ir.While (cond, body) ->
      let ccond = compile_expr statics senv cond in
      let cbody = compile_anon_block statics outlined options senv body in
      ( senv,
        fun ctx env ->
          let rec loop () =
            charge ctx (cost ctx).Gpusim.Config.branch;
            if as_int "while" (ccond ctx env) <> 0 then begin
              cbody ctx env;
              loop ()
            end
          in
          loop ();
          env )
  | Ir.For { var; lo; hi; body } ->
      let clo = compile_expr statics senv lo in
      let chi = compile_expr statics senv hi in
      let nslots, run_body =
        compile_block statics outlined options senv ~init:[ var ] body
      in
      ( senv,
        fun ctx env ->
          let lo = as_int var (clo ctx env) in
          let hi = as_int var (chi ctx env) in
          let cell = ref (V_int lo) in
          let c = cost ctx in
          let step = c.Gpusim.Config.alu +. c.Gpusim.Config.branch in
          for iv = lo to hi - 1 do
            charge ctx step;
            cell := V_int iv;
            let frame = Array.make nslots dummy_cell in
            frame.(0) <- cell;
            run_body ctx env frame
          done;
          env )
  | Ir.Distribute_parallel_for d ->
      ( senv,
        compile_parallel statics outlined options senv d ~last
          ~workshare:(fun ctx ~schedule ~trip f ->
            Workshare.distribute_parallel_for ctx ~schedule ~trip f) )
  | Ir.Parallel_for d ->
      ( senv,
        compile_parallel statics outlined options senv d ~last
          ~workshare:(fun ctx ~schedule ~trip f ->
            Workshare.omp_for ctx ~schedule ~trip f) )
  | Ir.Simd d ->
      let o = find_outlined outlined d.Ir.fn_id in
      let mk_payload = compile_captures statics senv o.Outline.captures in
      let clo = compile_expr statics senv d.Ir.lo in
      let chi = compile_expr statics senv d.Ir.hi in
      let fn_id = d.Ir.fn_id in
      let nslots, run_body =
        compile_block statics outlined options senv ~init:[ d.Ir.loop_var ]
          d.Ir.body
      in
      ( senv,
        fun ctx env ->
          let payload = mk_payload env in
          let lo = as_int d.Ir.loop_var (clo ctx env) in
          let hi = as_int d.Ir.loop_var (chi ctx env) in
          let trip = max 0 (hi - lo) in
          Simd.simd ctx ~payload ~fn_id ~trip (fun ctx iv _ ->
              let frame = Array.make nslots dummy_cell in
              frame.(0) <- ref (V_int (lo + iv));
              run_body ctx env frame);
          env )
  | Ir.Simd_sum { acc; value; dir = d } ->
      let o = find_outlined outlined d.Ir.fn_id in
      let mk_payload = compile_captures statics senv o.Outline.captures in
      let clo = compile_expr statics senv d.Ir.lo in
      let chi = compile_expr statics senv d.Ir.hi in
      let fn_id = d.Ir.fn_id in
      (* as in the walker: a synthesized trailing assignment into a
         per-iteration cell lets the summand see the body's decls *)
      let red = "__red" in
      let stmts_with_sum = d.Ir.body @ [ Ir.Assign (red, value) ] in
      let nslots, run_body =
        compile_block statics outlined options senv
          ~init:[ d.Ir.loop_var; red ] stmts_with_sum
      in
      let acc_get =
        match cell_ref senv acc with
        | Some get -> get
        | None -> err "reduction accumulator %s is unbound" acc
      in
      ( senv,
        fun ctx env ->
          let payload = mk_payload env in
          let lo = as_int d.Ir.loop_var (clo ctx env) in
          let hi = as_int d.Ir.loop_var (chi ctx env) in
          let trip = max 0 (hi - lo) in
          let total =
            Simd.simd_sum ctx ~payload ~fn_id ~trip (fun ctx iv _ ->
                let red_cell = ref (V_float 0.0) in
                let frame = Array.make nslots dummy_cell in
                frame.(0) <- ref (V_int (lo + iv));
                frame.(1) <- red_cell;
                run_body ctx env frame;
                as_float red !red_cell)
          in
          acc_get env := V_float total;
          env )
  | Ir.Guarded body ->
      (* The guarded decls live in a persistent frame pushed for the
         statements after the block — in both dynamic paths, so the
         compiled layout does not depend on the group geometry.  (The
         walker extends the current frame on the single-executor path;
         both layouts resolve identically.) *)
      let nslots, run_body =
        compile_block statics outlined options senv ~init:[] body
      in
      (* room for the enclosing block's later decls (see above) *)
      let nslots = nslots + guard_extra in
      (* slots of the guarded frame, as compile_block numbered them; the
         broadcast entries keep walker order, most recent decl first *)
      let senv', entry_slots =
        List.fold_left
          (fun (gsenv, entries) s ->
            match s with
            | Ir.Decl { name; _ } ->
                let slot = Scope.length gsenv in
                (Scope.add name slot gsenv, (name, slot) :: entries)
            | _ -> (gsenv, entries))
          (Scope.push senv, []) body
      in
      ( senv',
        fun ctx env ->
          let team = ctx.Team.team in
          let g = Team.geometry team in
          let gs = Omprt.Simd_group.get_simd_group_size g in
          let generic_task =
            match team.Team.active_task with
            | Some task -> task.Team.task_mode = Mode.Generic
            | None -> false
          in
          let frame = Array.make nslots dummy_cell in
          if gs = 1 || generic_task then begin
            (* a single executor per group already: the guard is free *)
            run_body ctx env frame;
            frame :: env
          end
          else begin
            let tid = ctx.Team.th.Gpusim.Thread.tid in
            let group = Omprt.Simd_group.get_simd_group g ~tid in
            let bcasts = statics.guard_broadcasts.(team.Team.block_id) in
            let smem_cost entries =
              List.iter
                (fun _ -> Gpusim.Shared.touch ctx.Team.th ~bytes:8)
                entries
            in
            if Omprt.Simd_group.is_simd_group_leader g ~tid then begin
              Gpusim.Thread.with_simt_factor ctx.Team.th (float_of_int gs)
                (fun () -> run_body ctx env frame);
              let entries =
                List.map (fun (n, slot) -> (n, !(frame.(slot)))) entry_slots
              in
              smem_cost entries;
              Hashtbl.replace bcasts group entries;
              Gpusim.Counters.bump ctx.Team.th.Gpusim.Thread.counters
                "guard.blocks" 1.0;
              Team.sync_warp ctx;
              (* the closing barrier keeps this block's broadcast slot
                 alive until every lane has read it *)
              Team.sync_warp ctx;
              frame :: env
            end
            else begin
              Team.sync_warp ctx;
              let entries =
                try Hashtbl.find bcasts group with Not_found -> []
              in
              smem_cost entries;
              Team.sync_warp ctx;
              List.iter
                (fun (n, v) ->
                  match List.assoc_opt n entry_slots with
                  | Some slot -> frame.(slot) <- ref v
                  | None -> ())
                entries;
              frame :: env
            end
          end )
  | Ir.Sync ->
      ( senv,
        fun ctx env ->
          Team.region_barrier_wait ctx;
          env )

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)

let run ~cfg ?pool ?trace ?nonce ~(options : options) ~bindings
    (p : Outline.program) =
  let statics =
    {
      farrays = Hashtbl.create 8;
      iarrays = Hashtbl.create 8;
      guard_broadcasts =
        Array.init (max 0 options.num_teams) (fun _ -> Hashtbl.create 8);
    }
  in
  let root = ref [] in
  List.iter
    (fun (prm : Ir.param) ->
      match (prm.Ir.pty, List.assoc_opt prm.Ir.pname bindings) with
      | _, None -> err "parameter %s is not bound" prm.Ir.pname
      | Ir.P_farray, Some (B_farr a) ->
          Hashtbl.replace statics.farrays prm.Ir.pname a
      | Ir.P_iarray, Some (B_iarr a) ->
          Hashtbl.replace statics.iarrays prm.Ir.pname a
      | Ir.P_int, Some (B_int n) ->
          root := (prm.Ir.pname, V_int n) :: !root
      | Ir.P_float, Some (B_float x) ->
          root := (prm.Ir.pname, V_float x) :: !root
      | _, Some _ -> err "parameter %s bound with the wrong kind" prm.Ir.pname)
    p.Outline.kernel.Ir.params;
  let root = !root in
  (* root frame layout: scalar params in binding order; the body block is
     compiled against it once, shared by every thread and block *)
  let root_names = List.map fst root in
  let root_values = Array.of_list (List.map snd root) in
  let nroot = Array.length root_values in
  let senv0 : senv = Scope.empty in
  let nslots, run_block_body =
    compile_block ~kernel:true statics p.Outline.outlined options senv0
      ~init:root_names p.Outline.kernel.Ir.body
  in
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
      let frame = Array.make nslots dummy_cell in
      for i = 0 to nroot - 1 do
        frame.(i) <- ref root_values.(i)
      done;
      run_block_body ctx [] frame)
