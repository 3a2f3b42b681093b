(* The staged evaluator: checked IR is compiled once per launch into a
   tree of OCaml closures, shared read-only by every simulated lane and
   block, that run on typed, unboxed per-lane frames.

   Static resolution.  Compilation gives every scalar a fixed slot in an
   [int] or a [float] frame, chosen from its type — scalar parameters,
   declarations (guarded ones included), loop variables, a [simd
   reduction]'s summand, and the hidden bounds of each directive.  A
   frame belongs to one directive-nesting level (the kernel body, a
   parallel region's body, a simd loop's body), so a reference resolves
   to a (level distance, slot) pair: [0] is the executing lane's own
   frame, [1] the frame of the lane that created the construct, and so
   on up the [up] chain.  Array parameters, outlined-region metadata,
   region modes, schedules and the cost table are hoisted into the
   closures.  The compile-time scope is a string-keyed map, so
   compiling is linear in kernel size, and memory-access sites stay
   unlabelled until a sanitizing launch first reaches them ({!Sites}):
   an unsanitized launch formats no label.

   No allocation at run time.  An int expression returns an immediate.
   A float expression is a leaf its consumer reads in place (a literal,
   a slot, an array load) or a computation that writes its result to a
   slot — its frame's scratch slot, read back at once, or the variable a
   declaration or assignment targets — so no float is boxed.  Each lane
   gets a frame per level on first use and keeps it: a loop iteration
   rewrites its loop variable in place.  Outer-variable reads in a
   region or simd body go to the creating lane's frame, which each
   entry links as the body frame's [up]: that is the walker's sharing
   of the creator's cells.  A creating lane builds each region or simd
   payload once per site and refreshes its scalars in place on entry,
   and its microtask, simd body or reducer once per site.  Lane tables
   follow the runtime's teams: a team recycled for the launch's next
   block brings its lanes along.

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

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Runtime representation                                              *)

(* One lane's frame at one nesting level.  Float slot [scratch] holds
   the value of the computation last run in the frame, read back by its
   consumer before anything else runs there. *)
type frame = {
  ints : int array;
  floats : float array;
  mutable up : frame;  (* the creating lane's frame one level out *)
  owner : lane;
}

and lane = {
  tbl : table;
  frames : frame array;  (* per level, [nil_frame] until first use *)
  sites : lsite option array;  (* per directive site, on first use *)
}

(* A lane's state at one directive site: as the creator, the payload
   and the code it hands the runtime; as an executor of a region, its
   iteration function and the activation it belongs to. *)
and lsite = {
  mutable args : Payload.t option;
  mutable code : code;
  mutable iter : int -> unit;
  mutable ctx : Team.ctx;
  mutable outer : frame;
}

and code =
  | No_code
  | Micro of Team.microtask
  | Body of Team.simd_body
  | Red of Team.simd_reducer

(* The lanes of one team, and the broadcasts of its guarded blocks: per
   SIMD group, the leader that last broadcast and its guard site. *)
and table = {
  shape : shape;
  mutable block : int;
  lanes : lane array;
  bcast_lane : lane array;
  bcast_site : int array;
}

(* Frame sizes per level, fixed once the kernel is compiled. *)
and shape = {
  mutable nints : int array;
  mutable nfloats : int array;
  mutable nsites : int;
}

let rec nil_frame = { ints = [||]; floats = [||]; up = nil_frame; owner = nil_lane }
and nil_lane = { tbl = nil_table; frames = [||]; sites = [||] }

and nil_table =
  {
    shape = { nints = [||]; nfloats = [||]; nsites = 0 };
    block = -1;
    lanes = [||];
    bcast_lane = [||];
    bcast_site = [||];
  }

let scratch = 0

let rec frame_at fr d = if d = 0 then fr else frame_at fr.up (d - 1)

let frame_of (w : lane) lvl =
  let f = w.frames.(lvl) in
  if f != nil_frame then f
  else begin
    let shape = w.tbl.shape in
    let f =
      {
        ints = Array.make shape.nints.(lvl) 0;
        floats = Array.make shape.nfloats.(lvl) 0.0;
        up = nil_frame;
        owner = w;
      }
    in
    w.frames.(lvl) <- f;
    f
  end

let lane_of tbl (ctx : Team.ctx) =
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  let w = tbl.lanes.(tid) in
  if w != nil_lane then w
  else begin
    let shape = tbl.shape in
    let w =
      {
        tbl;
        frames = Array.make (Array.length shape.nints) nil_frame;
        sites = Array.make shape.nsites None;
      }
    in
    tbl.lanes.(tid) <- w;
    w
  end

let no_iter : int -> unit = fun _ -> ()

let lsite_of (w : lane) site ctx =
  match w.sites.(site) with
  | Some ls -> ls
  | None ->
      let ls =
        { args = None; code = No_code; iter = no_iter; ctx; outer = nil_frame }
      in
      w.sites.(site) <- Some ls;
      ls

(* ------------------------------------------------------------------ *)
(* Compile-time state                                                  *)

type var = { lvl : int; ty : Ir.ty; slot : int }

module Smap = Map.Make (String)

(* Bindings keyed by name: a later binding of a name hides the earlier
   one in the scope that holds it, and each carries its own level and
   slot, so one map serves every nesting level. *)
type senv = var Smap.t

type statics = {
  farrays : (string, Memory.farray) Hashtbl.t;
  iarrays : (string, Memory.iarray) Hashtbl.t;
}

type cc = {
  statics : statics;
  outlined : Outline.outlined list;
  options : options;
  cost : Gpusim.Config.cost;
  shape : shape;
  mutable guards : (string * var) array list;
      (* each guarded block's top-level declarations, newest site first *)
}

(* A fresh slot of the given type at a level (levels are made on first
   use; float slot [scratch] is reserved in each). *)
let new_slot cc lvl ty =
  let s = cc.shape in
  let n = Array.length s.nints in
  if lvl >= n then begin
    s.nints <- Array.append s.nints (Array.make (lvl + 1 - n) 0);
    s.nfloats <- Array.append s.nfloats (Array.make (lvl + 1 - n) 1)
  end;
  match ty with
  | Ir.Tint ->
      let slot = s.nints.(lvl) in
      s.nints.(lvl) <- slot + 1;
      slot
  | Ir.Tfloat ->
      let slot = s.nfloats.(lvl) in
      s.nfloats.(lvl) <- slot + 1;
      slot

let new_site cc =
  let s = cc.shape in
  s.nsites <- s.nsites + 1;
  s.nsites - 1

let bind cc senv lvl name ty =
  let v = { lvl; ty; slot = new_slot cc lvl ty } in
  (Smap.add name v senv, v)

let farray statics name =
  match Hashtbl.find_opt statics.farrays name with
  | Some a -> a
  | None -> err "unbound float array %s" name

let iarray statics name =
  match Hashtbl.find_opt statics.iarrays name with
  | Some a -> a
  | None -> err "unbound int array %s" name

let lookup senv name = Smap.find_opt name senv

let[@inline] charge (ctx : Team.ctx) c = Gpusim.Thread.tick ctx.Team.th c

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)

type iexpr = Team.ctx -> frame -> int

(* A float operand.  Leaves are read in place by their consumer; a
   computation writes its destination slot. *)
type fsrc =
  | Fconst of float
  | Flocal of int
  | Fouter of int * int  (* level distance, slot *)
  | Fload of Memory.farray * iexpr * Sites.t
  | Fcomp of (Team.ctx -> frame -> unit)

(* A compiled expression, typed as the walker's values would be: a mix
   the walker would fail on at run time fails at compile time. *)
type cexpr = I of iexpr | F of fsrc

let[@inline] load_float (ctx : Team.ctx) fr a cidx site =
  let i = cidx ctx fr in
  (* the site is labelled on its first sanitized access; the running
     closure only pays a flag test when the sanitizer is off *)
  if Gpusim.Thread.sanitizing ctx.Team.th then
    Gpusim.Ompsan.set_site (Sites.id site);
  Memory.fget a ctx.Team.th i

(* The operand's value; a computation compiled for it writes [scratch]. *)
let[@inline] fval ctx fr = function
  | Fconst x -> x
  | Flocal s -> fr.floats.(s)
  | Fouter (d, s) -> (frame_at fr d).floats.(s)
  | Fload (a, cidx, site) -> load_float ctx fr a cidx site
  | Fcomp f ->
      f ctx fr;
      fr.floats.(scratch)

let bool_ r = if r then 1 else 0

(* [dst] is the slot of the executing frame a float computation at the
   root writes; its operands always go through [scratch]. *)
let rec compile_expr ?(dst = scratch) cc senv lvl (e : Ir.expr) : cexpr =
  (* closures read the cost record when they charge: a float captured
     at compile time would be boxed for every node *)
  let cost = cc.cost in
  match e with
  | Ir.Int_lit n -> I (fun _ _ -> n)
  | Ir.Float_lit x -> F (Fconst x)
  | Ir.Var name -> (
      let { ty; slot; lvl = l } =
        match lookup senv name with
        | Some v -> v
        | None -> err "unbound variable %s" name
      in
      match (ty, lvl - l) with
      | Ir.Tfloat, 0 -> F (Flocal slot)
      | Ir.Tfloat, d -> F (Fouter (d, slot))
      | Ir.Tint, 0 -> I (fun _ fr -> fr.ints.(slot))
      | Ir.Tint, 1 -> I (fun _ fr -> fr.up.ints.(slot))
      | Ir.Tint, 2 -> I (fun _ fr -> fr.up.up.ints.(slot))
      | Ir.Tint, d -> I (fun _ fr -> (frame_at fr d).ints.(slot)))
  | Ir.Load (arr, idx) ->
      let a = farray cc.statics arr in
      let cidx = compile_int cc senv lvl arr idx in
      F (Fload (a, cidx, Sites.load arr idx))
  | Ir.Load_int (arr, idx) ->
      let a = iarray cc.statics arr in
      let cidx = compile_int cc senv lvl arr idx in
      let site = Sites.load arr idx in
      I
        (fun ctx fr ->
          let i = cidx ctx fr in
          if Gpusim.Thread.sanitizing ctx.Team.th then
            Gpusim.Ompsan.set_site (Sites.id site);
          Memory.iget a ctx.Team.th i)
  | Ir.Unop (op, a) -> (
      match (op, compile_expr cc senv lvl a) with
      | (Ir.Neg | Ir.Not | Ir.Abs), I ca ->
          I
            (fun ctx fr ->
              let n = ca ctx fr in
              charge ctx cost.Gpusim.Config.alu;
              match op with Ir.Neg -> -n | Ir.Not -> bool_ (n = 0) | _ -> abs n)
      | Ir.To_float, I ca ->
          F
            (Fcomp
               (fun ctx fr ->
                 let n = ca ctx fr in
                 charge ctx cost.Gpusim.Config.alu;
                 fr.floats.(dst) <- float_of_int n))
      | Ir.To_int, F fa ->
          I
            (fun ctx fr ->
              let x = fval ctx fr fa in
              charge ctx cost.Gpusim.Config.alu;
              int_of_float x)
      | (Ir.Neg | Ir.Abs | Ir.Sqrt | Ir.Exp | Ir.Log), F fa ->
          F
            (Fcomp
               (fun ctx fr ->
                 let x = fval ctx fr fa in
                 charge ctx
                   (match op with
                   | Ir.Neg | Ir.Abs -> cost.Gpusim.Config.alu
                   | _ -> cost.Gpusim.Config.special);
                 fr.floats.(dst) <-
                   (match op with
                   | Ir.Neg -> -.x
                   | Ir.Abs -> abs_float x
                   | Ir.Sqrt -> sqrt x
                   | Ir.Exp -> exp x
                   | _ -> log x)))
      | Ir.Not, F _ -> err "!: expected an int"
      | Ir.To_float, F _ -> err "(double): expected an int"
      | Ir.To_int, I _ -> err "(int): expected a float"
      | (Ir.Sqrt | Ir.Exp | Ir.Log), I _ -> err "sqrt/exp/log: expected a float")
  | Ir.Binop (op, a, b) -> (
      match (compile_expr cc senv lvl a, compile_expr cc senv lvl b) with
      | I ca, I cb ->
          I
            (fun ctx fr ->
              let x = ca ctx fr in
              let y = cb ctx fr in
              charge ctx cost.Gpusim.Config.alu;
              match op with
              | Ir.Add -> x + y
              | Ir.Sub -> x - y
              | Ir.Mul -> x * y
              | Ir.Div -> if y = 0 then err "division by zero" else x / y
              | Ir.Mod -> if y = 0 then err "mod by zero" else x mod y
              | Ir.Min -> min x y
              | Ir.Max -> max x y
              | Ir.Lt -> bool_ (x < y)
              | Ir.Le -> bool_ (x <= y)
              | Ir.Gt -> bool_ (x > y)
              | Ir.Ge -> bool_ (x >= y)
              | Ir.Eq -> bool_ (x = y)
              | Ir.Ne -> bool_ (x <> y)
              | Ir.And -> bool_ (x <> 0 && y <> 0)
              | Ir.Or -> bool_ (x <> 0 || y <> 0))
      | F fa, F fb -> (
          match op with
          | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne ->
              I
                (fun ctx fr ->
                  let x = fval ctx fr fa in
                  let y = fval ctx fr fb in
                  charge ctx cost.Gpusim.Config.flop;
                  bool_
                    (match op with
                    | Ir.Lt -> x < y
                    | Ir.Le -> x <= y
                    | Ir.Gt -> x > y
                    | Ir.Ge -> x >= y
                    | Ir.Eq -> x = y
                    | _ -> x <> y))
          | Ir.Div ->
              F
                (Fcomp
                   (fun ctx fr ->
                     let x = fval ctx fr fa in
                     let y = fval ctx fr fb in
                     charge ctx cost.Gpusim.Config.flop;
                     charge ctx
                       (cost.Gpusim.Config.special -. cost.Gpusim.Config.flop);
                     fr.floats.(dst) <- x /. y))
          | Ir.Add | Ir.Sub | Ir.Mul | Ir.Min | Ir.Max ->
              F
                (Fcomp
                   (fun ctx fr ->
                     let x = fval ctx fr fa in
                     let y = fval ctx fr fb in
                     charge ctx cost.Gpusim.Config.flop;
                     fr.floats.(dst) <-
                       (match op with
                       | Ir.Add -> x +. y
                       | Ir.Sub -> x -. y
                       | Ir.Mul -> x *. y
                       | Ir.Min -> Float.min x y
                       | _ -> Float.max x y)))
          | Ir.And | Ir.Or -> err "logic op on floats"
          | Ir.Mod -> err "mod on floats")
      | _ -> err "mixed operand types")

and compile_int cc senv lvl what e =
  match compile_expr cc senv lvl e with
  | I c -> c
  | F _ -> err "%s: expected an int" what

let compile_float cc senv lvl what e =
  match compile_expr cc senv lvl e with
  | F f -> f
  | I _ -> err "%s: expected a float" what

(* Compute [e] into float slot [slot] of the frame [d] levels out,
   charging an ALU op after the value and before the write, as the
   walker's declarations and assignments do. *)
let compile_float_into cc senv lvl what ~d ~slot e =
  let cost = cc.cost in
  match compile_expr ~dst:(if d = 0 then slot else scratch) cc senv lvl e with
  | F (Fcomp f) when d = 0 ->
      fun ctx fr ->
        f ctx fr;
        charge ctx cost.Gpusim.Config.alu
  | F src ->
      fun ctx fr ->
        let x = fval ctx fr src in
        charge ctx cost.Gpusim.Config.alu;
        (frame_at fr d).floats.(slot) <- x
  | I _ -> err "%s: expected a float" what

(* ------------------------------------------------------------------ *)
(* Payloads: built once per creating lane and site, refreshed in place *)

type capture =
  | Cap_fixed of Payload.value  (* an array: the same slot every entry *)
  | Cap_int of int * int  (* level distance, slot *)
  | Cap_float of int * int

let compile_captures cc senv lvl captures =
  let capture name =
    match Hashtbl.find_opt cc.statics.farrays name with
    | Some a -> Cap_fixed (Payload.Farr a)
    | None -> (
        match Hashtbl.find_opt cc.statics.iarrays name with
        | Some a -> Cap_fixed (Payload.Iarr a)
        | None -> (
            match lookup senv name with
            | Some { ty = Ir.Tint; lvl = l; slot } -> Cap_int (lvl - l, slot)
            | Some { ty = Ir.Tfloat; lvl = l; slot } -> Cap_float (lvl - l, slot)
            | None -> err "capture %s is unbound" name))
  in
  Array.of_list (List.map capture captures)

let new_payload caps =
  Array.map
    (function
      | Cap_fixed v -> v
      | Cap_int _ -> Payload.Int (ref 0)
      | Cap_float _ -> Payload.Float (ref 0.0))
    caps

(* Rewrite the payload's scalars with the creator's current values.  A
   float slot is rewritten only when its bits change: a [float ref]
   boxes what it is given. *)
let refresh caps (p : Payload.t) fr =
  for i = 0 to Array.length caps - 1 do
    match (caps.(i), p.(i)) with
    | Cap_int (d, s), Payload.Int r -> r := (frame_at fr d).ints.(s)
    | Cap_float (d, s), Payload.Float r ->
        let x = (frame_at fr d).floats.(s) in
        if (Int64.bits_of_float x : int64) <> Int64.bits_of_float !r then r := x
    | _ -> ()
  done

(* The creating lane's state at a site: its payload, refreshed, and its
   code, built on its first entry by [make] over its frame. *)
let creator caps site make (ctx : Team.ctx) fr =
  let ls = lsite_of fr.owner site ctx in
  (match ls.args with
  | Some p -> refresh caps p fr
  | None ->
      let p = new_payload caps in
      refresh caps p fr;
      ls.args <- Some p;
      ls.code <- make fr);
  ls

let find_outlined outlined fn_id =
  List.find (fun (o : Outline.outlined) -> o.Outline.fn_id = fn_id) outlined

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)

type cstmt = Team.ctx -> frame -> unit

let schedule_of (d : Ir.loop_directive) =
  match d.Ir.sched with
  | Ir.Sched_static -> Workshare.Static
  | Ir.Sched_chunked n -> Workshare.Chunked n
  | Ir.Sched_dynamic n -> Workshare.Dynamic n

let region_mode (options : options) (d : Ir.loop_directive) =
  match options.parallel_mode with
  | `Force m -> m
  | `Auto -> Spmdize.directive_mode d

let seq (stmts : cstmt array) : cstmt =
  match stmts with
  | [||] -> fun _ _ -> ()
  | [| a |] -> a
  | [| a; b |] ->
      fun ctx fr ->
        a ctx fr;
        b ctx fr
  | _ ->
      fun ctx fr ->
        for i = 0 to Array.length stmts - 1 do
          stmts.(i) ctx fr
        done

(* A parallel region's static part: its site, its body's level, slots
   and code, and its schedule.  The per-lane closures capture it and one
   frame, and nothing else. *)
type region = {
  r_site : int;
  r_blvl : int;
  r_iv : int;  (* the loop variable, in the body frame *)
  r_lo : int;  (* the lower bound and trip count, in the creator's frame *)
  r_trip : int;
  r_schedule : Workshare.schedule option;
  r_distribute : bool;
  r_body : cstmt;
}

(* An executing lane's iteration: its body frame, linked to the
   creator's frame of this activation, runs with the loop variable. *)
let region_iteration r (w : lane) ws iv =
  let f = frame_of w r.r_blvl in
  let outer = ws.outer in
  if f.up != outer then f.up <- outer;
  f.ints.(r.r_iv) <- outer.ints.(r.r_lo) + iv;
  r.r_body ws.ctx f

(* The microtask of a region created over [lf], run by each executing
   lane. *)
let region_task r lf ctx =
  let w = lane_of lf.owner.tbl ctx in
  let ws = lsite_of w r.r_site ctx in
  if ws.iter == no_iter then ws.iter <- region_iteration r w ws;
  ws.ctx <- ctx;
  ws.outer <- lf;
  let trip = lf.ints.(r.r_trip) and schedule = r.r_schedule in
  if r.r_distribute then
    Workshare.distribute_parallel_for ctx ?schedule ~trip ws.iter
  else Workshare.omp_for ctx ?schedule ~trip ws.iter

(* A simd loop's static part, as [region]'s; [l_red] is a reduction's
   summand slot in the body frame. *)
type loop = {
  l_blvl : int;
  l_iv : int;
  l_lo : int;
  l_red : int;
  l_body : cstmt;
}

(* The simd-body frame of the executing lane for iteration [iv] of the
   loop created over [lf]. *)
let simd_frame l lf (ctx : Team.ctx) iv =
  let f = frame_of (lane_of lf.owner.tbl ctx) l.l_blvl in
  if f.up != lf then f.up <- lf;
  f.ints.(l.l_iv) <- lf.ints.(l.l_lo) + iv;
  f

(* One iteration of a simd reduction: the body, then the summand. *)
let simd_summand l lf ctx iv =
  let f = simd_frame l lf ctx iv in
  f.floats.(l.l_red) <- 0.0;
  l.l_body ctx f;
  f.floats.(l.l_red)

(* Compile [stmts] at level [lvl] in a scope of their own; returns the
   block and the scope after its last statement.  [kernel] marks the
   kernel's top-level body: a parallel region that ends it is every
   thread's last action. *)
let rec compile_stmts ?(kernel = false) cc senv lvl stmts =
  let rec go senv acc = function
    | [] -> (senv, seq (Array.of_list (List.rev acc)))
    | s :: rest ->
        let last = kernel && rest = [] in
        let senv', cs = compile_stmt cc ~last senv lvl s in
        go senv' (cs :: acc) rest
  in
  go senv [] stmts

and compile_block cc senv lvl stmts = snd (compile_stmts cc senv lvl stmts)

and compile_region cc senv lvl (d : Ir.loop_directive) ~last ~distribute =
  let o = find_outlined cc.outlined d.Ir.fn_id in
  let caps = compile_captures cc senv lvl o.Outline.captures in
  let clo = compile_int cc senv lvl d.Ir.loop_var d.Ir.lo in
  let chi = compile_int cc senv lvl d.Ir.loop_var d.Ir.hi in
  let lo = new_slot cc lvl Ir.Tint in
  let trip = new_slot cc lvl Ir.Tint in
  let blvl = lvl + 1 in
  let senv_body, iv = bind cc senv blvl d.Ir.loop_var Ir.Tint in
  let body = compile_block cc senv_body blvl d.Ir.body in
  let r =
    {
      r_site = new_site cc;
      r_blvl = blvl;
      r_iv = iv.slot;
      r_lo = lo;
      r_trip = trip;
      r_schedule = Some (schedule_of d);
      r_distribute = distribute;
      r_body = body;
    }
  in
  let mode = region_mode cc.options d in
  let fn_id = Some d.Ir.fn_id in
  let last = Some last in
  let simd_len = cc.options.simd_len in
  let microtask lf = Micro (fun ctx _ -> region_task r lf ctx) in
  fun ctx lf ->
    let ls = creator caps r.r_site microtask ctx lf in
    let l = clo ctx lf in
    let h = chi ctx lf in
    lf.ints.(lo) <- l;
    lf.ints.(trip) <- max 0 (h - l);
    match ls.code with
    | Micro fn ->
        Parallel.parallel ctx ~mode ~simd_len ?payload:ls.args ?fn_id ?last fn
    | No_code | Body _ | Red _ -> err "internal: region site without a microtask"

and compile_stmt cc ~last senv lvl (s : Ir.stmt) : senv * cstmt =
  let statics = cc.statics and cost = cc.cost in
  match s with
  | Ir.Decl { name; ty; init } -> (
      match ty with
      | Ir.Tint ->
          let ce = compile_int cc senv lvl name init in
          let senv', v = bind cc senv lvl name Ir.Tint in
          let slot = v.slot in
          ( senv',
            fun ctx fr ->
              let n = ce ctx fr in
              charge ctx cost.Gpusim.Config.alu;
              fr.ints.(slot) <- n )
      | Ir.Tfloat ->
          (* the slot is taken first, so the value can be computed
             straight into it; the initializer still resolves names in
             the scope before the declaration *)
          let senv', v = bind cc senv lvl name Ir.Tfloat in
          ( senv',
            compile_float_into cc senv lvl name ~d:0 ~slot:v.slot init ))
  | Ir.Assign (name, e) -> (
      let v, d =
        match lookup senv name with
        | Some v -> (v, lvl - v.lvl)
        | None -> err "assignment to unbound %s" name
      in
      match v.ty with
      | Ir.Tint ->
          let ce = compile_int cc senv lvl name e in
          let slot = v.slot in
          ( senv,
            fun ctx fr ->
              let n = ce ctx fr in
              charge ctx cost.Gpusim.Config.alu;
              (frame_at fr d).ints.(slot) <- n )
      | Ir.Tfloat ->
          (senv, compile_float_into cc senv lvl name ~d ~slot:v.slot e))
  | Ir.Store (arr, idx, value) ->
      let a = farray statics arr in
      let cidx = compile_int cc senv lvl arr idx in
      let fv = compile_float cc senv lvl arr value in
      let site = Sites.store arr idx in
      ( senv,
        fun ctx fr ->
          let i = cidx ctx fr in
          let x = fval ctx fr fv in
          if Gpusim.Thread.sanitizing ctx.Team.th then
            Gpusim.Ompsan.set_site (Sites.id site);
          Memory.fset a ctx.Team.th i x )
  | Ir.Store_int (arr, idx, value) ->
      let a = iarray statics arr in
      let cidx = compile_int cc senv lvl arr idx in
      let cv = compile_int cc senv lvl arr value in
      let site = Sites.store arr idx in
      ( senv,
        fun ctx fr ->
          let i = cidx ctx fr in
          let n = cv ctx fr in
          if Gpusim.Thread.sanitizing ctx.Team.th then
            Gpusim.Ompsan.set_site (Sites.id site);
          Memory.iset a ctx.Team.th i n )
  | Ir.Atomic_add (arr, idx, value) ->
      let a = farray statics arr in
      let cidx = compile_int cc senv lvl arr idx in
      let fv = compile_float cc senv lvl arr value in
      let site = Sites.atomic arr idx in
      ( senv,
        fun ctx fr ->
          let i = cidx ctx fr in
          let x = fval ctx fr fv in
          if Gpusim.Thread.sanitizing ctx.Team.th then
            Gpusim.Ompsan.set_site (Sites.id site);
          Memory.atomic_fadd a ctx.Team.th i x )
  | Ir.If (cond, then_, else_) ->
      let ccond = compile_int cc senv lvl "if" cond in
      let cthen = compile_block cc senv lvl then_ in
      let celse = compile_block cc senv lvl else_ in
      ( senv,
        fun ctx fr ->
          charge ctx cost.Gpusim.Config.branch;
          if ccond ctx fr <> 0 then cthen ctx fr else celse ctx fr )
  | Ir.While (cond, body) ->
      let ccond = compile_int cc senv lvl "while" cond in
      let cbody = compile_block cc senv lvl body in
      ( senv,
        fun ctx fr ->
          charge ctx cost.Gpusim.Config.branch;
          while ccond ctx fr <> 0 do
            cbody ctx fr;
            charge ctx cost.Gpusim.Config.branch
          done )
  | Ir.For { var; lo; hi; body } ->
      let clo = compile_int cc senv lvl var lo in
      let chi = compile_int cc senv lvl var hi in
      let senv_body, v = bind cc senv lvl var Ir.Tint in
      let cbody = compile_block cc senv_body lvl body in
      let slot = v.slot in
      ( senv,
        fun ctx fr ->
          let lo = clo ctx fr in
          let hi = chi ctx fr in
          let step = cost.Gpusim.Config.alu +. cost.Gpusim.Config.branch in
          for iv = lo to hi - 1 do
            charge ctx step;
            fr.ints.(slot) <- iv;
            cbody ctx fr
          done )
  | Ir.Distribute_parallel_for d ->
      (senv, compile_region cc senv lvl d ~last ~distribute:true)
  | Ir.Parallel_for d -> (senv, compile_region cc senv lvl d ~last ~distribute:false)
  | Ir.Simd d -> (senv, compile_simd cc senv lvl d ~sum:None)
  | Ir.Simd_sum { acc; value; dir } ->
      (senv, compile_simd cc senv lvl dir ~sum:(Some (acc, value)))
  | Ir.Guarded body -> compile_guarded cc senv lvl body
  | Ir.Sync -> (senv, fun ctx _ -> Team.region_barrier_wait ctx)

(* A simd loop, or with [sum] a simd reduction into an outer float. *)
and compile_simd cc senv lvl (d : Ir.loop_directive) ~sum =
  let o = find_outlined cc.outlined d.Ir.fn_id in
  let caps = compile_captures cc senv lvl o.Outline.captures in
  let clo = compile_int cc senv lvl d.Ir.loop_var d.Ir.lo in
  let chi = compile_int cc senv lvl d.Ir.loop_var d.Ir.hi in
  let lo = new_slot cc lvl Ir.Tint in
  let blvl = lvl + 1 in
  let site = new_site cc in
  let fn_id = Some d.Ir.fn_id in
  match sum with
  | None ->
      let senv_body, iv = bind cc senv blvl d.Ir.loop_var Ir.Tint in
      let l =
        {
          l_blvl = blvl;
          l_iv = iv.slot;
          l_lo = lo;
          l_red = scratch;
          l_body = compile_block cc senv_body blvl d.Ir.body;
        }
      in
      let simd_body lf = Body (fun ctx iv _ -> l.l_body ctx (simd_frame l lf ctx iv)) in
      fun ctx lf ->
        let ls = creator caps site simd_body ctx lf in
        let lo_v = clo ctx lf in
        let hi_v = chi ctx lf in
        lf.ints.(lo) <- lo_v;
        (match ls.code with
        | Body fn -> Simd.simd ctx ?payload:ls.args ?fn_id ~trip:(max 0 (hi_v - lo_v)) fn
        | No_code | Micro _ | Red _ -> err "internal: simd site without a body")
  | Some (acc, value) ->
      let acc_var, acc_d =
        match lookup senv acc with
        | Some ({ ty = Ir.Tfloat; _ } as v) -> (v, lvl - v.lvl)
        | Some _ -> err "reduction accumulator %s: expected a float" acc
        | None -> err "reduction accumulator %s is unbound" acc
      in
      (* as in the walker: a synthesized trailing assignment into a
         per-iteration slot lets the summand see the body's decls; the
         loop variable wins a clash of names *)
      let red = "__red" in
      let senv_body, rv = bind cc senv blvl red Ir.Tfloat in
      let senv_body, iv = bind cc senv_body blvl d.Ir.loop_var Ir.Tint in
      let l =
        {
          l_blvl = blvl;
          l_iv = iv.slot;
          l_lo = lo;
          l_red = rv.slot;
          l_body =
            compile_block cc senv_body blvl (d.Ir.body @ [ Ir.Assign (red, value) ]);
        }
      in
      let reducer lf = Red (fun ctx iv _ -> simd_summand l lf ctx iv) in
      let acc_slot = acc_var.slot in
      fun ctx lf ->
        let ls = creator caps site reducer ctx lf in
        let lo_v = clo ctx lf in
        let hi_v = chi ctx lf in
        lf.ints.(lo) <- lo_v;
        (match ls.code with
        | Red fn ->
            let total =
              Simd.simd_sum ctx ?payload:ls.args ?fn_id ~trip:(max 0 (hi_v - lo_v)) fn
            in
            (frame_at lf acc_d).floats.(acc_slot) <- total
        | No_code | Micro _ | Body _ -> err "internal: reduction site without a reducer")

(* The top-level declarations of guarded block [site], complete once the
   kernel is compiled. *)
and guard_entries cc site =
  List.nth cc.guards (List.length cc.guards - 1 - site)

(* Thread guarding: only the SIMD group's leader runs the block; the
   values it declares are broadcast to the other lanes, whose scopes
   they extend.  The declarations take slots of the enclosing frame, so
   a lane that did not run the block copies the leader's slots into its
   own. *)
and compile_guarded cc senv lvl body =
  let rec go senv acc entries = function
    | [] -> (senv, seq (Array.of_list (List.rev acc)), Array.of_list (List.rev entries))
    | s :: rest ->
        let senv', cs = compile_stmt cc ~last:false senv lvl s in
        let entries =
          match s with
          | Ir.Decl { name; _ } -> (
              match lookup senv' name with
              | Some v -> (name, v) :: entries
              | None -> entries)
          | _ -> entries
        in
        go senv' (cs :: acc) entries rest
  in
  let senv', run_body, entries = go senv [] [] body in
  let site = List.length cc.guards in
  cc.guards <- entries :: cc.guards;
  let nentries = Array.length entries in
  (* the walker publishes the block's declarations as (name, value)
     pairs; a lane of the same block takes them slot for slot, one of
     another block (divergent guards) by name *)
  let slots ty =
    Array.of_list
      (List.filter_map
         (fun (_, (v : var)) -> if v.ty = ty then Some v.slot else None)
         (Array.to_list entries))
  in
  let islots = slots Ir.Tint and fslots = slots Ir.Tfloat in
  let take ~from_site (src : frame) (dst : frame) =
    if from_site = site then begin
      for i = 0 to Array.length islots - 1 do
        let s = islots.(i) in
        dst.ints.(s) <- src.ints.(s)
      done;
      for i = 0 to Array.length fslots - 1 do
        let s = fslots.(i) in
        dst.floats.(s) <- src.floats.(s)
      done
    end
    else
      Array.iter
        (fun (name, (sv : var)) ->
          let rec newest i =
            if i >= 0 then
              match entries.(i) with
              | n, (v : var) when n = name ->
                  if v.ty = sv.ty then (
                    match v.ty with
                    | Ir.Tint -> dst.ints.(v.slot) <- src.ints.(sv.slot)
                    | Ir.Tfloat -> dst.floats.(v.slot) <- src.floats.(sv.slot))
              | _ -> newest (i - 1)
          in
          newest (nentries - 1))
        (guard_entries cc from_site)
  in
  let nentries_of from_site =
    if from_site = site then nentries
    else Array.length (guard_entries cc from_site)
  in
  let smem_cost (ctx : Team.ctx) n =
    for _ = 1 to n do
      Gpusim.Shared.touch ctx.Team.th ~bytes:8
    done
  in
  ( senv',
    fun ctx lf ->
      let team = ctx.Team.team in
      let g = Team.geometry team in
      let gs = Omprt.Simd_group.get_simd_group_size g in
      let generic_task =
        match team.Team.active_task with
        | Some task -> task.Team.task_mode = Mode.Generic
        | None -> false
      in
      if gs = 1 || generic_task then
        (* a single executor per group already: the guard is free *)
        run_body ctx lf
      else begin
        let th = ctx.Team.th in
        let tid = th.Gpusim.Thread.tid in
        let group = Omprt.Simd_group.get_simd_group g ~tid in
        let tbl = lf.owner.tbl in
        if Omprt.Simd_group.is_simd_group_leader g ~tid then begin
          (* the body runs at the group's issue width; the factor
             save/restore is hand-inlined, a thunk would allocate *)
          let saved = Gpusim.Thread.simt_factor th in
          Gpusim.Thread.set_simt_factor th (float_of_int gs);
          (match run_body ctx lf with
          | () -> Gpusim.Thread.set_simt_factor th saved
          | exception e ->
              Gpusim.Thread.set_simt_factor th saved;
              raise e);
          smem_cost ctx nentries;
          tbl.bcast_lane.(group) <- lf.owner;
          tbl.bcast_site.(group) <- site;
          Gpusim.Counters.bump th.Gpusim.Thread.counters "guard.blocks" 1.0;
          Team.sync_warp ctx;
          (* the closing barrier keeps the leader's slots unchanged
             until every lane has read them *)
          Team.sync_warp ctx
        end
        else begin
          Team.sync_warp ctx;
          let from_site = tbl.bcast_site.(group) in
          if from_site >= 0 then begin
            smem_cost ctx (nentries_of from_site);
            take ~from_site tbl.bcast_lane.(group).frames.(lvl) lf
          end;
          Team.sync_warp ctx
        end
      end )

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)

(* The lane table of [team], made on the team's first kernel entry; a
   recycled team keeps its table, whose broadcasts are cleared when it
   starts a new block.  Teams of one launch may run on several domains
   at once, hence the atomic list. *)
let rec find_table team = function
  | [] -> nil_table
  | (t, tbl) :: rest -> if t == team then tbl else find_table team rest

let rec table_for tables shape ~threads ~guarded (team : Team.t) =
  let known = Atomic.get tables in
  let tbl = find_table team known in
  if tbl != nil_table then begin
    if tbl.block <> team.Team.block_id then begin
      Array.fill tbl.bcast_site 0 (Array.length tbl.bcast_site) (-1);
      tbl.block <- team.Team.block_id
    end;
    tbl
  end
  else begin
    let groups = if guarded then threads else 0 in
    let tbl =
      {
        shape;
        block = team.Team.block_id;
        lanes = Array.make threads nil_lane;
        bcast_lane = Array.make groups nil_lane;
        bcast_site = Array.make groups (-1);
      }
    in
    if Atomic.compare_and_set tables known ((team, tbl) :: known) then tbl
    else table_for tables shape ~threads ~guarded team
  end

let run ~cfg ?pool ?trace ?nonce ~(options : options) ~bindings
    (p : Outline.program) =
  let statics = { farrays = Hashtbl.create 8; iarrays = Hashtbl.create 8 } in
  (* the kernel frame's level exists even without a scalar *)
  let shape = { nints = [| 0 |]; nfloats = [| 1 |]; nsites = 0 } in
  let cc =
    {
      statics;
      outlined = p.Outline.outlined;
      options;
      cost = cfg.Gpusim.Config.cost;
      shape;
      guards = [];
    }
  in
  (* scalar parameters take the first slots of the kernel frame, in
     parameter order *)
  let senv = ref Smap.empty in
  let root_ints = ref [] and root_floats = ref [] in
  List.iter
    (fun (prm : Ir.param) ->
      let name = prm.Ir.pname in
      match (prm.Ir.pty, List.assoc_opt name bindings) with
      | _, None -> err "parameter %s is not bound" name
      | Ir.P_farray, Some (B_farr a) -> Hashtbl.replace statics.farrays name a
      | Ir.P_iarray, Some (B_iarr a) -> Hashtbl.replace statics.iarrays name a
      | Ir.P_int, Some (B_int n) ->
          let s, _ = bind cc !senv 0 name Ir.Tint in
          senv := s;
          root_ints := n :: !root_ints
      | Ir.P_float, Some (B_float x) ->
          let s, _ = bind cc !senv 0 name Ir.Tfloat in
          senv := s;
          root_floats := x :: !root_floats
      | _, Some _ -> err "parameter %s bound with the wrong kind" name)
    p.Outline.kernel.Ir.params;
  let root_ints = Array.of_list (List.rev !root_ints) in
  let root_floats = Array.of_list (List.rev !root_floats) in
  let _, body =
    compile_stmts ~kernel:true cc !senv 0 p.Outline.kernel.Ir.body
  in
  let params =
    {
      Team.num_teams = options.num_teams;
      num_threads = options.num_threads;
      teams_mode = options.teams_mode;
      sharing_bytes = options.sharing_bytes;
    }
  in
  let threads = Team.block_threads ~cfg params in
  let tables = Atomic.make [] in
  let guarded = cc.guards <> [] in
  let nints = Array.length root_ints and nfloats = Array.length root_floats in
  Target.launch ~cfg ?pool ?trace ?nonce ~kernel:p.Outline.kernel.Ir.kname
    ~params ~dispatch_table_size:(Outline.dispatch_table_size p) (fun ctx ->
      (* every executing thread owns a private copy of the kernel scope *)
      let tbl = table_for tables shape ~threads ~guarded ctx.Team.team in
      let f = frame_of (lane_of tbl ctx) 0 in
      Array.blit root_ints 0 f.ints 0 nints;
      Array.blit root_floats 0 f.floats 1 nfloats;
      body ctx f)
