(* Content digest of a kernel — the identity under which the service
   layer caches compilation.

   The digest is an MD5 over an injective byte serialization of the
   kernel structure: every constructor writes a distinct tag, strings
   are length-prefixed, ints are written in full 64-bit width and floats
   as their IEEE bit patterns, so two kernels collide only if they are
   structurally equal (up to MD5 itself).  The [fn_id] annotation that
   {!Outline.run} stamps onto directives is deliberately excluded:
   outlining is deterministic given the structure, and excluding the ids
   makes the digest identical before and after annotation — the same
   kernel text always maps to the same digest whether it arrives fresh
   from the parser or round-trips through the pipeline. *)

let add_int buf n =
  let n = Int64.of_int n in
  for shift = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * shift)) 0xFFL)))
  done

let add_float buf x = add_int buf (Int64.to_int (Int64.bits_of_float x))

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_tag buf c = Buffer.add_char buf c

let tag_of_binop = function
  | Ir.Add -> 'a' | Ir.Sub -> 'b' | Ir.Mul -> 'c' | Ir.Div -> 'd'
  | Ir.Mod -> 'e' | Ir.Min -> 'f' | Ir.Max -> 'g' | Ir.Lt -> 'h'
  | Ir.Le -> 'i' | Ir.Gt -> 'j' | Ir.Ge -> 'k' | Ir.Eq -> 'l'
  | Ir.Ne -> 'm' | Ir.And -> 'n' | Ir.Or -> 'o'

let tag_of_unop = function
  | Ir.Neg -> 'p' | Ir.Not -> 'q' | Ir.To_float -> 'r' | Ir.To_int -> 's'
  | Ir.Sqrt -> 't' | Ir.Exp -> 'u' | Ir.Log -> 'v' | Ir.Abs -> 'w'

let rec add_expr buf = function
  | Ir.Int_lit n ->
      add_tag buf 'I';
      add_int buf n
  | Ir.Float_lit x ->
      add_tag buf 'F';
      add_float buf x
  | Ir.Var name ->
      add_tag buf 'V';
      add_string buf name
  | Ir.Binop (op, a, b) ->
      add_tag buf 'B';
      add_tag buf (tag_of_binop op);
      add_expr buf a;
      add_expr buf b
  | Ir.Unop (op, a) ->
      add_tag buf 'U';
      add_tag buf (tag_of_unop op);
      add_expr buf a
  | Ir.Load (arr, idx) ->
      add_tag buf 'L';
      add_string buf arr;
      add_expr buf idx
  | Ir.Load_int (arr, idx) ->
      add_tag buf 'M';
      add_string buf arr;
      add_expr buf idx

let add_sched buf = function
  | Ir.Sched_static -> add_tag buf '0'
  | Ir.Sched_chunked c ->
      add_tag buf '1';
      add_int buf c
  | Ir.Sched_dynamic c ->
      add_tag buf '2';
      add_int buf c

(* [fn_id] is intentionally NOT serialized — see the header comment. *)
let rec add_dir buf (d : Ir.loop_directive) =
  add_string buf d.Ir.loop_var;
  add_expr buf d.Ir.lo;
  add_expr buf d.Ir.hi;
  add_sched buf d.Ir.sched;
  add_stmts buf d.Ir.body

and add_stmts buf stmts =
  add_int buf (List.length stmts);
  List.iter (add_stmt buf) stmts

and add_stmt buf = function
  | Ir.Decl { name; ty; init } ->
      add_tag buf 'D';
      add_string buf name;
      add_tag buf (match ty with Ir.Tint -> 'i' | Ir.Tfloat -> 'f');
      add_expr buf init
  | Ir.Assign (name, e) ->
      add_tag buf 'A';
      add_string buf name;
      add_expr buf e
  | Ir.Store (arr, idx, v) ->
      add_tag buf 'S';
      add_string buf arr;
      add_expr buf idx;
      add_expr buf v
  | Ir.Store_int (arr, idx, v) ->
      add_tag buf 'T';
      add_string buf arr;
      add_expr buf idx;
      add_expr buf v
  | Ir.Atomic_add (arr, idx, v) ->
      add_tag buf '@';
      add_string buf arr;
      add_expr buf idx;
      add_expr buf v
  | Ir.If (cond, then_, else_) ->
      add_tag buf '?';
      add_expr buf cond;
      add_stmts buf then_;
      add_stmts buf else_
  | Ir.While (cond, body) ->
      add_tag buf 'W';
      add_expr buf cond;
      add_stmts buf body
  | Ir.For { var; lo; hi; body } ->
      add_tag buf 'R';
      add_string buf var;
      add_expr buf lo;
      add_expr buf hi;
      add_stmts buf body
  | Ir.Distribute_parallel_for d ->
      add_tag buf 'P';
      add_dir buf d
  | Ir.Parallel_for d ->
      add_tag buf 'p';
      add_dir buf d
  | Ir.Simd d ->
      add_tag buf 's';
      add_dir buf d
  | Ir.Simd_sum { acc; value; dir } ->
      add_tag buf '+';
      add_string buf acc;
      add_expr buf value;
      add_dir buf dir
  | Ir.Guarded body ->
      add_tag buf 'G';
      add_stmts buf body
  | Ir.Sync -> add_tag buf '!'

let add_param buf (p : Ir.param) =
  add_string buf p.Ir.pname;
  add_tag buf
    (match p.Ir.pty with
    | Ir.P_farray -> 'f'
    | Ir.P_iarray -> 'i'
    | Ir.P_int -> 'n'
    | Ir.P_float -> 'x')

let bytes_of_kernel (k : Ir.kernel) =
  let buf = Buffer.create 512 in
  add_string buf k.Ir.kname;
  add_int buf (List.length k.Ir.params);
  List.iter (add_param buf) k.Ir.params;
  add_stmts buf k.Ir.body;
  Buffer.contents buf

let hex k = Stdlib.Digest.to_hex (Stdlib.Digest.string (bytes_of_kernel k))

(* Structural size, used by the service layer as a deterministic proxy
   for compile cost (virtual ticks must not depend on the host). *)
let body_weight body =
  let rec expr n = function
    | Ir.Int_lit _ | Ir.Float_lit _ | Ir.Var _ -> n + 1
    | Ir.Binop (_, a, b) -> expr (expr (n + 1) a) b
    | Ir.Unop (_, a) | Ir.Load (_, a) | Ir.Load_int (_, a) -> expr (n + 1) a
  in
  Ir.fold_directives (fun n s -> Ir.fold_exprs expr (n + 1) s) 0 body

let weight (k : Ir.kernel) = List.length k.Ir.params + body_weight k.Ir.body
