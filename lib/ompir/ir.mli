(** The kernel IR — a small block-structured language standing in for the
    LLVM IR that Clang's OpenMP codegen produces (§4).

    A {!kernel} is the body of one [target teams] region.  Worksharing
    directives are first-class statements; the {!Outline} pass later
    isolates their bodies into "loop tasks" with explicit captured-variable
    payloads, exactly as the OpenMP IR Builder does, and {!Eval} executes
    the result on the simulated GPU runtime. *)

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
  | Load of string * expr  (** float-array parameter element *)
  | Load_int of string * expr  (** int-array parameter element *)

type schedule = Sched_static | Sched_chunked of int | Sched_dynamic of int

type stmt =
  | Decl of { name : string; ty : ty; init : expr }
      (** local variable (an alloca); candidates for globalization *)
  | Assign of string * expr
  | Store of string * expr * expr  (** array, index, value *)
  | Store_int of string * expr * expr
  | Atomic_add of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
      (** plain sequential loop *)
  | Distribute_parallel_for of loop_directive
      (** combined teams-level worksharing loop *)
  | Parallel_for of loop_directive
  | Simd of loop_directive
  | Simd_sum of { acc : string; value : expr; dir : loop_directive }
      (** [simd reduction(+:acc)] — §7's future work, implemented: run the
          directive's body per iteration, evaluate [value], sum across the
          group, assign the total to the (outer, float) local [acc] *)
  | Guarded of stmt list
      (** thread guarding + variable broadcasting in the style of [16]:
          inside an SPMD parallel region, only each group's SIMD main
          executes the block (so its side effects happen once); the values
          it declares are broadcast to the group's other lanes, whose
          scopes they then extend.  Inserted by {!Spmdize.guardize}; the
          mechanism the paper's §7 plans for SPMDizing parallel regions. *)
  | Sync  (** a region-level barrier *)

and loop_directive = {
  loop_var : string;
  lo : expr;
  hi : expr;  (** exclusive; trip count is [hi - lo] *)
  body : stmt list;
  fn_id : int;  (** assigned by {!Outline}; -1 before outlining *)
  sched : schedule;  (** schedule clause for the worksharing levels *)
}

type param_ty = P_farray | P_iarray | P_int | P_float

type param = { pname : string; pty : param_ty }

type kernel = { kname : string; params : param list; body : stmt list }

val kernel : name:string -> params:param list -> stmt list -> kernel

(* Convenience constructors so kernels read almost like the pragmas. *)
val simd : var:string -> lo:expr -> hi:expr -> stmt list -> stmt

val simd_sum :
  acc:string -> var:string -> lo:expr -> hi:expr -> value:expr -> stmt list -> stmt
(** [simd reduction(+:acc)]: per iteration the body runs, then [value] is
    accumulated; the group total is assigned to [acc]. *)

val parallel_for :
  ?sched:schedule -> var:string -> lo:expr -> hi:expr -> stmt list -> stmt

val distribute_parallel_for :
  ?sched:schedule -> var:string -> lo:expr -> hi:expr -> stmt list -> stmt

val collapsed_distribute_parallel_for :
  ?sched:schedule -> vars:(string * expr) list -> stmt list -> stmt
(** [collapse(n)] desugared the way a compiler lowers it: one flat
    worksharing loop over the product of the extents, with declarations
    recovering each source index by division/modulo.  Extents must be
    positive at runtime.  @raise Invalid_argument on fewer than two
    loops. *)

val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr
val ( < ) : expr -> expr -> expr
val ( = ) : expr -> expr -> expr
val i : int -> expr
val f : float -> expr
val v : string -> expr

val free_vars : stmt list -> string list
(** Variables read or written by the statements that are not bound within
    them (loop variables and local declarations bind); sorted, without
    duplicates.  Array parameters count — they become payload pointers. *)

(** {2 Statement shape}

    The only functions outside the per-constructor interpreters
    ({!Eval}, {!Compile}, {!Check}, {!Printer}, ...) that know which
    statements carry bodies and expressions.  Walks that treat most
    statements alike are written on these, so a new statement form
    changes this module rather than every pass. *)

val map_bodies : (stmt list -> stmt list) -> stmt -> stmt
(** Rebuild a statement with each immediate child body mapped by [f]
    (an [If]'s else body before its then body).  Statements without
    bodies are returned physically unchanged. *)

val fold_bodies : ('a -> stmt list -> 'a) -> 'a -> stmt -> 'a
(** Fold over a statement's immediate child bodies in source order. *)

val fold_exprs : ('a -> expr -> 'a) -> 'a -> stmt -> 'a
(** Fold over a statement's own expressions (not those of its bodies)
    in source order: a loop's bounds, then a [Simd_sum]'s summand. *)

val loop_var : stmt -> string option
(** The induction variable of a [For] or a directive header. *)

val fold_directives : ('a -> stmt -> 'a) -> 'a -> stmt list -> 'a
(** Fold over every statement in pre-order, recursing into all bodies. *)

val exists : (stmt -> bool) -> stmt list -> bool
(** Whether [p] holds of any statement, at any depth. *)
