(** Capture-avoiding variable substitution over expressions and
    statement lists — the support machinery for unrolling and other
    body-duplicating transforms. *)

val expr : var:string -> by:Ir.expr -> Ir.expr -> Ir.expr
(** Replace every free occurrence of [var]. *)

val map_exprs :
  var:string -> (Ir.expr -> Ir.expr) -> Ir.stmt list -> Ir.stmt list
(** Map [f] over the expressions [var] can reach: the map stops at
    rebinding sites — a [Decl] of [var], or a loop / directive whose loop
    variable is [var], shadows it for the remainder of the scope, and a
    [Decl] of [var] inside a [Guarded] block (which is scope-transparent)
    shadows the statements after the block. *)

val stmts : var:string -> by:Ir.expr -> Ir.stmt list -> Ir.stmt list
(** [map_exprs] with {!expr}: replace every free occurrence of [var]. *)
