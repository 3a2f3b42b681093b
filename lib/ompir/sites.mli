(** Sanitizer site labels for IR memory accesses.

    Shared by both evaluation engines so that a given access site is
    registered under an identical label string — sanitizer reports are
    compared textually across engines.  A site is created unlabelled;
    its label, of the form ["store a[i + 1]"], is printed and interned
    in {!Gpusim.Ompsan}'s site registry the first time {!id} is asked
    for it, which only sanitizing launches do. *)

type t

val load : string -> Ir.expr -> t
(** [load arr idx] describes ["load arr[<idx>]"]. *)

val store : string -> Ir.expr -> t
(** [store arr idx] describes ["store arr[<idx>]"]. *)

val atomic : string -> Ir.expr -> t
(** [atomic arr idx] describes ["atomic arr[<idx>]"]. *)

val id : t -> int
(** The site's registry id, interning its label on first use.  Safe to
    call from several domains at once. *)
