(** Environment-variable readers with the repo-wide convention that an
    unset variable and a blank ([""] or whitespace-only) value both mean
    "default" — a shell's [VAR= cmd] behaves exactly like not setting
    the knob at all.

    The typed readers default to the process environment; [?lookup]
    runs them over any other source with the same convention (it must
    already trim and drop blanks, as {!var} and {!trimmed} do). *)

val trimmed : string option -> string option
(** [Some] trimmed value, or [None] for a missing or blank one. *)

val var : string -> string option
(** [var name] is the trimmed value, or [None] when unset or blank. *)

val int : ?lookup:(string -> string option) -> string -> default:int -> int
(** @raise Invalid_argument on a non-blank, non-integer value. *)

val float :
  ?lookup:(string -> string option) -> string -> default:float -> float
(** @raise Invalid_argument on a non-blank, non-numeric value. *)

val flag : ?lookup:(string -> string option) -> string -> default:bool -> bool
(** Accepts [1/on/true/yes] and [0/off/false/no].
    @raise Invalid_argument on any other non-blank value. *)
