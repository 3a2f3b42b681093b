(** Keyed lexical scopes for the front end's name resolution.

    A scope is a stack of frames whose bindings are keyed by name, so a
    lookup costs a map probe instead of a scan over every binding in
    scope.  Shadowing is innermost-wins: a later binding of a name, in
    the same frame or a nested one, hides every earlier one until the
    scope value that holds it is dropped (scopes are persistent).
    {!Check} binds locals to their types. *)

type 'a t

val empty : 'a t
(** No frame and no binding.  Push a frame before binding. *)

val push : 'a t -> 'a t
(** Open a fresh, empty innermost frame. *)

val add : string -> 'a -> 'a t -> 'a t
(** Bind a name in the innermost frame. *)

val find : string -> 'a t -> (int * 'a) option
(** The innermost binding of a name, with its frame depth ([0] is the
    innermost frame). *)

val mem : string -> 'a t -> bool

val in_innermost : string -> 'a t -> bool
(** Whether the innermost frame binds the name. *)
