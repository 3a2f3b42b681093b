(** A lock-free stack of reusable values, safe to share between domains:
    a launch's recycled block frames. *)

type 'a t

val create : unit -> 'a t

val take : 'a t -> 'a option
(** Pop the most recently given value, if any. *)

val give : 'a t -> 'a -> unit
(** Push a value for a later [take]. *)
