module Smap = Map.Make (String)

(* Each binding records the absolute level of the frame it was made in;
   frames only ever bind at the innermost level, so the map's entry for
   a name is always its innermost binding. *)
type 'a t = { level : int; len : int; names : (int * 'a) Smap.t }

let empty = { level = -1; len = 0; names = Smap.empty }
let push s = { s with level = s.level + 1; len = 0 }

let add name v s =
  { s with len = s.len + 1; names = Smap.add name (s.level, v) s.names }

let length s = s.len

let find name s =
  match Smap.find_opt name s.names with
  | Some (level, v) -> Some (s.level - level, v)
  | None -> None

let mem name s = Smap.mem name s.names

let in_innermost name s =
  match Smap.find_opt name s.names with
  | Some (level, _) -> level = s.level
  | None -> false
