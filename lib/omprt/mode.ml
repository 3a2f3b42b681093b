type t = Generic | Spmd

let equal a b = match (a, b) with Generic, Generic | Spmd, Spmd -> true | _ -> false
let to_string = function Generic -> "generic" | Spmd -> "spmd"
let pp ppf t = Format.pp_print_string ppf (to_string t)
