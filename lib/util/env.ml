(* Environment-variable access with one shared convention: a variable
   that is unset OR set to a blank string means "use the default".
   Shells export empty strings readily (VAR= cmd), so every knob treats
   blank as unset.  The typed readers take an optional [lookup] so a
   configuration parser can run them over any source (the process
   environment, a test's assoc list, command-line overrides). *)

let trimmed = function
  | None -> None
  | Some s -> ( match String.trim s with "" -> None | t -> Some t)

let var name = trimmed (Sys.getenv_opt name)

let int ?(lookup = var) name ~default =
  match lookup name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "%s must be an integer, got %S" name s))

let float ?(lookup = var) name ~default =
  match lookup name with
  | None -> default
  | Some s -> (
      match float_of_string_opt s with
      | Some v -> v
      | None ->
          invalid_arg (Printf.sprintf "%s must be a number, got %S" name s))

let flag ?(lookup = var) name ~default =
  match lookup name with
  | None -> default
  | Some ("1" | "on" | "true" | "yes") -> true
  | Some ("0" | "off" | "false" | "no") -> false
  | Some s ->
      invalid_arg
        (Printf.sprintf "%s must be a boolean (1/on/true/yes or 0/off/false/no), got %S"
           name s)
