type schedule = Static | Static_chunked of int | Dynamic of int

type t = {
  num_teams : int option;
  num_threads : int option;
  teams_mode : Omprt.Mode.t option;
  parallel_mode : Omprt.Mode.t option;
  simdlen : int option;
  schedule : schedule;
  sharing_bytes : int option;
}

let none =
  {
    num_teams = None;
    num_threads = None;
    teams_mode = None;
    parallel_mode = None;
    simdlen = None;
    schedule = Static;
    sharing_bytes = None;
  }

let num_teams n t = { t with num_teams = Some n }
let num_threads n t = { t with num_threads = Some n }
let teams_mode m t = { t with teams_mode = Some m }
let parallel_mode m t = { t with parallel_mode = Some m }
let simdlen n t = { t with simdlen = Some n }
let schedule s t = { t with schedule = s }
let sharing_bytes n t = { t with sharing_bytes = Some n }

(* The runtime's launch parameters, defaults filled in. *)
let params_of ~(cfg : Gpusim.Config.t) t =
  {
    Omprt.Team.num_teams =
      (match t.num_teams with Some n -> n | None -> 2 * cfg.Gpusim.Config.num_sms);
    num_threads = Option.value t.num_threads ~default:128;
    teams_mode = Option.value t.teams_mode ~default:Omprt.Mode.Spmd;
    sharing_bytes = Option.value t.sharing_bytes ~default:Omprt.Sharing.default_bytes;
  }

(* Every geometry check the runtime would make at launch, made up
   front: the device's warp width and block limit decide whether the
   clause set can run on it at all.  The block is sized by the
   runtime's own [Team.block_threads]. *)
let check_geometry ~(cfg : Gpusim.Config.t) t =
  let params = params_of ~cfg t in
  let ws = cfg.Gpusim.Config.warp_size in
  let simdlen = Option.value t.simdlen ~default:1 in
  if params.Omprt.Team.num_teams <= 0 then Error "num_teams must be positive"
  else if simdlen <= 0 || ws mod simdlen <> 0 then
    Error "simdlen must divide the warp size"
  else if params.num_threads <= 0 || params.num_threads mod ws <> 0 then
    Error
      (Printf.sprintf "num_threads %d is not a positive multiple of the warp size %d"
         params.num_threads ws)
  else
    let block = Omprt.Team.block_threads ~cfg params in
    if block > cfg.Gpusim.Config.max_threads_per_block then
      Error
        (Printf.sprintf "a block of %d threads exceeds the device limit %d" block
           cfg.Gpusim.Config.max_threads_per_block)
    else Ok ()

let resolve ~(cfg : Gpusim.Config.t) t =
  (match check_geometry ~cfg t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Clause.resolve: " ^ msg));
  let parallel_mode = Option.value t.parallel_mode ~default:Omprt.Mode.Spmd in
  (params_of ~cfg t, parallel_mode, Option.value t.simdlen ~default:1)

let workshare_schedule t =
  match t.schedule with
  | Static -> Omprt.Workshare.Static
  | Static_chunked n -> Omprt.Workshare.Chunked n
  | Dynamic n -> Omprt.Workshare.Dynamic n
