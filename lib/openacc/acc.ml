type ctx = Omprt.Team.ctx

let parallel ~cfg ?(num_gangs = 0) ?(num_workers = 4) ?(vector_length = 32)
    ?(mode = Omprt.Mode.Spmd) body =
  let num_gangs =
    if num_gangs > 0 then num_gangs else 2 * cfg.Gpusim.Config.num_sms
  in
  if vector_length <= 0 || cfg.Gpusim.Config.warp_size mod vector_length <> 0
  then invalid_arg "Acc.parallel: vector_length must divide the warp";
  if num_workers <= 0 then invalid_arg "Acc.parallel: num_workers";
  (* hardware blocks are warp multiples: round the worker*vector product
     up, as real OpenACC implementations do *)
  let ws = cfg.Gpusim.Config.warp_size in
  let team_threads = (((num_workers * vector_length) + ws - 1) / ws) * ws in
  let clauses =
    Openmp.Clause.(
      none |> num_teams num_gangs
      |> num_threads team_threads
      |> simdlen vector_length |> parallel_mode mode)
  in
  Openmp.Omp.target_teams ~cfg ~clauses body

let loop_gang ctx ~trip f =
  (* one contiguous chunk per gang, iterated by each gang's workers'
     region code — the distribute level *)
  Omprt.Workshare.distribute ctx ~trip f

let loop_worker ctx ~trip f = Omprt.Workshare.omp_for ctx ~trip f

let loop_gang_worker ctx ~trip f =
  Omprt.Workshare.distribute_parallel_for ctx ~trip f

let loop_vector ctx ~trip f =
  Omprt.Simd.simd ctx ~fn_id:2 ~trip (fun _ iv -> f iv)

let loop_vector_sum ctx ~trip f =
  Omprt.Simd.simd_sum ctx ~fn_id:3 ~trip (fun ctx iv ->
      Omprt.Simd.fold ctx (f iv))

let worker_num = Openmp.Omp.thread_num
