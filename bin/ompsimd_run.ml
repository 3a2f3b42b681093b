(* ompsimd_run — command-line driver for the paper's experiments.

   Every results figure of the paper (and each ablation described in
   DESIGN.md) is one subcommand; `ompsimd_run all` regenerates everything
   EXPERIMENTS.md records. *)

open Cmdliner

let device_term =
  let doc =
    "Simulated device: a zoo name (a100, a100q, amd, small, w8-hw ... \
     w32-l2tiny — see `info --zoo`), key=value,... overrides, or both \
     (e.g. w64-sw,num_sms=4).  Defaults to $(b,OMPSIMD_DEVICE) from the \
     environment, then a100q (quarter-size: relative results match the \
     full device at a quarter the simulation cost)."
  in
  Arg.(value & opt string "" & info [ "device"; "d" ] ~docv:"DEVICE" ~doc)

let scale_term =
  let doc = "Problem-size multiplier (use < 1.0 for quick runs)." in
  Arg.(value & opt float 1.0 & info [ "scale"; "s" ] ~docv:"SCALE" ~doc)

(* The single place every subcommand reads its configuration: the
   environment, with the subcommand's flags layered over it as a
   higher-priority source for the same knobs.  The whole record is
   parsed before any work, so a malformed value fails every subcommand
   the same way — exit 2, one line naming the variable — and its
   device-wide switches (sanitizer, fault plan, watchdog) are installed
   once, here. *)
let with_knobs ?(flags = []) device f =
  let flags =
    match String.trim device with
    | "" -> flags
    | spec -> (
        (* a bad --device names the flag's value, not the variable *)
        match Gpusim.Zoo.resolve spec with
        | Error msg ->
            prerr_endline msg;
            exit 2
        | Ok _ -> ("OMPSIMD_DEVICE", spec) :: flags)
  in
  let lookup name =
    match List.assoc_opt name flags with
    | Some v -> Some v
    | None -> Ompsimd_util.Env.var name
  in
  match Knobs.parse lookup with
  | Error msg ->
      prerr_endline msg;
      exit 2
  | Ok k ->
      Knobs.install k;
      f k

(* the block-simulation pool OMPSIMD_DOMAINS sizes (bit-identical
   reports for any width, see DESIGN.md) *)
let pool_of k = Gpusim.Pool.create ~domains:k.Knobs.domains ()
let with_device device f = with_knobs device (fun k -> f k.Knobs.device (pool_of k))

let csv_term =
  let doc = "Also write the series as CSV to this file." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let write_csv path contents =
  match path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc contents);
      Printf.printf "csv written to %s\n" path

let fig9_cmd =
  let run device scale csv =
    with_device device (fun cfg pool ->
        let r = Experiments.Fig9.run ~scale ~pool ~cfg () in
        Experiments.Fig9.print r;
        write_csv csv (Experiments.Fig9.to_csv r))
  in
  Cmd.v
    (Cmd.info "fig9" ~doc:"E1: simd speedup over two-level baseline (Fig 9)")
    Term.(const run $ device_term $ scale_term $ csv_term)

let fig10_cmd =
  let run device scale csv =
    with_device device (fun cfg pool ->
        let r = Experiments.Fig10.run ~scale ~pool ~cfg () in
        Experiments.Fig10.print r;
        write_csv csv (Experiments.Fig10.to_csv r))
  in
  Cmd.v
    (Cmd.info "fig10" ~doc:"E2: execution-mode overhead (Fig 10)")
    Term.(const run $ device_term $ scale_term $ csv_term)

let sharing_cmd =
  let run device scale =
    with_device device (fun cfg pool ->
        Experiments.Sharing_ablation.print
          (Experiments.Sharing_ablation.run ~scale ~pool ~cfg ()))
  in
  Cmd.v
    (Cmd.info "sharing" ~doc:"E3: sharing-space sizing ablation (S5.3.1)")
    Term.(const run $ device_term $ scale_term)

let dispatch_cmd =
  let run device scale =
    with_device device (fun cfg pool ->
        Experiments.Dispatch_ablation.print
          (Experiments.Dispatch_ablation.run ~scale ~pool ~cfg ()))
  in
  Cmd.v
    (Cmd.info "dispatch" ~doc:"E4: if-cascade vs indirect dispatch (S5.5)")
    Term.(const run $ device_term $ scale_term)

let amd_cmd =
  let run scale =
    with_knobs "" (fun k ->
        Experiments.Amd_mode.print
          (Experiments.Amd_mode.run ~scale ~pool:(pool_of k) ()))
  in
  Cmd.v
    (Cmd.info "amd" ~doc:"E5: AMD wavefront-barrier gap (S5.4.1)")
    Term.(const run $ scale_term)

let reduction_cmd =
  let run device scale =
    with_device device (fun cfg pool ->
        Experiments.Reduction_ablation.print
          (Experiments.Reduction_ablation.run ~scale ~pool ~cfg ()))
  in
  Cmd.v
    (Cmd.info "reduction" ~doc:"E6: simd reduction vs atomic update (S7)")
    Term.(const run $ device_term $ scale_term)

let teams_mode_cmd =
  let run device scale =
    with_device device (fun cfg pool ->
        Experiments.Teams_mode_ablation.print
          (Experiments.Teams_mode_ablation.run ~scale ~pool ~cfg ()))
  in
  Cmd.v
    (Cmd.info "teamsmode" ~doc:"E7: teams generic vs SPMD occupancy cost")
    Term.(const run $ device_term $ scale_term)

let spmdize_cmd =
  let run device scale =
    with_knobs device (fun k ->
        Experiments.Spmdization_ablation.print
          (Experiments.Spmdization_ablation.run ~scale ~pool:(pool_of k)
             ~knobs:k.Knobs.compile ~cfg:k.Knobs.device ()))
  in
  Cmd.v
    (Cmd.info "spmdize"
       ~doc:"E8: SPMDization of parallel regions via guards (S7)")
    Term.(const run $ device_term $ scale_term)

let schedule_cmd =
  let run device scale =
    with_device device (fun cfg pool ->
        Experiments.Schedule_ablation.print
          (Experiments.Schedule_ablation.run ~scale ~pool ~cfg ()))
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"E9: loop schedules under row imbalance")
    Term.(const run $ device_term $ scale_term)

let kernel_cmd =
  let kernel_arg =
    let doc =
      "Workload: spmv, su3, ideal, laplace3d, transpose or interpol."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)
  in
  let mode_term =
    let doc = "Execution configuration: nosimd, spmd or generic." in
    Arg.(value & opt string "generic" & info [ "mode"; "m" ] ~docv:"MODE" ~doc)
  in
  let simdlen_term =
    let doc = "SIMD group size (divides 32)." in
    Arg.(value & opt int 8 & info [ "simdlen"; "g" ] ~docv:"N" ~doc)
  in
  let trace_term =
    let doc = "Write a Chrome trace-event JSON of block 0 to this file." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let run device scale kernel mode simdlen trace_path =
    with_device device (fun cfg pool ->
        let module H = Workloads.Harness in
        let mode3 =
          match mode with
          | "nosimd" -> H.spmd_simd ~group_size:1
          | "spmd" -> H.spmd_simd ~group_size:simdlen
          | "generic" -> H.generic_simd ~group_size:simdlen
          | other ->
              prerr_endline ("unknown mode " ^ other);
              exit 2
        in
        let sc n = max 1 (int_of_float (float_of_int n *. scale)) in
        let teams = 2 * cfg.Gpusim.Config.num_sms in
        let trace = Option.map (fun _ -> Gpusim.Trace.create ()) trace_path in
        let run_with ?trace () =
          match kernel with
          | "spmv" ->
              let t =
                Workloads.Spmv.generate
                  { Workloads.Spmv.default_shape with
                    Workloads.Spmv.rows = sc 8192; cols = sc 8192 }
              in
              let r = Workloads.Spmv.run_simd ~cfg ~pool ?trace ~num_teams:teams ~threads:128 ~mode3 t in
              H.check_or_fail (Workloads.Spmv.verify t r.H.output);
              r
          | "su3" ->
              let t = Workloads.Su3.generate { Workloads.Su3.sites = sc 8192; seed = 2 } in
              let r = Workloads.Su3.run ~cfg ~pool ?trace ~num_teams:teams ~threads:128 ~mode3 t in
              H.check_or_fail (Workloads.Su3.verify t r.H.output);
              r
          | "ideal" ->
              let t =
                Workloads.Ideal.generate
                  { Workloads.Ideal.default_shape with Workloads.Ideal.rows = sc 4096 }
              in
              let r = Workloads.Ideal.run ~cfg ~pool ?trace ~num_teams:teams ~threads:128 ~mode3 t in
              H.check_or_fail (Workloads.Ideal.verify t r.H.output);
              r
          | "laplace3d" ->
              let t = Workloads.Laplace3d.generate { Workloads.Laplace3d.n = sc 50; seed = 4 } in
              let r = Workloads.Laplace3d.run ~cfg ~pool ?trace ~num_teams:teams ~threads:128 ~mode3 t in
              H.check_or_fail (Workloads.Laplace3d.verify t r.H.output);
              r
          | "transpose" ->
              let t =
                Workloads.Muram.generate
                  { Workloads.Muram.ni = sc 48; nj = sc 48; nk = 48; seed = 5 }
              in
              let r = Workloads.Muram.run_transpose ~cfg ~pool ?trace ~num_teams:teams ~threads:128 ~mode3 t in
              H.check_or_fail (Workloads.Muram.verify_transpose t r.H.output);
              r
          | "interpol" ->
              let t =
                Workloads.Muram.generate
                  { Workloads.Muram.ni = sc 48; nj = sc 48; nk = 48; seed = 5 }
              in
              let r = Workloads.Muram.run_interpol ~cfg ~pool ?trace ~num_teams:teams ~threads:128 ~mode3 t in
              H.check_or_fail (Workloads.Muram.verify_interpol t r.H.output);
              r
          | other ->
              prerr_endline ("unknown kernel " ^ other);
              exit 2
        in
        let r = run_with ?trace () in
        Format.printf "%a@." Gpusim.Device.pp_report r.Workloads.Harness.report;
        print_endline "result VERIFIED against the sequential reference";
        match (trace, trace_path) with
        | Some t, Some path ->
            Gpusim.Trace_export.write_file t ~path;
            Printf.printf "trace written to %s (load in chrome://tracing)\n" path
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "kernel" ~doc:"Run one workload and print its device report")
    Term.(
      const run $ device_term $ scale_term $ kernel_arg $ mode_term
      $ simdlen_term $ trace_term)

let compile_cmd =
  let file_arg =
    let doc = "Kernel source file (see examples/rowsum.omp)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let guardize_term =
    let doc = "Apply the SPMDization-by-guarding transform (S7)." in
    Arg.(value & flag & info [ "guardize" ] ~doc)
  in
  let no_fold_term =
    let doc = "Skip constant folding." in
    Arg.(value & flag & info [ "no-fold" ] ~doc)
  in
  let racecheck_term =
    let doc = "Run the static ompsan may-race pass; findings print as remarks." in
    Arg.(value & flag & info [ "racecheck" ] ~doc)
  in
  let run file guardize no_fold racecheck =
    with_knobs "" (fun k ->
        match Ompir.Parse.kernel_of_file file with
        | exception Ompir.Parse.Syntax_error { line; message } ->
            Printf.eprintf "%s:%d: syntax error: %s\n" file line message;
            exit 1
        | kernel -> (
            let knobs =
              { k.Knobs.compile with guardize; fold = not no_fold; racecheck }
            in
            match Openmp.Offload.compile_with ~knobs kernel with
            | Error es ->
                List.iter
                  (fun e ->
                    Format.eprintf "%s: error: %a@." file Ompir.Check.pp_error e)
                  es;
                exit 1
            | Ok compiled ->
                print_endline "=== lowered kernel ===";
                print_endline
                  (Ompir.Printer.kernel_to_string
                     compiled.Openmp.Offload.program.Ompir.Outline.kernel);
                print_newline ();
                print_endline "=== remarks ===";
                List.iter print_endline (Openmp.Offload.remarks compiled)))
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Parse, check and lower a kernel source file; print remarks")
    Term.(const run $ file_arg $ guardize_term $ no_fold_term $ racecheck_term)

let info_cmd =
  let zoo_term =
    let doc = "List the device zoo instead of one configuration." in
    Arg.(value & flag & info [ "zoo" ] ~doc)
  in
  let run device zoo =
    with_knobs device (fun k ->
        if zoo then Format.printf "%a@." Gpusim.Zoo.pp_table ()
        else
          Format.printf "%a@.spec: %s@." Gpusim.Config.pp k.Knobs.device
            (Gpusim.Config.to_spec k.Knobs.device))
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Print the simulated device configuration (or the zoo registry)")
    Term.(const run $ device_term $ zoo_term)

let sweep_cmd =
  let devices_term =
    let doc =
      "Comma-separated zoo entries to sweep (default: the full zoo, \
       w8-hw ... w32-l2tiny)."
    in
    Arg.(value & opt (some string) None & info [ "devices" ] ~docv:"NAMES" ~doc)
  in
  let run scale csv devices =
    let entries =
      match devices with
      | None -> Gpusim.Zoo.sweep
      | Some s ->
          String.split_on_char ',' s
          |> List.filter (fun n -> String.trim n <> "")
          |> List.map (fun n ->
                 match Gpusim.Zoo.find (String.trim n) with
                 | Some e -> e
                 | None ->
                     Printf.eprintf "sweep: unknown zoo entry %S\n"
                       (String.trim n);
                     exit 2)
    in
    with_knobs "" (fun k ->
        let r = Experiments.Zoo_sweep.run ~scale ~pool:(pool_of k) ~entries () in
        Experiments.Zoo_sweep.print r;
        write_csv csv (Experiments.Zoo_sweep.to_csv r))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Re-run the paper's headline figures across the device zoo and \
          report which relative claims hold or invert per configuration")
    Term.(const run $ scale_term $ csv_term $ devices_term)

let all_cmd =
  let run device scale =
    with_knobs device (fun k ->
        let cfg = k.Knobs.device and pool = pool_of k in
        Experiments.Fig9.print (Experiments.Fig9.run ~scale ~pool ~cfg ());
        print_newline ();
        Experiments.Fig10.print (Experiments.Fig10.run ~scale ~pool ~cfg ());
        print_newline ();
        Experiments.Sharing_ablation.print
          (Experiments.Sharing_ablation.run ~scale ~pool ~cfg ());
        print_newline ();
        Experiments.Dispatch_ablation.print
          (Experiments.Dispatch_ablation.run ~scale ~pool ~cfg ());
        print_newline ();
        Experiments.Amd_mode.print (Experiments.Amd_mode.run ~scale ~pool ());
        print_newline ();
        Experiments.Reduction_ablation.print
          (Experiments.Reduction_ablation.run ~scale ~pool ~cfg ());
        print_newline ();
        Experiments.Teams_mode_ablation.print
          (Experiments.Teams_mode_ablation.run ~scale ~pool ~cfg ());
        print_newline ();
        Experiments.Spmdization_ablation.print
          (Experiments.Spmdization_ablation.run ~scale ~pool
             ~knobs:k.Knobs.compile ~cfg ());
        print_newline ();
        Experiments.Schedule_ablation.print
          (Experiments.Schedule_ablation.run ~scale ~pool ~cfg ()))
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in EXPERIMENTS.md")
    Term.(const run $ device_term $ scale_term)

let serve_cmd =
  let requests_term =
    let doc =
      "Replay this request trace (key=value lines, see \
       examples/serve.requests)."
    in
    Arg.(value & opt (some file) None & info [ "requests" ] ~docv:"FILE" ~doc)
  in
  let synthetic_term =
    let doc = "Generate N synthetic requests instead of replaying a trace." in
    Arg.(value & opt (some int) None & info [ "synthetic" ] ~docv:"N" ~doc)
  in
  let seed_term =
    let doc = "Seed for the synthetic generator." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let gap_term =
    let doc = "Mean inter-arrival gap of the synthetic generator, in ticks." in
    Arg.(value & opt float 2000.0 & info [ "gap" ] ~docv:"TICKS" ~doc)
  in
  let traffic_term =
    let doc =
      "Generate N requests with the traffic generator (heavy-tailed \
       arrivals, bursts, diurnal waves, flash crowds; see --profile)."
    in
    Arg.(value & opt (some int) None & info [ "traffic" ] ~docv:"N" ~doc)
  in
  let profile_term =
    let doc =
      "Traffic profile for --traffic: steady, bursty, diurnal, flash or mixed."
    in
    Arg.(value & opt string "mixed" & info [ "profile" ] ~docv:"NAME" ~doc)
  in
  let shards_term =
    let doc =
      "Serve on N virtual devices (shards; default 1, overrides \
       OMPSIMD_SERVE_SHARDS)."
    in
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)
  in
  let batch_term =
    let doc =
      "Launch-batching limit: members per merged grid (default 1 = no \
       batching, overrides OMPSIMD_SERVE_BATCH)."
    in
    Arg.(value & opt (some int) None & info [ "batch" ] ~docv:"K" ~doc)
  in
  let json_term =
    let doc = "Also write the full replay snapshot (config, per-request \
               reports, metrics) as JSON to this file."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let results_term =
    let doc =
      "Also write the placement-invariant per-request results \
       (outcome, launches, exec, checksum) as JSON to this file — \
       byte-identical across shard counts and batch limits on \
       admission-lossless configs."
    in
    Arg.(value & opt (some string) None & info [ "results" ] ~docv:"FILE" ~doc)
  in
  let telemetry_term =
    let doc =
      "Stream windowed telemetry (per-shard latency \
       percentiles, queue depths, breaker states, autoscaler and SLO \
       admission decisions) as JSONL to this file.  Deterministic: \
       byte-identical across engines, pool widths and device shuffles.  \
       OMPSIMD_SERVE_TELEMETRY=<file> does the same from the environment."
    in
    Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)
  in
  let slo_term =
    let doc =
      "Latency SLO in milliseconds of virtual time (1 ms = 1000 ticks; \
       overrides OMPSIMD_SERVE_SLO_MS).  Arms SLO-aware admission and \
       the autoscaler."
    in
    Arg.(value & opt (some float) None & info [ "slo" ] ~docv:"MS" ~doc)
  in
  let write path contents what =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents);
    Printf.printf "%s written to %s\n" what path
  in
  let run device requests synthetic seed gap traffic profile shards batch
      json_path results_path telemetry_path slo_ms =
    (match slo_ms with
    | Some ms when ms <= 0.0 ->
        prerr_endline "serve: --slo must be a positive millisecond value";
        exit 2
    | _ -> ());
    (* each flag overrides its knob; the autoscaler is derived from the
       final SLO and shard count inside the one parse *)
    let flags =
      List.filter_map
        (fun (name, v) -> Option.map (fun v -> (name, v)) v)
        [
          ("OMPSIMD_SERVE_SHARDS", Option.map string_of_int shards);
          ("OMPSIMD_SERVE_BATCH", Option.map string_of_int batch);
          ("OMPSIMD_SERVE_SLO_MS", Option.map (Printf.sprintf "%.17g") slo_ms);
          ("OMPSIMD_SERVE_TELEMETRY", telemetry_path);
        ]
    in
    with_knobs ~flags device (fun k ->
        let specs =
          match (requests, synthetic, traffic) with
          | Some file, None, None -> (
              try Serve.Request.load_trace file
              with Failure msg ->
                Printf.eprintf "%s: %s\n" file msg;
                exit 1)
          | None, Some n, None -> Serve.Request.synthetic ~n ~seed ~gap ()
          | None, None, Some n -> (
              try Serve.Traffic.(generate (preset profile ~n ~seed))
              with Failure msg ->
                Printf.eprintf "serve: %s\n" msg;
                exit 1)
          | None, None, None ->
              prerr_endline
                "serve: one of --requests, --synthetic or --traffic is \
                 required";
              exit 2
          | _ ->
              prerr_endline
                "serve: --requests, --synthetic and --traffic are exclusive";
              exit 2
        in
        let fconf = k.Knobs.fleet in
        let res =
          try Serve.Fleet.run fconf ~pool:(pool_of k) specs
          with Invalid_argument msg ->
            Printf.eprintf "serve: %s\n" msg;
            exit 2
        in
        List.iter
          (fun r -> print_endline (Serve.Fleet.report_line r))
          res.Serve.Fleet.reports;
        print_newline ();
        print_string (Serve.Fleet.to_text res);
        Option.iter
          (fun path -> write path (Serve.Fleet.snapshot_json fconf res) "snapshot")
          json_path;
        Option.iter
          (fun path ->
            write path (Serve.Fleet.results_json res.Serve.Fleet.reports) "results")
          results_path;
        Option.iter
          (fun path -> write path res.Serve.Fleet.telemetry "telemetry")
          k.Knobs.telemetry)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent kernel-launch service over a request trace \
          (deterministic replay) or a seeded synthetic workload — one \
          device by default, a sharded/batching fleet with --shards/--batch")
    Term.(
      const run $ device_term $ requests_term $ synthetic_term $ seed_term
      $ gap_term $ traffic_term $ profile_term $ shards_term $ batch_term
      $ json_term $ results_term $ telemetry_term $ slo_term)

let () =
  let info =
    Cmd.info "ompsimd_run" ~version:"1.0.0"
      ~doc:
        "Reproduce the experiments of 'Implementing OpenMP's SIMD Directive \
         in LLVM's GPU Runtime' (ICPP 2023) on the ompsimd simulator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig9_cmd;
            fig10_cmd;
            sharing_cmd;
            dispatch_cmd;
            amd_cmd;
            reduction_cmd;
            teams_mode_cmd;
            spmdize_cmd;
            schedule_cmd;
            kernel_cmd;
            serve_cmd;
            sweep_cmd;
            compile_cmd;
            info_cmd;
            all_cmd;
          ]))
