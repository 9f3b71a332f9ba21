(* The Zoomie benchmark.

     dune exec perfbench/main.exe -- --workload W --seed N --seconds S --trace 0|1

   Workloads: farm_debug, vti_edit_loop, reverse_debug (see each module).
   With --trace 0 the last line carries the end-to-end metrics, measured
   with tracing off, their timings scaled to a nominal host speed
   ([Common.host_speed]; the wall-clock figures are printed above it);
   with --trace 1 it carries the per-layer metrics, unscaled, of a
   traced run (spans are written to _perfbench/).  The run exits nonzero
   when any output check fails.  Seed 4242 is held out: it was never used
   while the benchmark was tuned. *)

open Perfbench

let workloads =
  [ ("farm_debug", Farm.run); ("vti_edit_loop", Vti_loop.run); ("reverse_debug", Reverse.run) ]

(* Every per-layer metric, in report order, with its unit; a workload
   that does not exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("net.self_ms_per_req", "ms");
    ("net.bytes_per_req", "bytes");
    ("shard.self_ms_per_req", "ms");
    ("shard.busy_refusals", "count");
    ("hub.self_ms_per_req", "ms");
    ("hub.reqs_per_sweep", "ratio");
    ("hub.coalescing_ratio", "ratio");
    ("hub.status_polls_per_req", "ratio");
    ("hub.lock_conflicts", "count");
    ("host.read_ms", "ms");
    ("host.step_ms_per_kcycle", "ms");
    ("host.inject_ms", "ms");
    ("host.attach_ms", "ms");
    ("readback.sweep_ms", "ms");
    ("readback.extract_ms", "ms");
    ("readback.frames_per_sweep", "count");
    ("readback.useful_bit_ratio", "ratio");
    ("readback.restore_ms", "ms");
    ("board.execute_ms_per_kword", "ms");
    ("jtag.words_per_op", "count");
    ("jtag.cable_s_per_op", "s");
    ("netsim.steady_cycles_per_s", "1/s");
    ("netsim.boot_cycles_per_s", "1/s");
    ("netsim.events_per_cycle", "count");
    ("netsim.tick_cache_hit_ratio", "ratio");
    ("timeline.self_ms_per_op", "ms");
    ("timeline.checkpoint_ms", "ms");
    ("timeline.reverse_ms", "ms");
    ("timeline.reexec_cmds_per_reverse", "count");
    ("timeline.when_did_probes", "count");
    ("vti.recompile_s", "s");
    ("vti.synth_cache_hit_ratio", "ratio");
    ("vti.relink_splice_ratio", "ratio");
    ("vti.modeled_synth_s", "s");
    ("vti.modeled_place_s", "s");
    ("vti.modeled_route_s", "s");
    ("vti.modeled_bitgen_s", "s");
    ("program.load_s", "s");
    ("program.frames_written", "count");
    ("proc.cpu_ms_per_op", "ms");
    ("proc.minor_words_per_op", "words");
    ("proc.major_gcs", "count");
    ("ladder.residual_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("obs.count_drift", "count");
  ]

let main (args : Common.args) run =
  Printf.printf "zoomie benchmark: workload=%s seed=%d seconds=%g trace=%d\n%!"
    args.Common.workload args.Common.seed args.Common.seconds
    (if args.Common.trace then 1 else 0);
  Common.sample_speed ();
  let r : Report.t = run args in
  Common.sample_speed ();
  let rss = Common.max_rss_mb () in
  Common.provenance ~args ~soc:(Rig.soc_label r.Report.soc) ~layout:r.Report.layout
    ~netsim_window:r.Report.netsim_window;
  Printf.printf "op stream digest: %s\n" r.Report.digest;
  (* timings scale with the host's speed, rates against it *)
  let speed = Common.host_speed () in
  let scaled (m : Common.metric) =
    match m.Common.m_unit with
    | "s" | "ms" -> { m with Common.m_value = m.Common.m_value *. speed }
    | "1/s" -> { m with Common.m_value = m.Common.m_value /. speed }
    | _ -> m
  in
  let e2e = List.map scaled r.Report.e2e @ [ Common.metric "max_rss_mb" "MB" rss ] in
  let notes =
    ("cable_s_per_op", "modeled JTAG time, reported beside wall time, never added to it")
    :: r.Report.notes
  in
  let print_all =
    List.iter (fun m ->
        Common.print_metric
          ~note:(Option.value ~default:"" (List.assoc_opt m.Common.m_name notes))
          m)
  in
  Printf.printf
    "end-to-end, in the result line (%s; timings scaled to a host on which the \
     reference kernel takes %g ms):\n"
    (if args.Common.trace then "untraced windows" else "tracing off")
    (1000.0 *. Common.reference_nominal_s);
  print_all e2e;
  Printf.printf "end-to-end, printed only (wall clock):\n";
  print_all r.Report.e2e;
  print_all r.Report.extra;
  Common.print_metric
    ~note:
      (Printf.sprintf "reference kernel: median of %d samples, %.4g ms"
         (List.length !Common.speed_samples)
         (1000.0 *. Common.median !Common.speed_samples))
    (Common.metric "host_speed" "ratio" speed);
  let metrics =
    if not args.Common.trace then e2e
    else begin
      let p = r.Report.netsim_probe () in
      let measured =
        r.Report.layers
        @ [
            Common.metric "netsim.steady_cycles_per_s" "1/s" p.Rig.steady_cps;
            Common.metric "netsim.boot_cycles_per_s" "1/s" p.Rig.boot_cps;
          ]
      in
      List.iter
        (fun m ->
          if not (List.mem_assoc m.Common.m_name per_layer) then
            failwith ("undeclared per-layer metric " ^ m.Common.m_name))
        measured;
      let layers =
        List.map
          (fun (name, unit) ->
            match List.find_opt (fun m -> m.Common.m_name = name) measured with
            | Some m -> m
            | None -> Common.metric name unit 0.0)
          per_layer
      in
      Printf.printf "per-layer (traced run):\n";
      List.iter (fun m -> Common.print_metric m) layers;
      let file =
        Filename.concat Common.out_dir
          (Printf.sprintf "spans-%s-seed%d.json" args.Common.workload args.Common.seed)
      in
      Common.write_spans file;
      Printf.printf "spans: %d written to %s\n" (List.length (Common.spans ())) file;
      layers
    end
  in
  let correct = !Common.failures = [] in
  if not correct then
    Printf.printf "%d output check(s) failed\n" (List.length !Common.failures);
  print_endline
    (Common.result_line ~correct ~attempted:(max 1 r.Report.attempted)
       ~failed:r.Report.failed metrics);
  exit (if correct then 0 else 1)

let () =
  match Common.parse_args Sys.argv with
  | Error msg ->
    prerr_endline msg;
    prerr_endline Common.usage;
    exit 2
  | Ok args -> (
    match List.assoc_opt args.Common.workload workloads with
    | None ->
      prerr_endline ("unknown workload " ^ args.Common.workload);
      prerr_endline Common.usage;
      exit 2
    | Some run -> main args run)
