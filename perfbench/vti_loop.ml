(* vti_edit_loop: the paper's Figure 7 loop, measured end to end.

   Each op swaps the debug core for the next seeded edit, recompiles its
   VTI partition, programs the partial bitstream, re-attaches, runs the
   MUT through the edit's boot program and reads back the registers the
   edit set.  This loads vti and program; hub, net and timeline are not
   used, and netsim and readback do little work beyond the new design's
   boot settle. *)

open Zoomie.Zoomie_api
module Board = Bitstream.Board
module Host = Debug.Host

type edit = { r0 : int; r1 : int; probes : string list; cycles : int }

(* MUT cycles that cover both of the edit's loads on the bit-serial core. *)
let edit_cycles = 48

(* Edits come from a pool of 64, so some repeat and VTI's synthesis cache
   has something to hit.  Each edit's probe set is r0 and r1, which it
   sets, plus a seeded subset of the other registers; it runs a seeded
   number of cycles past [edit_cycles]. *)
let gen ~seed n =
  let rs = Random.State.make [| seed; 0x7e1 |] in
  let others = List.filter (fun r -> r <> "r0" && r <> "r1") Rig.registers in
  Array.init n (fun _ ->
      let r0 = 1 + Random.State.int rs 8 in
      let r1 = 100 + Random.State.int rs 8 in
      let extra = List.filter (fun _ -> Random.State.int rs 3 = 0) others in
      { r0; r1; probes = "r0" :: "r1" :: extra; cycles = edit_cycles + Random.State.int rs 32 })

let stream_len = 1024

type rig = {
  project : Zoomie.Zoomie_api.project;
  vp : Vti.Flow.project;
  build : Vti.Flow.build;
  board : Board.t;
}

let setup () =
  let project, vp = Rig.vti_project () in
  let build = Vti.Flow.compile vp in
  let board = board project in
  Vti.Flow.load_onto board build;
  Rig.start board;
  ignore (Host.attach board ~info:(Rig.info project) ~mut_path:Rig.mut_path);
  { project; vp; build; board }

type op_result = {
  o_build : Vti.Flow.build;
  o_kernel : Rig.kernel;  (** the new design's netsim counters after the op *)
}

(* One edit-compile-program-debug iteration. *)
let iteration rig reads ~op prev e =
  let circuit = Rig.edit_core ~r0:e.r0 ~r1:e.r1 in
  let build =
    Common.span ~op "vti.recompile" (fun _ ->
        Vti.Flow.recompile prev ~path:Rig.vti_path ~circuit)
  in
  Common.span ~op "program.load" (fun _ -> Vti.Flow.load_onto rig.board build);
  let host =
    Common.span ~op "host.attach" (fun _ ->
        Host.attach rig.board ~info:(Rig.info rig.project) ~mut_path:Rig.mut_path)
  in
  Common.span ~op "host.step" (fun _ -> Host.step host e.cycles);
  let got = Rig.read_registers reads ~op host e.probes in
  Common.check "vti_edit_loop probe names" (Checks.names_match ~asked:e.probes ~got);
  Common.check "vti_edit_loop edit visible"
    (Checks.edit_visible
       ~expected:[ ("r0", e.r0); ("r1", e.r1) ]
       ~got:
         (List.filter_map
            (fun (n, v) -> if n = "r0" || n = "r1" then Some (n, Rtl.Bits.to_int v) else None)
            got));
  { o_build = build; o_kernel = Rig.kernel_of rig.board }

(* What one recompile reports; the builds themselves are not kept, so the
   peak memory measured is the loop's own. *)
type compiled = { modeled_s : float; cost : Pnr.Cost_model.phase; frames : int }

let compiled (b : Vti.Flow.build) =
  { modeled_s = b.Vti.Flow.modeled_seconds; cost = b.Vti.Flow.cost; frames = List.length b.Vti.Flow.frames }

type window = {
  w_latencies_ms : float list;
  w_wall : float;
  w_cycles : int;  (** MUT cycles the ops ran *)
  w_builds : compiled list;
  w_kernel : Rig.kernel;
  w_last : Vti.Flow.build;
}

let drive rig reads edits ~from ~prev ~seconds =
  let t0 = Common.now () in
  let rec go i prev acc builds kernel cycles =
    if Common.now () -. t0 >= seconds then
      {
        w_latencies_ms = acc;
        w_wall = Common.now () -. t0;
        w_cycles = cycles;
        w_builds = builds;
        w_kernel = kernel;
        w_last = prev;
      }
    else
      let e = edits.(i mod stream_len) in
      let r, dt =
        Common.timed (fun () ->
            Common.span ~op:i "vti.op" (fun _ -> iteration rig reads ~op:i prev e))
      in
      go (i + 1) r.o_build ((1000.0 *. dt) :: acc) (compiled r.o_build :: builds)
        (Rig.kernel_add kernel r.o_kernel) (cycles + e.cycles)
  in
  go from prev [] [] Rig.kernel_zero 0

(* Several stretches as one. *)
let merge ws =
  {
    w_latencies_ms = List.concat_map (fun w -> w.w_latencies_ms) ws;
    w_wall = List.fold_left (fun a w -> a +. w.w_wall) 0.0 ws;
    w_cycles = List.fold_left (fun a w -> a + w.w_cycles) 0 ws;
    w_builds = List.concat_map (fun w -> w.w_builds) ws;
    w_kernel = List.fold_left (fun a w -> Rig.kernel_add a w.w_kernel) Rig.kernel_zero ws;
    w_last = (List.nth ws (List.length ws - 1)).w_last;
  }

(* [seconds] in [Common.windows] stretches, the host's speed sampled
   before each; the edits run on from where the last stretch left.  An
   iteration is too long for per-window medians, so the figures pool
   every stretch. *)
let windows rig reads edits ~from ~prev ~seconds =
  let each = seconds /. float_of_int Common.windows in
  let rec go k from prev acc =
    if k = 0 then merge (List.rev acc)
    else begin
      Common.sample_speed ();
      let w = drive rig reads edits ~from ~prev ~seconds:each in
      go (k - 1) (from + List.length w.w_latencies_ms) w.w_last (w :: acc)
    end
  in
  go Common.windows from prev []

(* Untimed: the first iteration through both engines, compared bit for
   bit (initial compile and recompile), then run on the board. *)
let warm_up rig reads e =
  let base0 = Vti.Flow_baseline.compile (Rig.baseline_project rig.vp) in
  Common.check "vti_edit_loop initial compile vs reference"
    (Checks.same_build rig.build base0);
  let circuit = Rig.edit_core ~r0:e.r0 ~r1:e.r1 in
  let base1 = Vti.Flow_baseline.recompile base0 ~path:Rig.vti_path ~circuit in
  let r = iteration rig reads ~op:(-1) rig.build e in
  Common.check "vti_edit_loop recompile vs reference" (Checks.same_build r.o_build base1);
  r.o_build

let obs_count name = Obs.counter_value (Obs.counter name)

let run (args : Common.args) : Report.t =
  let edits = gen ~seed:args.Common.seed stream_len in
  let digest =
    Common.stream_digest
      (Array.to_list
         (Array.map
            (fun e ->
              Printf.sprintf "edit r0=%d r1=%d probe %s run %d" e.r0 e.r1
                (String.concat "," e.probes) e.cycles)
            edits))
  in
  let rig, setup_s = Common.repeated_setup ~setup ~teardown:ignore () in
  let reads = Rig.reads () in
  let prev = warm_up rig reads edits.(stream_len - 1) in
  let seconds = if args.Common.trace then args.Common.seconds /. 2.0 else args.Common.seconds in
  Common.settle_heap ();
  let p0 = Common.proc_sample () in
  let c0 = Rig.cable_of [ rig.board ] in
  let w = windows rig reads edits ~from:0 ~prev ~seconds in
  let c1 = Rig.cable_of [ rig.board ] in
  let proc = Common.proc_delta p0 (Common.proc_sample ()) in
  let n = List.length w.w_latencies_ms in
  let per x = Common.ratio x (float_of_int n) in
  let tail = Common.tail w.w_latencies_ms in
  let p50 = Common.median w.w_latencies_ms in
  let cable = Rig.cable_sub c1 c0 in
  let modeled = List.map (fun b -> b.modeled_s) w.w_builds in
  let e2e =
    [
      Common.metric "setup_s" "s" setup_s;
      Common.metric "op_p50_ms" "ms" p50;
      Common.metric "ops_per_s" "1/s" (Common.ratio (float_of_int n) w.w_wall);
    ]
  in
  let extra =
    [
      Common.metric "op_tail_ms" "ms" tail.Common.t_value;
      Common.metric "cable_s_per_op" "s" (per cable.Rig.c_seconds);
      Common.metric "fail_ratio" "ratio" 0.0;
      Common.metric "compile_modeled_s_per_op" "s" (Common.mean modeled);
      Common.metric "mut_cycles_per_s" "1/s"
        (Common.ratio (float_of_int w.w_cycles) w.w_wall);
    ]
  in
  let layers =
    if not args.Common.trace then []
    else begin
      Common.tracing := true;
      let hits0 = obs_count "vti.synth_cache_hits"
      and miss0 = obs_count "vti.synth_cache_misses"
      and splice0 = obs_count "vti.relink_splice"
      and full0 = obs_count "vti.full_link" in
      let o0 = Rig.obs_cable () in
      let tc0 = Rig.cable_of [ rig.board ] in
      let traced_reads = Rig.reads () in
      Common.settle_heap ();
      (* the stream continues: re-driving the same edits would find every
         one in the synthesis cache *)
      let tw = windows rig traced_reads edits ~from:n ~prev:w.w_last ~seconds in
      let tcable = Rig.cable_sub (Rig.cable_of [ rig.board ]) tc0 in
      let drift = Rig.jtag_drift o0 (Rig.obs_cable ()) tcable in
      let nt = List.length tw.w_latencies_ms in
      let hits = obs_count "vti.synth_cache_hits" - hits0
      and misses = obs_count "vti.synth_cache_misses" - miss0
      and splices = obs_count "vti.relink_splice" - splice0
      and fulls = obs_count "vti.full_link" - full0 in
      let phase g = Common.mean (List.map (fun b -> g b.cost) tw.w_builds) in
      let k = tw.w_kernel in
      let e2e_total = Common.span_total "vti.op" in
      [
        ("host.step_ms_per_kcycle", "ms",
         Common.ratio (1000.0 *. Common.span_total "host.step")
           (float_of_int tw.w_cycles /. 1000.0));
        ("host.attach_ms", "ms", Common.span_mean_ms "host.attach");
        ("jtag.words_per_op", "count", Common.fratio tcable.Rig.c_words nt);
        ("jtag.cable_s_per_op", "s", Common.ratio tcable.Rig.c_seconds (float_of_int nt));
        ("netsim.events_per_cycle", "count", Common.fratio k.Rig.k_events k.Rig.k_edges);
        ("netsim.tick_cache_hit_ratio", "ratio",
         Common.fratio k.Rig.k_hits (k.Rig.k_hits + k.Rig.k_misses));
        ("vti.recompile_s", "s", Common.mean (Common.span_durations "vti.recompile"));
        ("vti.synth_cache_hit_ratio", "ratio", Common.fratio hits (hits + misses));
        ("vti.relink_splice_ratio", "ratio", Common.fratio splices (splices + fulls));
        ("vti.modeled_synth_s", "s", phase (fun c -> c.Pnr.Cost_model.synth_s));
        ("vti.modeled_place_s", "s", phase (fun c -> c.Pnr.Cost_model.place_s));
        ("vti.modeled_route_s", "s", phase (fun c -> c.Pnr.Cost_model.route_s));
        ("vti.modeled_bitgen_s", "s", phase (fun c -> c.Pnr.Cost_model.bitgen_s));
        ("program.load_s", "s", Common.mean (Common.span_durations "program.load"));
        ("program.frames_written", "count",
         Common.mean (List.map (fun b -> float_of_int b.frames) tw.w_builds));
        ("proc.cpu_ms_per_op", "ms", 1000.0 *. per proc.Common.p_cpu);
        ("proc.minor_words_per_op", "words", per proc.Common.p_minor);
        ("proc.major_gcs", "count", float_of_int proc.Common.p_major);
        ("ladder.residual_ratio", "ratio",
         Common.ratio
           (e2e_total -. Rig.leaf_total ~also:[ "vti.recompile"; "program.load"; "host.attach" ] ())
           e2e_total);
        ("trace.overhead_ratio", "ratio", Common.ratio (Common.median tw.w_latencies_ms) p50);
        ("obs.count_drift", "count", drift);
      ]
      |> List.map (fun (name, unit, v) -> Common.metric name unit v)
      |> List.append (Rig.read_metrics traced_reads)
    end
  in
  {
    Report.digest;
    soc = Rig.kernel_soc;
    layout = "1 board, in-process; VTI partition " ^ Rig.vti_path;
    netsim_window =
      Printf.sprintf
        "boot window: %d-%d MUT cycles after each partial load, %.1f events/cycle"
        edit_cycles (edit_cycles + 31)
        (Common.fratio w.w_kernel.Rig.k_events w.w_kernel.Rig.k_edges);
    attempted = n;
    failed = 0;
    e2e;
    notes = [ ("op_tail_ms", Common.pp_tail tail) ];
    extra;
    layers;
    netsim_probe =
      (fun () ->
        let b = board rig.project in
        Vti.Flow.load_onto b rig.build;
        Rig.start b;
        Rig.probe_netsim b);
  }
