(* The system under test as every workload builds it: the §5.1 manycore
   with the Debug Controller wrapped around its debug core. *)

open Zoomie.Zoomie_api
module Manycore = Workloads.Manycore
module Serv = Workloads.Serv
module Board = Bitstream.Board
module Host = Debug.Host

(* The manycore at [clusters] x 18 cores.  The working set sets how much
   a run feels its neighbours on a small shared host: on a 2-core one,
   identical netsim windows of the 360-core SoC varied by 20-30% between
   processes, against about 10% at 108 cores.  vti_edit_loop, whose
   iterations are compile-bound, runs 108 cores.  farm_debug and
   reverse_debug run 18: in one set of ten seeds on a busy host, wall
   throughput spread (quartile distance over median) 16% for farm_debug
   at 18 cores on each of its two boards against 30% for reverse_debug at
   36, and five seeds of farm_debug spread 2% at 18 cores against 13-17%
   at 36 in back-to-back sets. *)
let config clusters = { Manycore.default_config with Manycore.clusters; cores_per_cluster = 18 }

let kernel_soc = config 6

let soc_label (c : Manycore.config) =
  Printf.sprintf "manycore %dx%d (%d cores)" c.Manycore.clusters c.Manycore.cores_per_cluster
    (Manycore.total_cores c)

let mut_path = Manycore.debug_core_path

(* The MUT's registers (original names); a workload reads any of them
   and injects only the 18-bit data registers. *)
let registers =
  [ "acc"; "bitcnt"; "carry"; "instr"; "mcycle"; "minstret"; "opb"; "pc"; "r0";
    "r1"; "started"; "state"; "watchdog" ]

let data_registers = [ "acc"; "opb"; "r0"; "r1" ]

let with_debug project =
  add_debug project ~mut:Manycore.debug_core_module
    ~interfaces:[ Serv.result_interface () ]
    ~watches:[ { Debug.Trigger.w_name = "halted"; w_width = 1 } ]

(* The vendor-flow project. *)
let vendor_project ~config () =
  let design, units = Manycore.design ~config () in
  with_debug (create_project design ~replicated_units:units)

let info project = Option.get project.debug_info

(* Drive the cores' [start] pin so the SoC runs its boot program. *)
let start board =
  Synth.Netsim.poke_input (Board.netsim board) "start" (Rtl.Bits.of_int ~width:1 1)

let program_board project run =
  let b = board project in
  program_vendor b run;
  start b;
  b

(* The first cycles after programming evaluate the whole fabric: the
   netsim boot phase, several times slower per cycle than steady state. *)
let boot_cycles = 30

(* Warm-up before anything is timed: past the boot phase and the cores'
   boot program, into the steady state where the rest of the SoC is
   quiescent.  From there on the MUT's behaviour no longer depends on
   how far the free-running clock got, which a recording made across
   reverse travel needs to replay on a fresh rig. *)
let warm_cycles = 600

(* ---- the VTI flavour ---------------------------------------------------- *)

(* The iterated partition is the MUT instance inside the controller
   wrapper, so an edit swaps the core while the controller (and a
   debugger's attachment to it) stays put. *)
let vti_path = mut_path ^ ".mut"

let vti_project ?(config = kernel_soc) () =
  let design, _ = Manycore.design ~config () in
  let project =
    with_debug
      (create_project design ~replicated_units:(Manycore.core_units ~config))
  in
  let vp =
    {
      Vti.Flow.device = project.device;
      design = project.design;
      clock_root = project.clock_root;
      freq_mhz = project.freq_mhz;
      replicated_units = project.replicated_units;
      iterated = [ vti_path ];
      c = Vti.Estimate.default_coefficient;
      debug_slr = 1;
    }
  in
  (project, vp)

let baseline_project (vp : Vti.Flow.project) =
  {
    Vti.Flow_baseline.device = vp.Vti.Flow.device;
    design = vp.Vti.Flow.design;
    clock_root = vp.Vti.Flow.clock_root;
    freq_mhz = vp.Vti.Flow.freq_mhz;
    replicated_units = vp.Vti.Flow.replicated_units;
    iterated = vp.Vti.Flow.iterated;
    c = vp.Vti.Flow.c;
    debug_slr = vp.Vti.Flow.debug_slr;
  }

(* One seeded edit of the debug core, the same shape as Figure 7's
   "minor change": the boot program loads two chosen constants and
   halts.  Equal constants give an identical module, which VTI's
   synthesis cache recognises. *)
let edit_core ~r0 ~r1 =
  let program =
    [|
      Serv.instr ~op:Serv.op_li ~rd:0 ~rs:0 ~imm:r0;
      Serv.instr ~op:Serv.op_li ~rd:1 ~rs:0 ~imm:r1;
      Serv.instr ~op:Serv.op_halt ~rd:0 ~rs:0 ~imm:0;
    |]
  in
  Serv.core ~name:(Printf.sprintf "zerv_core_dbg_e%d_%d" r0 r1) ~program ()

(* ---- netsim probe -------------------------------------------------------- *)

(* The netsim layer on its own: a freshly configured board run through
   its boot window, then a steady window, by [Board.run] alone. *)
type netsim_probe = { boot_cps : float; steady_cps : float }

let probe_netsim board =
  let (), boot = Common.timed (fun () -> Board.run board boot_cycles) in
  let steady_cycles = 400 in
  let (), steady = Common.timed (fun () -> Board.run board steady_cycles) in
  {
    boot_cps = Common.ratio (float_of_int boot_cycles) boot;
    steady_cps = Common.ratio (float_of_int steady_cycles) steady;
  }

(* Kernel counters summed over the boards a workload drove. *)
type kernel = { k_events : int; k_edges : int; k_hits : int; k_misses : int }

let kernel_zero = { k_events = 0; k_edges = 0; k_hits = 0; k_misses = 0 }

let kernel_of board =
  let c = Synth.Netsim.counters (Board.netsim board) in
  {
    k_events = c.Synth.Netsim.events_settled;
    k_edges = c.Synth.Netsim.edges;
    k_hits = c.Synth.Netsim.tick_cache_hits;
    k_misses = c.Synth.Netsim.tick_cache_misses;
  }

let kernel_add a b =
  {
    k_events = a.k_events + b.k_events;
    k_edges = a.k_edges + b.k_edges;
    k_hits = a.k_hits + b.k_hits;
    k_misses = a.k_misses + b.k_misses;
  }

let kernel_sub a b =
  {
    k_events = a.k_events - b.k_events;
    k_edges = a.k_edges - b.k_edges;
    k_hits = a.k_hits - b.k_hits;
    k_misses = a.k_misses - b.k_misses;
  }

(* Cable figures read from the boards' public accessors. *)
type cable = { c_seconds : float; c_words : int; c_transfers : int }

let cable_of boards =
  List.fold_left
    (fun acc b ->
      {
        c_seconds = acc.c_seconds +. Board.jtag_seconds b;
        c_words = acc.c_words + Board.words_transferred b;
        c_transfers = acc.c_transfers + Board.transfer_count b;
      })
    { c_seconds = 0.0; c_words = 0; c_transfers = 0 }
    boards

let cable_sub a b =
  {
    c_seconds = a.c_seconds -. b.c_seconds;
    c_words = a.c_words - b.c_words;
    c_transfers = a.c_transfers - b.c_transfers;
  }

(* The same counts as the observability registry has them. *)
let obs_cable () =
  ( Obs.counter_value (Obs.counter "jtag.words"),
    Obs.counter_value (Obs.counter "jtag.transfers") )

(* Registry minus accessor, over one window: [obs0]/[obs1] from
   [obs_cable], [cable] the accessor delta. *)
let jtag_drift (w0, t0) (w1, t1) cable =
  float_of_int (w1 - w0 - cable.c_words + (t1 - t0 - cable.c_transfers))

(* ---- reads, one layer at a time ------------------------------------------ *)

(* What the reads of a run moved: cable words, frames, and the useful
   share (selected FF bits over frame bits swept). *)
type reads = {
  mutable r_sweeps : int;
  mutable r_frames : int;
  mutable r_words : int;
  mutable r_frame_bits : int;
  mutable r_selected_bits : int;
}

let reads () =
  { r_sweeps = 0; r_frames = 0; r_words = 0; r_frame_bits = 0; r_selected_bits = 0 }

(* Read MUT registers (original names) the way the hub's coalescer does:
   plan, sweep, extract, each call in its own span under "host.read".
   Values come back under the original names, as the hub returns them. *)
let read_registers acc ~op host names =
  let module R = Debug.Readback in
  Common.span ~op "host.read" (fun parent ->
      let plan = Common.span ~parent ~op "host.plan" (fun _ -> Host.register_plan host names) in
      let b = Host.board host in
      let w0 = Board.words_transferred b in
      let frames = Common.span ~parent ~op "readback.sweep" (fun _ -> R.read_plan_frames b plan) in
      let sm = Host.site_map host in
      let full = List.map (Host.full_register_name host) names in
      acc.r_sweeps <- acc.r_sweeps + 1;
      acc.r_frames <- acc.r_frames + plan.R.total_frames;
      acc.r_words <- acc.r_words + (Board.words_transferred b - w0);
      acc.r_frame_bits <-
        R.Frame_index.fold (fun _ words n -> n + (32 * Array.length words)) frames
          acc.r_frame_bits;
      acc.r_selected_bits <-
        List.fold_left
          (fun n name -> n + Option.value ~default:0 (R.register_width sm name))
          acc.r_selected_bits full;
      let prefix = String.length (Host.full_register_name host "") in
      Common.span ~parent ~op "readback.extract" (fun _ ->
          R.extract_registers_named sm frames ~names:full)
      |> List.map (fun (n, v) -> (String.sub n prefix (String.length n - prefix), v)))

(* The per-layer figures of [read_registers] spans and counts. *)
let read_metrics acc =
  [
    Common.metric "host.read_ms" "ms" (Common.span_mean_ms "host.read");
    Common.metric "readback.sweep_ms" "ms" (Common.span_mean_ms "readback.sweep");
    Common.metric "readback.extract_ms" "ms" (Common.span_mean_ms "readback.extract");
    Common.metric "readback.frames_per_sweep" "count" (Common.fratio acc.r_frames acc.r_sweeps);
    Common.metric "readback.useful_bit_ratio" "ratio"
      (Common.fratio acc.r_selected_bits acc.r_frame_bits);
    Common.metric "board.execute_ms_per_kword" "ms"
      (Common.ratio
         (1000.0 *. Common.span_total "readback.sweep")
         (float_of_int acc.r_words /. 1000.0));
  ]

(* Time inside the spans that call a layer's public function directly
   (their parents only group them), for the ladder's residual.  [also]
   adds leaf calls a workload makes inside its measured loop beyond
   these. *)
let leaf_spans =
  [
    "host.plan"; "readback.sweep"; "readback.extract"; "readback.probe"; "host.step";
    "host.inject"; "readback.restore"; "timeline.checkpoint";
  ]

let leaf_total ?(also = []) () =
  Common.sum (List.map Common.span_total (leaf_spans @ also))
