(* reverse_debug: one deep recorded session, in-process, driven through
   the flight recorder ([Debug.Timeline.session]).

   Each op is one seeded round: step S, print R, inject R v, step T; every
   [travel_every]-th round also asks when-did for a register and
   reverse-continues to a seeded earlier cycle.  This loads the netsim
   kernel in steady state, readback's write path (inject, checkpoint
   restore) and the timeline; net, hub and VTI are not used.  It uses
   readback unlike farm_debug (writes and restores, not coalesced reads),
   so a readback change that helps one and hurts the other shows. *)

open Zoomie.Zoomie_api
module Board = Bitstream.Board
module Host = Debug.Host
module Repl = Debug.Repl
module Timeline = Debug.Timeline

type round = {
  s : int;
  reg : string;
  v : int;
  t : int;
  travel : (string * int) option;  (** when-did register, reverse distance *)
}

let travel_every = 4

(* MUT cycles between checkpoints: about every third round. *)
let cadence = 100

let stream_len = 2048

let pick rs l = List.nth l (Random.State.int rs (List.length l))

let gen ~seed =
  let rs = Random.State.make [| seed; 0x5e7 |] in
  Array.init stream_len (fun i ->
      {
        s = 8 + Random.State.int rs 33;
        reg = pick rs Rig.data_registers;
        v = Random.State.int rs 0x10000;
        t = 4 + Random.State.int rs 17;
        travel =
          (if i mod travel_every = travel_every - 1 then
             Some (pick rs Rig.registers, 1 + Random.State.int rs (3 * cadence / 2))
           else None);
      })

let round_string r =
  Printf.sprintf "step %d; print %s; inject %s %d; step %d%s" r.s r.reg r.reg r.v r.t
    (match r.travel with
    | Some (w, d) -> Printf.sprintf "; when-did %s; reverse-continue -%d" w d
    | None -> "")

type rig = {
  project : Zoomie.Zoomie_api.project;
  run : Vendor.Vivado.run;
  board : Board.t;
  host : Host.t;
  mutable ts : Timeline.session;
  load_s : float;
}

let rig_name = "perfbench-manycore"

(* 1 cluster x 18 cores: see [Rig.config]. *)
let soc = Rig.config 1

let setup () =
  let project = Rig.vendor_project ~config:soc () in
  let run = compile_vendor project in
  let board, load_s = Common.timed (fun () -> Rig.program_board project run) in
  let host = Host.attach board ~info:(Rig.info project) ~mut_path:Rig.mut_path in
  { project; run; board; host; ts = Timeline.session ~rig:rig_name host board; load_s }

(* ---- the timeline-level loop -------------------------------------------- *)

type window = {
  w_latencies_ms : float list;
  w_wall : float;
  w_rounds : int;
  w_cycles : int;  (** MUT cycles of the rounds' forward steps *)
  w_cable : Rig.cable;  (** cable traffic of the rounds themselves *)
  w_reexec : int list;  (** commands re-executed per reverse-continue *)
  w_from : int;  (** index of the window's first round *)
}

let exec rig ~op name cmd = Common.span ~op name (fun _ -> Timeline.execute rig.ts cmd)

let reexec_count response =
  match
    Scanf.sscanf_opt response
      "reversed to mut cycle %_d (restored checkpoint at mut cycle %_d, re-executed %d"
      Fun.id
  with
  | Some n -> n
  | None -> 0

(* [cur] is the MUT cycle counter, tracked by arithmetic as the recorder
   does; the checks read the real one afterwards, outside the timing. *)
let one_round rig ~op ~start cur r =
  ignore (exec rig ~op "timeline.step" (Repl.Step r.s));
  ignore (exec rig ~op "timeline.print" (Repl.Print r.reg));
  ignore (exec rig ~op "timeline.inject" (Repl.Inject (r.reg, r.v)));
  ignore (exec rig ~op "timeline.step" (Repl.Step r.t));
  let cur = cur + r.s + r.t in
  match r.travel with
  | None -> (cur, None)
  | Some (w, d) ->
    ignore (exec rig ~op "timeline.when_did" (Repl.When_did w));
    let target = max start (cur - d) in
    (target, Some (target, exec rig ~op "timeline.reverse" (Repl.Reverse_continue target)))

(* Several windows as one, for totals. *)
let merge ws =
  let total g = List.fold_left (fun a w -> a + g w) 0 ws in
  {
    w_latencies_ms = List.concat_map (fun w -> w.w_latencies_ms) ws;
    w_wall = List.fold_left (fun a w -> a +. w.w_wall) 0.0 ws;
    w_rounds = total (fun w -> w.w_rounds);
    w_cycles = total (fun w -> w.w_cycles);
    w_cable =
      List.fold_left
        (fun a w ->
          {
            Rig.c_seconds = a.Rig.c_seconds +. w.w_cable.Rig.c_seconds;
            c_words = a.Rig.c_words + w.w_cable.Rig.c_words;
            c_transfers = a.Rig.c_transfers + w.w_cable.Rig.c_transfers;
          })
        { Rig.c_seconds = 0.0; c_words = 0; c_transfers = 0 }
        ws;
    w_reexec = List.concat_map (fun w -> w.w_reexec) ws;
    w_from = (match ws with w :: _ -> w.w_from | [] -> 0);
  }

let rate w = Common.ratio (float_of_int w.w_rounds) w.w_wall

let drive rig rounds ~start ~cur ~from ~seconds =
  let t0 = Common.now () in
  let rec go i cur lat cycles cable reexec =
    if Common.now () -. t0 >= seconds then
      {
        w_latencies_ms = lat;
        w_wall = Common.now () -. t0;
        w_rounds = i - from;
        w_cycles = cycles;
        w_cable = cable;
        w_reexec = reexec;
        w_from = from;
      }
    else
      let r = rounds.(i mod stream_len) in
      let c0 = Rig.cable_of [ rig.board ] in
      let (cur, rev), dt =
        Common.timed (fun () ->
            Common.span ~op:i "timeline.round" (fun _ -> one_round rig ~op:i ~start cur r))
      in
      let c = Rig.cable_sub (Rig.cable_of [ rig.board ]) c0 in
      let reexec =
        match rev with
        | None -> reexec
        | Some (target, response) ->
          Common.check "reverse_debug reverse-continue"
            (Checks.landed ~target ~mut_cycles:(Host.mut_cycles rig.host) ~response);
          reexec_count response :: reexec
      in
      go (i + 1) cur ((1000.0 *. dt) :: lat) (cycles + r.s + r.t)
        {
          Rig.c_seconds = cable.Rig.c_seconds +. c.Rig.c_seconds;
          c_words = cable.Rig.c_words + c.Rig.c_words;
          c_transfers = cable.Rig.c_transfers + c.Rig.c_transfers;
        }
        reexec
  in
  go from cur [] 0 { Rig.c_seconds = 0.0; c_words = 0; c_transfers = 0 } []

(* [seconds] cut into [Common.windows] windows.  Each starts a fresh
   recording, on from the MUT cycle and the round the last one left, so
   every window records as deep a history as every other. *)
let windows rig rounds ~seconds =
  let each = seconds /. float_of_int Common.windows in
  let rec go k from acc =
    if k = 0 then List.rev acc
    else begin
      Common.sample_speed ();
      rig.ts <- Timeline.session ~rig:rig_name rig.host rig.board;
      let start = Host.mut_cycles rig.host in
      ignore (Timeline.execute rig.ts (Repl.Record (Some cadence)));
      let w = drive rig rounds ~start ~cur:start ~from ~seconds:each in
      go (k - 1) (from + w.w_rounds) (w :: acc)
    end
  in
  go Common.windows 0 []

(* ---- the host-level replay (traced run) --------------------------------- *)

(* The same rounds one layer lower: the recorder's work expressed as the
   Host/Readback calls it makes -- commands, checkpoints every [cadence]
   MUT cycles, when-did as probes of banked frames, reverse-continue as a
   restore plus re-execution. *)
type hcmd = H_step of int | H_print of string | H_inject of string * int

type hlog = {
  h : Host.t;
  reads : Rig.reads;
  mutable cur : int;
  mutable entries : (hcmd * int) list;  (** newest first, MUT cycle after *)
  mutable n : int;
  mutable cks : (int * int * Debug.Readback.snapshot) list;
      (** newest first: entry index, MUT cycle, snapshot *)
  mutable last_ck : int;
  mutable step_cycles : int;
}

let h_exec hl ~op = function
  | H_step k ->
    hl.step_cycles <- hl.step_cycles + k;
    hl.cur <- hl.cur + k;
    Common.span ~op "host.step" (fun _ -> Host.step hl.h k)
  | H_print r -> ignore (Rig.read_registers hl.reads ~op hl.h [ r ])
  | H_inject (r, v) ->
    Common.span ~op "host.inject" (fun _ ->
        Host.write_register hl.h r (Rtl.Bits.of_int ~width:18 v))

let h_checkpoint hl ~op =
  let snap = Common.span ~op "timeline.checkpoint" (fun _ -> Host.snapshot hl.h) in
  hl.cks <- (hl.n, hl.cur, snap) :: hl.cks;
  hl.last_ck <- hl.cur

let h_command hl ~op cmd =
  h_exec hl ~op cmd;
  hl.entries <- (cmd, hl.cur) :: hl.entries;
  hl.n <- hl.n + 1;
  if hl.cur - hl.last_ck >= cadence then h_checkpoint hl ~op

let h_when_did hl ~op reg =
  let now_v = List.assoc reg (Rig.read_registers hl.reads ~op hl.h [ reg ]) in
  let full = Host.full_register_name hl.h reg in
  let cks = Array.of_list (List.rev hl.cks) in
  let equal_now i =
    let _, _, snap = cks.(i) in
    match
      Common.span ~op "readback.probe" (fun _ ->
          Debug.Readback.extract_registers (Host.site_map hl.h)
            snap.Debug.Readback.snap_frames ~select:(String.equal full))
    with
    | [ (_, v) ] -> Rtl.Bits.equal v now_v
    | _ -> false
  in
  let lo = ref 0 and hi = ref (Array.length cks) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if equal_now mid then hi := mid else lo := mid + 1
  done

let h_reverse hl ~op target =
  let entries = Array.of_list (List.rev hl.entries) in
  let j = ref 0 in
  while !j < hl.n && snd entries.(!j) <= target do incr j done;
  let j = !j in
  let ck_i, ck_c, snap = List.find (fun (i, _, _) -> i <= j) hl.cks in
  Common.span ~op "readback.restore" (fun _ -> Host.restore hl.h snap);
  hl.cur <- ck_c;
  for i = ck_i to j - 1 do
    h_exec hl ~op (fst entries.(i))
  done;
  hl.entries <- List.rev (Array.to_list (Array.sub entries 0 j));
  hl.n <- j;
  hl.cks <- List.filter (fun (i, _, _) -> i <= j) hl.cks;
  (match hl.cks with (_, c, _) :: _ -> hl.last_ck <- c | [] -> ());
  if target > hl.cur then h_command hl ~op (H_step (target - hl.cur))

let replay_host rig rounds ~reads ~from ~count =
  let h =
    Common.span ~op:from "host.attach" (fun _ ->
        Host.attach rig.board ~info:(Rig.info rig.project) ~mut_path:Rig.mut_path)
  in
  let start = Host.mut_cycles h in
  let hl =
    {
      h;
      reads;
      cur = start;
      entries = [];
      n = 0;
      cks = [];
      last_ck = start;
      step_cycles = 0;
    }
  in
  let (), wall =
    Common.timed (fun () ->
        h_checkpoint hl ~op:from;
        for i = from to from + count - 1 do
          let r = rounds.(i mod stream_len) in
          Common.span ~op:i "host.round" (fun _ ->
              h_command hl ~op:i (H_step r.s);
              h_command hl ~op:i (H_print r.reg);
              h_command hl ~op:i (H_inject (r.reg, r.v));
              h_command hl ~op:i (H_step r.t);
              match r.travel with
              | None -> ()
              | Some (w, d) ->
                h_when_did hl ~op:i w;
                h_reverse hl ~op:i (max start (hl.cur - d)))
        done)
  in
  (wall, hl)

(* ---- output check: the recording replays on a fresh rig ---------------- *)

let save_recording rig ~seed =
  let file = Filename.concat Common.out_dir (Printf.sprintf "reverse-seed%d.zrec" seed) in
  (try Unix.mkdir Common.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  ignore (Timeline.execute rig.ts (Repl.Record_save file));
  file

let check_replay rig file =
  let recording = Timeline.load file in
  let board = Rig.program_board rig.project rig.run in
  let host = Host.attach board ~info:(Rig.info rig.project) ~mut_path:Rig.mut_path in
  Host.step host Rig.warm_cycles;
  let replayed, divergence = Timeline.replay recording host board in
  Common.check "reverse_debug replay"
    (Checks.replay_clean ~entries:(Array.length recording.Timeline.rec_entries) ~replayed
       divergence)

(* ---- the workload ------------------------------------------------------- *)

let run (args : Common.args) : Report.t =
  let rounds = gen ~seed:args.Common.seed in
  let digest = Common.stream_digest (Array.to_list (Array.map round_string rounds)) in
  let rig, setup_s = Common.repeated_setup ~setup ~teardown:ignore () in
  (* the warm-up; each window then records afresh *)
  ignore (Timeline.execute rig.ts (Repl.Step Rig.warm_cycles));
  let seconds = if args.Common.trace then args.Common.seconds /. 2.0 else args.Common.seconds in
  let k0 = Rig.kernel_of rig.board in
  Common.settle_heap ();
  let p0 = Common.proc_sample () in
  let ws = windows rig rounds ~seconds in
  let proc = Common.proc_delta p0 (Common.proc_sample ()) in
  let p50_of w = Common.median w.w_latencies_ms in
  Common.print_windows ~rate ~p50:p50_of ws;
  let p50, ops_per_s = Common.window_medians ~rate ~p50:p50_of ws and w = merge ws in
  let k1 = Rig.kernel_of rig.board in
  let n = w.w_rounds in
  let per x = Common.ratio x (float_of_int n) in
  let tail = Common.tail w.w_latencies_ms in
  let kernel = Rig.kernel_sub k1 k0 in
  let events_per_cycle = Common.fratio kernel.Rig.k_events kernel.Rig.k_edges in
  let e2e =
    [
      Common.metric "setup_s" "s" setup_s;
      Common.metric "op_p50_ms" "ms" p50;
      Common.metric "ops_per_s" "1/s" ops_per_s;
    ]
  in
  let notes =
    [
      ("op_tail_ms", Common.pp_tail tail ^ ", over all windows");
      ( "mut_cycles_per_s",
        Printf.sprintf "steady state after a %d-cycle warm-up, %.1f events/cycle"
          Rig.warm_cycles events_per_cycle );
    ]
  in
  let layers =
    if not args.Common.trace then []
    else begin
      Common.tracing := true;
      let probes0 = Obs.counter_value (Obs.counter "timeline.when_did_probes") in
      let o0 = Rig.obs_cable () and tc0 = Rig.cable_of [ rig.board ] in
      let tk0 = Rig.kernel_of rig.board in
      Common.settle_heap ();
      let tws = windows rig rounds ~seconds in
      let tw = merge tws in
      let tk = Rig.kernel_sub (Rig.kernel_of rig.board) tk0 in
      let drift =
        Rig.jtag_drift o0 (Rig.obs_cable ()) (Rig.cable_sub (Rig.cable_of [ rig.board ]) tc0)
      in
      let probes = Obs.counter_value (Obs.counter "timeline.when_did_probes") - probes0 in
      let nt = tw.w_rounds in
      let file = save_recording rig ~seed:args.Common.seed in
      Gc.full_major ();
      (* each traced window again, one layer lower *)
      let reads = Rig.reads () in
      let hls =
        List.map (fun tw -> replay_host rig rounds ~reads ~from:tw.w_from ~count:tw.w_rounds) tws
      in
      let t_host = Common.sum (List.map fst hls) in
      let step_cycles = List.fold_left (fun a (_, hl) -> a + hl.step_cycles) 0 hls in
      check_replay rig file;
      let t_tl = Common.span_total "timeline.round" in
      let pert x = Common.ratio x (float_of_int nt) in
      [
        ("host.step_ms_per_kcycle", "ms",
         Common.ratio (1000.0 *. Common.span_total "host.step")
           (float_of_int step_cycles /. 1000.0));
        ("host.inject_ms", "ms", Common.span_mean_ms "host.inject");
        ("host.attach_ms", "ms", Common.span_mean_ms "host.attach");
        ("readback.restore_ms", "ms", Common.span_mean_ms "readback.restore");
        ("jtag.words_per_op", "count", pert (float_of_int tw.w_cable.Rig.c_words));
        ("jtag.cable_s_per_op", "s", pert tw.w_cable.Rig.c_seconds);
        ("netsim.events_per_cycle", "count", Common.fratio tk.Rig.k_events tk.Rig.k_edges);
        ("netsim.tick_cache_hit_ratio", "ratio",
         Common.fratio tk.Rig.k_hits (tk.Rig.k_hits + tk.Rig.k_misses));
        ("timeline.self_ms_per_op", "ms", 1000.0 *. pert (t_tl -. t_host));
        ("timeline.checkpoint_ms", "ms", Common.span_mean_ms "timeline.checkpoint");
        ("timeline.reverse_ms", "ms", Common.span_mean_ms "timeline.reverse");
        ("timeline.reexec_cmds_per_reverse", "count",
         Common.mean (List.map float_of_int tw.w_reexec));
        ("timeline.when_did_probes", "count",
         Common.fratio probes (List.length (Common.span_durations "timeline.when_did")));
        ("program.load_s", "s", rig.load_s);
        ("proc.cpu_ms_per_op", "ms", 1000.0 *. per proc.Common.p_cpu);
        ("proc.minor_words_per_op", "words", per proc.Common.p_minor);
        ("proc.major_gcs", "count", float_of_int proc.Common.p_major);
        ("ladder.residual_ratio", "ratio", Common.ratio (t_host -. Rig.leaf_total ()) t_tl);
        ("trace.overhead_ratio", "ratio",
         Common.ratio (Common.median tw.w_latencies_ms) (Common.median w.w_latencies_ms));
        ("obs.count_drift", "count", drift);
      ]
      |> List.map (fun (name, unit, v) -> Common.metric name unit v)
      |> List.append (Rig.read_metrics reads)
    end
  in
  if not args.Common.trace then check_replay rig (save_recording rig ~seed:args.Common.seed);
  {
    Report.digest;
    soc;
    layout =
      Printf.sprintf "1 board, in-process recorded session, checkpoint cadence %d MUT cycles"
        cadence;
    netsim_window =
      Printf.sprintf "warm-up %d MUT cycles, %.1f events/cycle" Rig.warm_cycles events_per_cycle;
    attempted = n;
    failed = 0;
    e2e;
    notes;
    extra =
      [
        Common.metric "op_tail_ms" "ms" tail.Common.t_value;
        Common.metric "cable_s_per_op" "s" (per w.w_cable.Rig.c_seconds);
        Common.metric "fail_ratio" "ratio" 0.0;
        Common.metric "mut_cycles_per_s" "1/s" (Common.ratio (float_of_int w.w_cycles) w.w_wall);
      ];
    layers;
    netsim_probe =
      (fun () -> Rig.probe_netsim (Rig.program_board rig.project rig.run));
  }
