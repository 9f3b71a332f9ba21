(* zoomie_obs tests: registry snapshot determinism, log2 histogram
   bucketing, span nesting under a modeled clock, Chrome trace_event
   well-formedness — plus the cross-layer guarantees the observability
   PR exists for: a coalesced hub sweep's traced modeled durations sum
   exactly to Stats.cable_seconds, the single-meter pricing keeps the
   serial baseline and the executed sweep on one cost model, and
   enabling tracing is bit-for-bit transparent to Host/Hub/Vti results. *)

module Obs = Zoomie_obs.Obs
module Board = Zoomie_bitstream.Board
module Host = Zoomie_debug.Host
module Repl = Zoomie_debug.Repl
module Protocol = Zoomie_hub.Protocol
module Hub = Zoomie_hub.Hub
module Stats = Zoomie_hub.Stats
module Vti = Zoomie_vti.Flow

let contains ~affix s = Astring.String.is_infix ~affix s

(* --- metrics registry ------------------------------------------------ *)

let test_registry_snapshot () =
  Obs.reset ();
  let c = Obs.counter "t.alpha" in
  let g = Obs.gauge "t.beta" in
  let h = Obs.histogram "t.gamma" in
  Obs.incr c;
  Obs.incr ~by:4 c;
  Obs.set_gauge g 2.5;
  Obs.max_gauge g 1.0;
  (* lower: must not move *)
  Obs.max_gauge g 7.0;
  Obs.observe h 1.0;
  Obs.observe h 3.0;
  Alcotest.(check int) "counter" 5 (Obs.counter_value c);
  Alcotest.(check (float 0.0)) "gauge keeps max" 7.0 (Obs.gauge_value g);
  (* find-or-create returns the same handle *)
  Obs.incr (Obs.counter "t.alpha");
  Alcotest.(check int) "shared handle" 6 (Obs.counter_value c);
  (* kind clash is an error *)
  (try
     ignore (Obs.gauge "t.alpha");
     Alcotest.fail "kind clash not detected"
   with Invalid_argument _ -> ());
  let snap = Obs.snapshot () in
  let names = List.map fst snap in
  Alcotest.(check (list string))
    "sorted by name"
    (List.sort compare names)
    names;
  Alcotest.(check bool) "repeatable" true (snap = Obs.snapshot ());
  (match List.assoc "t.gamma" snap with
  | Obs.Dist d ->
    Alcotest.(check int) "dist count" 2 d.d_count;
    Alcotest.(check (float 0.0)) "dist sum" 4.0 d.d_sum;
    Alcotest.(check (float 0.0)) "dist min" 1.0 d.d_min;
    Alcotest.(check (float 0.0)) "dist max" 3.0 d.d_max
  | _ -> Alcotest.fail "t.gamma is not a histogram");
  (* reset zeroes without invalidating handles *)
  Obs.reset_metrics ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.counter_value c);
  Obs.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Obs.counter_value c)

let test_histogram_buckets () =
  (* bucket i covers [2^(i-33), 2^(i-32)) *)
  Alcotest.(check int) "v=1.0" 33 (Obs.bucket_of 1.0);
  Alcotest.(check int) "v=0.75" 32 (Obs.bucket_of 0.75);
  Alcotest.(check int) "v=2.0" 34 (Obs.bucket_of 2.0);
  Alcotest.(check int) "v=3.0" 34 (Obs.bucket_of 3.0);
  Alcotest.(check int) "v=0" 0 (Obs.bucket_of 0.0);
  Alcotest.(check int) "v<0" 0 (Obs.bucket_of (-5.0));
  Alcotest.(check int) "huge clamps" 63 (Obs.bucket_of 1e30);
  Alcotest.(check int) "tiny clamps" 0 (Obs.bucket_of 1e-30);
  let lo, hi = Obs.bucket_bounds 33 in
  Alcotest.(check (float 0.0)) "bounds lo" 1.0 lo;
  Alcotest.(check (float 0.0)) "bounds hi" 2.0 hi;
  (* each bucket's own bounds map back to it *)
  for i = 5 to 60 do
    let lo, hi = Obs.bucket_bounds i in
    Alcotest.(check int) (Printf.sprintf "lo of %d" i) i (Obs.bucket_of lo);
    Alcotest.(check int)
      (Printf.sprintf "below hi of %d" i)
      i
      (Obs.bucket_of (hi *. 0.999));
    Alcotest.(check int) (Printf.sprintf "hi of %d" i) (i + 1) (Obs.bucket_of hi)
  done

(* --- span tracing ---------------------------------------------------- *)

let test_span_nesting () =
  Obs.reset ();
  Obs.set_tracing true;
  let clock = ref 0.0 in
  let mclock () = !clock in
  let r =
    Obs.span ~cat:"t" ~mclock "outer" (fun () ->
        clock := !clock +. 1.0;
        Obs.span ~cat:"t" ~mclock "inner1" (fun () -> clock := !clock +. 0.25);
        Obs.span ~cat:"t" ~mclock "inner2" (fun () -> clock := !clock +. 0.5);
        17)
  in
  Obs.set_tracing false;
  Alcotest.(check int) "span is transparent to the result" 17 r;
  match Obs.spans () with
  | [ i1; i2; o ] ->
    (* completion order: innermost first *)
    Alcotest.(check string) "first completed" "inner1" i1.Obs.sp_name;
    Alcotest.(check string) "second completed" "inner2" i2.Obs.sp_name;
    Alcotest.(check string) "root last" "outer" o.Obs.sp_name;
    Alcotest.(check int) "root depth" 0 o.Obs.sp_depth;
    Alcotest.(check int) "root parent" (-1) o.Obs.sp_parent;
    Alcotest.(check int) "child depth" 1 i1.Obs.sp_depth;
    Alcotest.(check int) "i1 parent" o.Obs.sp_seq i1.Obs.sp_parent;
    Alcotest.(check int) "i2 parent" o.Obs.sp_seq i2.Obs.sp_parent;
    (* modeled stamps are exact: these values are binary floats *)
    Alcotest.(check bool) "i1 start" true (i1.Obs.sp_model_start = 1.0);
    Alcotest.(check bool) "i1 dur" true (i1.Obs.sp_model_dur = 0.25);
    Alcotest.(check bool) "i2 start" true (i2.Obs.sp_model_start = 1.25);
    Alcotest.(check bool) "i2 dur" true (i2.Obs.sp_model_dur = 0.5);
    Alcotest.(check bool) "outer dur" true (o.Obs.sp_model_dur = 1.75)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

(* Span wall time is the wall clock: a span around a sleep covers the
   sleep (a CPU-time clock would record almost nothing). *)
let test_span_wall_clock_covers_sleep () =
  Obs.reset ();
  Obs.set_tracing true;
  Obs.span "sleep" (fun () -> Unix.sleepf 0.05);
  Obs.set_tracing false;
  match Obs.spans () with
  | [ sp ] ->
    Alcotest.(check bool)
      (Printf.sprintf "wall %.4f s >= 0.05 s" sp.Obs.sp_wall_dur)
      true (sp.Obs.sp_wall_dur >= 0.05)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_tracing_disabled_records_nothing () =
  Obs.reset ();
  let r = Obs.span "quiet" (fun () -> 3) in
  Alcotest.(check int) "result" 3 r;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans ()))

let test_trace_ring_capacity () =
  Obs.reset ();
  Obs.set_trace_capacity 4;
  Obs.set_tracing true;
  for i = 0 to 9 do
    Obs.span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Obs.set_tracing false;
  let names = List.map (fun sp -> sp.Obs.sp_name) (Obs.spans ()) in
  Alcotest.(check (list string))
    "last 4 survive, oldest first"
    [ "s6"; "s7"; "s8"; "s9" ]
    names;
  Obs.set_trace_capacity 4096

(* --- JSON well-formedness -------------------------------------------- *)

(* A minimal JSON syntax checker: accepts exactly the RFC 8259 grammar
   (modulo number details), so a malformed export fails the test rather
   than silently breaking chrome://tracing. *)
let check_json what s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    Alcotest.failf "%s: bad JSON at offset %d: %s" what !pos msg
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let string_ () =
    expect '"';
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
          | Some 'u' ->
            incr pos;
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
              | _ -> fail "bad \\u escape"
            done
          | _ -> fail "bad escape");
          go ()
        | c when Char.code c < 0x20 -> fail "raw control char in string"
        | _ ->
          incr pos;
          go ()
    in
    go ()
  in
  let number () =
    if peek () = Some '-' then incr pos;
    let digits () =
      let d = ref 0 in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        incr pos;
        incr d
      done;
      if !d = 0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ()
  in
  let lit l =
    if !pos + String.length l <= n && String.sub s !pos (String.length l) = l
    then pos := !pos + String.length l
    else fail ("expected " ^ l)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_ ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec pairs () =
        skip_ws ();
        string_ ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          pairs ()
        | Some '}' -> incr pos
        | _ -> fail "expected , or } in object"
      in
      pairs ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          elems ()
        | Some ']' -> incr pos
        | _ -> fail "expected , or ] in array"
      in
      elems ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let test_exports_are_json () =
  Obs.reset ();
  Obs.incr (Obs.counter "j.count");
  Obs.set_gauge (Obs.gauge "j.gauge") 3.25;
  let h = Obs.histogram "j.hist \"quoted\\name\"" in
  Obs.observe h 0.5;
  Obs.observe h 1e-20;
  Obs.observe h 12.0;
  check_json "snapshot" (Obs.snapshot_to_json (Obs.snapshot ()));
  Obs.set_tracing true;
  Obs.span ~cat:"a\"b" "with \"quotes\" and \\ slashes" (fun () ->
      Obs.span "child" (fun () -> ()));
  Obs.set_tracing false;
  let trace = Obs.chrome_trace () in
  check_json "chrome trace" trace;
  Alcotest.(check bool)
    "has traceEvents" true
    (contains ~affix:"\"traceEvents\"" trace)

(* --- the hub acceptance guarantee ------------------------------------ *)

let submit hub fr =
  match Hub.submit hub fr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "submit: %s" m

let read_req s seq names =
  Protocol.frame s seq (Protocol.Read_registers names)

(* A lone request's merged sweep IS its own serial baseline: both sides
   go through Jtag.Meter.price (the executor via Meter.charge, the
   baseline via Board.price_stream over the same factored sweep
   program), so they agree to within the meter's running-total offset —
   a few ulps, not a modeling error. *)
let test_single_sweep_serial_equals_cable () =
  Obs.reset ();
  let hub, board, _info, bid = Test_hub.hub_rig () in
  let s = Test_hub.attached hub bid in
  Board.run board 25;
  submit hub (read_req s 1 [ "count"; "pending" ]);
  ignore (Hub.tick hub);
  let st = Hub.stats hub in
  Alcotest.(check int) "one sweep" 1 st.Stats.sweeps;
  Alcotest.(check bool) "cable time accrued" true (st.Stats.cable_seconds > 0.0);
  let rel =
    Float.abs (st.Stats.cable_seconds -. st.Stats.serial_cable_seconds)
    /. st.Stats.serial_cable_seconds
  in
  Alcotest.(check bool)
    (Printf.sprintf "serial == cable for a lone request (rel err %g)" rel)
    true (rel < 1e-9)

(* The acceptance criterion of the observability PR: run a 4-client hub
   workload under tracing, dump a Chrome trace, and check that the
   hub.sweep spans' modeled durations sum to *exactly*
   Stats.cable_seconds — the span brackets the same two meter samples
   the accounting subtracts, so this is float-identical, not approximate. *)
let test_hub_trace_matches_stats () =
  Obs.reset ();
  let hub, board, _info, bid = Test_hub.hub_rig () in
  let sessions = List.init 4 (fun _ -> Test_hub.attached hub bid) in
  Board.run board 40;
  Obs.set_tracing true;
  Fun.protect
    ~finally:(fun () -> Obs.set_tracing false)
    (fun () ->
      let selections =
        [
          [ "count"; "pending" ];
          [ "count"; "ev_data_r" ];
          [ "pending"; "ev_data_r" ];
          [ "count" ];
        ]
      in
      List.iter2 (fun s sel -> submit hub (read_req s 1 sel)) sessions
        selections;
      ignore (Hub.tick hub);
      Board.run board 10;
      List.iter2 (fun s sel -> submit hub (read_req s 2 sel)) sessions
        (List.rev selections);
      ignore (Hub.tick hub));
  let st = Hub.stats hub in
  let sweep_spans =
    List.filter (fun sp -> sp.Obs.sp_name = "hub.sweep") (Obs.spans ())
  in
  Alcotest.(check int)
    "one span per merged sweep" st.Stats.sweeps
    (List.length sweep_spans);
  let sum =
    List.fold_left (fun a sp -> a +. sp.Obs.sp_model_dur) 0.0 sweep_spans
  in
  Alcotest.(check bool)
    (Printf.sprintf "span durations sum exactly to cable_seconds (%.17g vs %.17g)"
       sum st.Stats.cable_seconds)
    true
    (sum = st.Stats.cable_seconds);
  (* the sweeps nest readback spans from the layer below *)
  Alcotest.(check bool)
    "readback spans nested inside" true
    (List.exists (fun sp -> sp.Obs.sp_cat = "readback") (Obs.spans ()));
  (* and the dumped trace is Chrome-loadable JSON naming the sweep *)
  let file = Filename.temp_file "zoomie_hub_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Obs.write_chrome_trace file;
      let ic = open_in file in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_json "dumped trace" text;
      Alcotest.(check bool)
        "trace names hub.sweep" true
        (contains ~affix:"\"hub.sweep\"" text))

let test_stats_summary_clamps () =
  (* Fresh stats: no sweep yet — the ratio must print n/a, never inf/nan. *)
  let st = Stats.create () in
  let s = Stats.summary st in
  Alcotest.(check bool) "ratio n/a when idle" true (contains ~affix:"n/a" s);
  Alcotest.(check bool) "no inf" false (contains ~affix:"inf" s);
  Alcotest.(check bool) "no nan" false (contains ~affix:"nan" s);
  (* Serial accrued but no merged sweep: still n/a, not inf. *)
  st.Stats.serial_cable_seconds <- 1.0;
  let s = Stats.summary st in
  Alcotest.(check bool) "ratio n/a with zero cable" true (contains ~affix:"n/a" s);
  Alcotest.(check bool) "still no inf" false (contains ~affix:"inf" s);
  (* Coalescing "lost" (cable > serial): saved clamps at 0 in the summary
     while the raw accessor keeps the sign for the tests that assert it. *)
  st.Stats.cable_seconds <- 0.5;
  st.Stats.serial_cable_seconds <- 0.25;
  Alcotest.(check bool) "raw saved is negative" true (Stats.saved_seconds st < 0.0);
  Alcotest.(check bool)
    "summary clamps saved at 0" true
    (contains ~affix:"saved_seconds=0.0000" (Stats.summary st))

(* --- REPL surface ----------------------------------------------------- *)

let test_repl_roundtrip_new_commands () =
  List.iter
    (fun cmd ->
      match Repl.parse_line (Repl.command_to_string cmd) with
      | Ok cmd' ->
        Alcotest.(check bool) (Repl.command_to_string cmd) true (cmd = cmd')
      | Error msg -> Alcotest.failf "%s: %s" (Repl.command_to_string cmd) msg)
    [
      Repl.Stats;
      Repl.Trace_ctl true;
      Repl.Trace_ctl false;
      Repl.Trace_dump "trace.json";
      (* the old VCD trace must not be shadowed by the new forms *)
      Repl.Trace (5, "t.vcd");
    ]

(* --- tracing transparency -------------------------------------------- *)

(* Drive a seed-determined multi-session hub workload and render every
   response (plus the stats line and the meter's final reading) into one
   transcript string. *)
let hub_transcript seed =
  let st = Random.State.make [| seed |] in
  let hub, board, _info, bid = Test_hub.hub_rig () in
  let sessions = List.init 3 (fun _ -> Test_hub.attached hub bid) in
  Board.run board (5 + Random.State.int st 40);
  let names = [| "count"; "pending"; "ev_data_r" |] in
  let buf = Buffer.create 512 in
  for round = 1 to 3 do
    List.iter
      (fun s ->
        let k = 1 + Random.State.int st (Array.length names) in
        let sel =
          List.init k (fun _ -> names.(Random.State.int st (Array.length names)))
          |> List.sort_uniq compare
        in
        submit hub (read_req s round sel))
      sessions;
    submit hub
      (Protocol.frame (List.hd sessions) (100 + round)
         (Protocol.Command (Repl.Step (1 + Random.State.int st 5))));
    List.iter
      (fun r ->
        Buffer.add_string buf (Protocol.response_to_wire r);
        Buffer.add_char buf '\n')
      (Hub.tick hub)
  done;
  Buffer.add_string buf (Stats.summary (Hub.stats hub));
  Buffer.add_string buf
    (Printf.sprintf "\njtag=%.17g\n" (Board.jtag_seconds board));
  Buffer.contents buf

(* Instrumentation must never change results: the same workload with
   tracing off and on produces byte-identical transcripts (values, stats,
   modeled cable time). *)
let prop_tracing_transparent =
  QCheck2.Test.make ~name:"tracing is transparent to hub/host results"
    ~count:6 QCheck2.Gen.int (fun seed ->
      Obs.reset ();
      let off = hub_transcript seed in
      Obs.reset ();
      Obs.set_tracing true;
      let on_ =
        Fun.protect
          ~finally:(fun () ->
            Obs.set_tracing false;
            Obs.clear_spans ())
          (fun () -> hub_transcript seed)
      in
      if off <> on_ then
        QCheck2.Test.fail_reportf "transcripts diverge:\n--- off\n%s--- on\n%s"
          off on_;
      true)

(* Same transparency through the compile stack: a VTI build (initial and
   incremental) is bit-for-bit identical with tracing enabled, while the
   flow counters record which path the recompile took. *)
let test_vti_tracing_transparent () =
  let module Serv = Zoomie_workloads.Serv in
  let module Manycore = Zoomie_workloads.Manycore in
  let new_circuit () =
    let program =
      [|
        Serv.instr ~op:Serv.op_li ~rd:0 ~rs:0 ~imm:42;
        Serv.instr ~op:Serv.op_out ~rd:0 ~rs:0 ~imm:0;
        Serv.instr ~op:Serv.op_halt ~rd:0 ~rs:0 ~imm:0;
      |]
    in
    Serv.core ~name:"zerv_core_obs_v2" ~program ()
  in
  let run () =
    let build = Vti.compile (Test_vti.project ()) in
    let build2 =
      Vti.recompile build ~path:Manycore.debug_core_path ~circuit:(new_circuit ())
    in
    (build.Vti.bitstream.Board.bs_words, build2.Vti.bitstream.Board.bs_words)
  in
  Obs.reset ();
  let full_off, partial_off = run () in
  Obs.reset ();
  Obs.set_tracing true;
  let (full_on, partial_on), traced_vti_phases =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_tracing false;
        Obs.clear_spans ())
      (fun () ->
        let r = run () in
        (r, List.exists (fun sp -> sp.Obs.sp_cat = "vti") (Obs.spans ())))
  in
  Alcotest.(check bool) "full bitstream bit-for-bit" true (full_off = full_on);
  Alcotest.(check bool)
    "partial bitstream bit-for-bit" true
    (partial_off = partial_on);
  (* the compile's phases actually traced, and the flow counters moved *)
  Alcotest.(check bool) "vti spans recorded" true traced_vti_phases;
  Alcotest.(check bool)
    "pool depth observed" true
    (Obs.gauge_value (Obs.gauge "vti.pool_queue_depth") > 0.0);
  Alcotest.(check bool)
    "synth cache consulted" true
    (Obs.counter_value (Obs.counter "vti.synth_cache_hits")
     + Obs.counter_value (Obs.counter "vti.synth_cache_misses")
    > 0);
  Alcotest.(check bool)
    "link path recorded" true
    (Obs.counter_value (Obs.counter "vti.relink_splice")
     + Obs.counter_value (Obs.counter "vti.full_link")
    > 0)

let suite =
  [
    Alcotest.test_case "registry snapshot" `Quick test_registry_snapshot;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "span nesting (modeled clock)" `Quick test_span_nesting;
    Alcotest.test_case "disabled tracing records nothing" `Quick
      test_tracing_disabled_records_nothing;
    Alcotest.test_case "trace ring capacity" `Quick test_trace_ring_capacity;
    Alcotest.test_case "exports are well-formed JSON" `Quick
      test_exports_are_json;
    Alcotest.test_case "lone sweep: serial == cable" `Quick
      test_single_sweep_serial_equals_cable;
    Alcotest.test_case "hub trace sums exactly to stats" `Quick
      test_hub_trace_matches_stats;
    Alcotest.test_case "stats summary clamps" `Quick test_stats_summary_clamps;
    Alcotest.test_case "repl stats/trace round-trip" `Quick
      test_repl_roundtrip_new_commands;
    QCheck_alcotest.to_alcotest prop_tracing_transparent;
    Alcotest.test_case "vti build unaffected by tracing" `Slow
      test_vti_tracing_transparent;
    Alcotest.test_case "span wall clock covers a sleep" `Quick
      test_span_wall_clock_covers_sleep;
  ]
