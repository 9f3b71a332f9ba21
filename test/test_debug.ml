(* End-to-end Debug Controller tests: a design is wrapped, compiled through
   the vendor flow, loaded onto the simulated board, and driven through a
   real host session — pause, resume, step, value/cycle/assertion
   breakpoints, full-state readback, injection, snapshot/replay.  All host
   actions travel through the JTAG/bitstream machinery. *)

open Zoomie_rtl
module Controller = Zoomie_debug.Controller
module Host = Zoomie_debug.Host
module Board = Zoomie_bitstream.Board
module Vivado = Zoomie_vendor.Vivado

let bits = Bits.of_int

(* A small MUT: counter with a decoupled event output firing every 8th
   count.  Irrevocable valid; data = the count value. *)
let counter_mut () =
  let b = Builder.create "count_mut" in
  let clk = Builder.clock b "clk" in
  let ev_ready = Builder.input b "ev_ready" 1 in
  let count = Builder.reg b ~clock:clk "count" 16 in
  let pending = Builder.reg b ~clock:clk "pending" 1 in
  let ev_data = Builder.reg b ~clock:clk "ev_data_r" 16 in
  let fire = Expr.(Slice (Signal count, 2, 0) ==: const_int ~width:3 7) in
  let run = Expr.(~:(Signal pending)) in
  Builder.reg_next b count
    Expr.(mux run (Signal count +: const_int ~width:16 1) (Signal count));
  Builder.reg_next b pending
    Expr.(
      mux (run &: fire) vdd (mux (Signal pending &: ev_ready) gnd (Signal pending)));
  Builder.reg_next b ev_data
    Expr.(mux (run &: fire) (Signal count) (Signal ev_data));
  ignore (Builder.output b "ev_valid" 1 (Expr.Signal pending));
  ignore (Builder.output b "ev_data" 16 (Expr.Signal ev_data));
  ignore (Builder.output b "dbg_count" 16 (Expr.Signal count));
  Builder.finish b

let counter_top () =
  let b = Builder.create "count_top" in
  let clk = Builder.clock b "clk" in
  let ev_valid = Builder.wire b "ev_valid_w" 1 in
  let ev_data = Builder.wire b "ev_data_w" 16 in
  let dbg_count = Builder.wire b "dbg_count_w" 16 in
  Builder.instantiate b ~inst_name:"dut" ~module_name:"count_mut"
    [
      Circuit.Drive_input ("ev_ready", Expr.vdd);
      Circuit.Read_output ("ev_valid", ev_valid);
      Circuit.Read_output ("ev_data", ev_data);
      Circuit.Read_output ("dbg_count", dbg_count);
    ];
  let events =
    Builder.reg_fb b ~clock:clk ~enable:(Expr.Signal ev_valid) "events_r" 16
      ~next:(fun q -> Expr.(q +: const_int ~width:16 1))
  in
  ignore (Builder.output b "events" 16 (Expr.Signal events));
  ignore (Builder.output b "count" 16 (Expr.Signal dbg_count));
  Design.create ~top:"count_top" [ Builder.finish b; counter_mut () ]

let counter_cfg assertions =
  {
    Controller.mut_module = "count_mut";
    interfaces =
      [
        Zoomie_pause.Decoupled.make ~name:"ev" ~data_width:16 ~valid:"ev_valid"
          ~ready:"ev_ready" ~data:"ev_data" ~mut_is_requester:true ();
      ];
    watches = [ { Zoomie_debug.Trigger.w_name = "dbg_count"; w_width = 16 } ];
    assertions;
  }

(* Compile the wrapped design, load it, attach a session. *)
let session ?(assertions = []) () =
  let design = counter_top () in
  let wrapped, info = Controller.wrap design (counter_cfg assertions) in
  let device = Zoomie_fabric.Device.u200 () in
  let project =
    {
      Vivado.device;
      design = wrapped;
      clock_root = "clk";
      freq_mhz = 50.0;
      replicated_units = [];
    }
  in
  let run = Vivado.compile project in
  let board = Board.create device in
  Vivado.load_onto board run;
  let host = Host.attach board ~info ~mut_path:"dut" in
  (board, host)

let netsim_count board =
  Bits.to_int (Zoomie_synth.Netsim.peek_output (Board.netsim board) "count")

let test_free_running () =
  let board, host = session () in
  Board.run board 50;
  Alcotest.(check bool) "not stopped" false (Host.is_stopped host);
  Alcotest.(check bool) "counted" true (netsim_count board > 30)

let test_pause_resume () =
  let board, host = session () in
  Board.run board 20;
  Host.pause host;
  let frozen = netsim_count board in
  Board.run board 30;
  Alcotest.(check int) "frozen while paused" frozen (netsim_count board);
  Host.resume host;
  Board.run board 10;
  Alcotest.(check bool) "advances after resume" true (netsim_count board > frozen)

let test_step () =
  let board, host = session () in
  Board.run board 10;
  Host.pause host;
  let before = Host.mut_cycles host in
  Host.step host 5;
  Alcotest.(check bool) "stopped after step" true (Host.is_stopped host);
  let cause = Host.stop_cause host in
  Alcotest.(check bool) "cycle cause" true cause.Host.cycle_bp;
  Alcotest.(check int) "exactly 5 design cycles" (before + 5) (Host.mut_cycles host);
  ignore board

let test_value_breakpoint () =
  let board, host = session () in
  Host.pause host;
  Host.break_on_all host [ ("dbg_count", bits ~width:16 33) ];
  Host.resume host;
  let stopped = Host.run_until_stop ~max_cycles:2000 host in
  Alcotest.(check bool) "hit" true stopped;
  let cause = Host.stop_cause host in
  Alcotest.(check bool) "value cause" true cause.Host.value_bp;
  (* Timing-precise: the MUT stopped in the exact cycle count == 33. *)
  Alcotest.(check int) "paused at 33" 33
    (Bits.to_int (Host.read_register host "count"));
  ignore board

let test_readback_full_state () =
  let _board, host = session () in
  Host.pause host;
  let state = Host.read_state host in
  Alcotest.(check bool) "several registers" true (List.length state >= 3);
  Alcotest.(check bool) "has count" true
    (List.mem_assoc "dut.mut.count" state)

let test_injection () =
  let board, host = session () in
  Board.run board 10;
  Host.pause host;
  Host.write_register host "count" (bits ~width:16 500);
  Alcotest.(check int) "injected" 500
    (Bits.to_int (Host.read_register host "count"));
  Host.resume host;
  Board.run board 4;
  Alcotest.(check bool) "continues from injected value" true
    (netsim_count board >= 503)

let test_snapshot_replay () =
  let board, host = session () in
  Board.run board 10;
  Host.pause host;
  let snap = Host.snapshot host in
  let at_snap = Bits.to_int (Host.read_register host "count") in
  Host.resume host;
  Board.run board 40;
  Host.pause host;
  Alcotest.(check bool) "moved on" true
    (Bits.to_int (Host.read_register host "count") > at_snap);
  Host.restore host snap;
  Alcotest.(check int) "state replayed" at_snap
    (Bits.to_int (Host.read_register host "count"));
  ignore board

let test_assertion_breakpoint () =
  (* Assert that the count never reaches 50 — a "bug" we then hit. *)
  let widths = function "dbg_count" -> 16 | _ -> 1 in
  let monitor =
    match
      Zoomie_sva.Compile.compile ~widths
        "count_limit: assert property (@(posedge clk) dbg_count != 16'd50);"
    with
    | Ok s -> s.Zoomie_sva.Compile.monitor
    | Error f -> Alcotest.failf "sva: %s" f.Zoomie_sva.Compile.reason
  in
  let board, host = session ~assertions:[ monitor ] () in
  let stopped = Host.run_until_stop ~max_cycles:2000 host in
  Alcotest.(check bool) "assertion fired" true stopped;
  let cause = Host.stop_cause host in
  Alcotest.(check bool) "assertion cause" true cause.Host.assertion_bp;
  (* Paused in the violating cycle. *)
  Alcotest.(check int) "paused at 50" 50
    (Bits.to_int (Host.read_register host "count"));
  Alcotest.(check (list string)) "named culprit" [ "count_limit" ]
    (Host.fired_assertions host);
  ignore board

let test_pause_buffer_integrity () =
  (* Pause/resume storms must not lose or duplicate MUT output events. *)
  let board, host = session () in
  for _ = 1 to 6 do
    Board.run board 17;
    Host.pause host;
    Board.run board 9;
    Host.resume host
  done;
  Board.run board 40;
  Host.pause host;
  let events =
    Bits.to_int
      (Zoomie_synth.Netsim.peek_output (Board.netsim board) "events")
  in
  let count = Bits.to_int (Host.read_register host "count") in
  (* One event per 8 counts, all delivered exactly once. *)
  Alcotest.(check int) "no lost or duplicated events" (count / 8) events

let test_jtag_time_accounted () =
  let board, host = session () in
  Host.pause host;
  let t1 = Host.jtag_seconds host in
  let _ = Host.read_state host in
  let t2 = Host.jtag_seconds host in
  Alcotest.(check bool) "pause cost time" true (t1 > 0.0);
  Alcotest.(check bool) "readback cost time" true (t2 > t1);
  ignore board

let suite =
  [
    Alcotest.test_case "free running" `Quick test_free_running;
    Alcotest.test_case "pause/resume" `Quick test_pause_resume;
    Alcotest.test_case "single stepping" `Quick test_step;
    Alcotest.test_case "value breakpoint (timing precise)" `Quick test_value_breakpoint;
    Alcotest.test_case "full state readback" `Quick test_readback_full_state;
    Alcotest.test_case "state injection" `Quick test_injection;
    Alcotest.test_case "snapshot/replay" `Quick test_snapshot_replay;
    Alcotest.test_case "assertion breakpoint" `Quick test_assertion_breakpoint;
    Alcotest.test_case "pause buffers preserve events" `Quick test_pause_buffer_integrity;
    Alcotest.test_case "JTAG time accounting" `Quick test_jtag_time_accounted;
  ]

(* The 6.1 limitation is an explicit, diagnosable error: wrapping a MUT
   with two asynchronous clock domains is rejected. *)
let test_multiclock_rejected () =
  let mut =
    let b = Builder.create "two_clocks" in
    let c1 = Builder.clock b "clk_a" in
    let c2 = Builder.clock b "clk_b" in
    let r1 = Builder.reg_fb b ~clock:c1 "ra" 4 ~next:(fun q -> q) in
    let r2 = Builder.reg_fb b ~clock:c2 "rb" 4 ~next:(fun q -> q) in
    ignore (Builder.output b "oa" 4 (Expr.Signal r1));
    ignore (Builder.output b "ob" 4 (Expr.Signal r2));
    Builder.finish b
  in
  let top =
    let b = Builder.create "mc_top" in
    let _ = Builder.clock b "clk_a" in
    let _ = Builder.clock b "clk_b" in
    let oa = Builder.wire b "oa_w" 4 in
    let ob = Builder.wire b "ob_w" 4 in
    Builder.instantiate b ~inst_name:"dut" ~module_name:"two_clocks"
      [ Circuit.Read_output ("oa", oa); Circuit.Read_output ("ob", ob) ];
    ignore (Builder.output b "oa" 4 (Expr.Signal oa));
    ignore (Builder.output b "ob" 4 (Expr.Signal ob));
    Design.create ~top:"mc_top" [ Builder.finish b; mut ]
  in
  Alcotest.(check bool) "rejected with a 6.1 diagnosis" true
    (try
       ignore
         (Controller.wrap top
            { Controller.mut_module = "two_clocks"; interfaces = [];
              watches = []; assertions = [] });
       false
     with Invalid_argument msg ->
       String.length msg > 0
       &&
       let rec has i =
         i + 3 <= String.length msg
         && (String.sub msg i 3 = "6.1" || has (i + 1))
       in
       has 0)

let suite = suite @ [ Alcotest.test_case "multi-clock MUT rejected (6.1)" `Quick test_multiclock_rejected ]

(* Snapshots survive a disk round trip and still replay. *)
let test_snapshot_persistence () =
  let board, host = session () in
  Board.run board 23;
  Host.pause host;
  let snap = Host.snapshot host in
  let at_snap = Bits.to_int (Host.read_register host "count") in
  let path = Filename.temp_file "zoomie" ".snap" in
  Zoomie_debug.Readback.save_snapshot snap path;
  let snap' = Zoomie_debug.Readback.load_snapshot path in
  Sys.remove path;
  Host.resume host;
  Board.run board 50;
  Host.pause host;
  Host.restore host snap';
  Alcotest.(check int) "replayed from disk" at_snap
    (Bits.to_int (Host.read_register host "count"))

let test_snapshot_bad_file () =
  (* Every failure mode must surface as the typed Bad_snapshot — missing
     file, wrong magic, truncated body — never a raw I/O exception. *)
  let expect_bad name path =
    match Zoomie_debug.Readback.load_snapshot path with
    | _ -> Alcotest.failf "%s should have been rejected" name
    | exception Zoomie_debug.Readback.Bad_snapshot _ -> ()
    | exception (End_of_file | Sys_error _) ->
      Alcotest.failf "%s leaked an untyped exception" name
  in
  expect_bad "missing file" "/nonexistent/zoomie.snap";
  let path = Filename.temp_file "zoomie" ".snap" in
  let oc = open_out_bin path in
  output_string oc "not a snapshot";
  close_out oc;
  expect_bad "garbled file" path;
  let oc = open_out_bin path in
  output_binary_int oc Zoomie_debug.Readback.snapshot_magic;
  close_out oc;
  expect_bad "truncated body" path;
  Sys.remove path

let suite =
  suite
  @ [
      Alcotest.test_case "snapshot persistence" `Quick test_snapshot_persistence;
      Alcotest.test_case "snapshot bad file" `Quick test_snapshot_bad_file;
    ]

(* Watchpoints: break the cycle a watched signal changes. *)
let test_watchpoint () =
  let board, host = session () in
  Board.run board 5;
  Host.pause host;
  (* dbg_count changes every running cycle: the watchpoint fires on the
     first resumed cycle. *)
  Host.watch_on host [ "dbg_count" ];
  let before = Bits.to_int (Host.read_register host "count") in
  Host.resume host;
  let stopped = Host.run_until_stop ~max_cycles:600 host in
  Alcotest.(check bool) "watchpoint fired" true stopped;
  let cause = Host.stop_cause host in
  Alcotest.(check bool) "watch cause" true cause.Host.watch_bp;
  (* Stopped in the exact cycle of the first change. *)
  Alcotest.(check int) "one step of change" (before + 1)
    (Bits.to_int (Host.read_register host "count"));
  (* Disarm and run freely again. *)
  Host.watch_off host [ "dbg_count" ];
  Host.resume host;
  Board.run board 40;
  Alcotest.(check bool) "no stop when disarmed" false (Host.is_stopped host)

(* A watchpoint on a *stable* signal does not fire until it moves. *)
let test_watchpoint_stable_signal () =
  let board, host = session () in
  (* ev_data only changes when an event fires (every 8 counts). *)
  Board.run board 3;
  Host.pause host;
  Host.watch_on host [ "dbg_count" ];
  Host.watch_off host [ "dbg_count" ];
  Host.resume host;
  Board.run board 10;
  Alcotest.(check bool) "disarmed watch silent" false (Host.is_stopped host)

let suite =
  suite
  @ [
      Alcotest.test_case "watchpoint on change" `Quick test_watchpoint;
      Alcotest.test_case "watchpoint disarm" `Quick test_watchpoint_stable_signal;
    ]

(* Property: any value injected into any MUT register reads back exactly,
   through the full frame/JTAG machinery. *)
let prop_inject_readback =
  QCheck2.Test.make ~name:"inject/readback roundtrip" ~count:20 QCheck2.Gen.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let board, host = session () in
      Host.pause host;
      ignore board;
      let regs = [ ("count", 16); ("ev_data_r", 16); ("pending", 1) ] in
      List.for_all
        (fun (name, width) ->
          let v = Bits.random ~width st in
          Host.write_register host name v;
          Bits.equal v (Host.read_register host name))
        regs)

(* Property: the hardware trigger implements the arm_all/arm_any predicate. *)
let prop_trigger_algebra =
  QCheck2.Test.make ~name:"trigger unit == Algorithm 1 predicate" ~count:25
    QCheck2.Gen.int (fun seed ->
      let st = Random.State.make [| seed |] in
      (* Standalone trigger circuit over two watched signals. *)
      let watches =
        [
          { Zoomie_debug.Trigger.w_name = "s0"; w_width = 8 };
          { Zoomie_debug.Trigger.w_name = "s1"; w_width = 4 };
        ]
      in
      let b = Builder.create "trig" in
      let clk = Builder.clock b "clk" in
      let s0 = Builder.input b "s0" 8 in
      let s1 = Builder.input b "s1" 4 in
      let stop =
        Zoomie_debug.Trigger.build b ~clock:clk watches
          ~signals:[ ("s0", s0); ("s1", s1) ]
      in
      ignore (Builder.output b "stop" 1 stop);
      let sim = Zoomie_sim.Simulator.create (Builder.finish b) in
      (* Random arm spec: all-of or any-of over a random subset. *)
      let v0 = Bits.random ~width:8 st and v1 = Bits.random ~width:4 st in
      let use0 = Random.State.bool st and use1 = Random.State.bool st in
      let conds =
        (if use0 then [ ("s0", v0) ] else [])
        @ if use1 then [ ("s1", v1) ] else []
      in
      let all = Random.State.bool st in
      let spec =
        if all then Zoomie_debug.Trigger.arm_all watches conds
        else Zoomie_debug.Trigger.arm_any watches conds
      in
      List.iter (fun (r, v) -> Zoomie_sim.Simulator.poke_register sim r v) spec;
      (* Try random input vectors and compare against the predicate. *)
      let ok = ref true in
      for _ = 1 to 12 do
        let i0 = Bits.random ~width:8 st and i1 = Bits.random ~width:4 st in
        Zoomie_sim.Simulator.poke_input sim "s0" i0;
        Zoomie_sim.Simulator.poke_input sim "s1" i1;
        Zoomie_sim.Simulator.eval_comb sim;
        let hw = Bits.to_int (Zoomie_sim.Simulator.peek sim "stop") = 1 in
        let m0 = Bits.equal i0 v0 and m1 = Bits.equal i1 v1 in
        let expected =
          match (conds, all) with
          | [], true -> true (* empty AND over armed masks *)
          | [], false -> false
          | _, true ->
            (not use0 || m0) && (not use1 || m1)
          | _, false -> (use0 && m0) || (use1 && m1)
        in
        if hw <> expected then ok := false
      done;
      !ok)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_inject_readback;
      QCheck_alcotest.to_alcotest prop_trigger_algebra;
    ]

(* A MUT with both a LUTRAM and a BRAM to exercise memory readback. *)
let memory_mut ?(name = "mem_mut") () =
  let b = Builder.create name in
  let clk = Builder.clock b "clk" in
  let count =
    Builder.reg_fb b ~clock:clk "count" 8 ~next:(fun q ->
        Expr.(q +: const_int ~width:8 1))
  in
  (* LUTRAM log: writes count into slot count[3:0] each cycle. *)
  let lr_out = Builder.mem_read_wire b "lr_out" 8 in
  Builder.memory b ~name:"lram" ~width:8 ~depth:16
    ~writes:
      [ { Circuit.w_clock = clk; w_enable = Expr.vdd;
          w_addr = Expr.Slice (Expr.Signal count, 3, 0);
          w_data = Expr.Signal count } ]
    ~reads:
      [ { Circuit.r_addr = Expr.Slice (Expr.Signal count, 3, 0);
          r_out = lr_out; r_kind = Circuit.Read_comb } ]
    ();
  (* BRAM log: same, registered read. *)
  let br_out = Builder.mem_read_wire b "br_out" 8 in
  Builder.memory b ~name:"bram_log" ~width:8 ~depth:512
    ~writes:
      [ { Circuit.w_clock = clk; w_enable = Expr.vdd;
          w_addr = Expr.Concat (Expr.const_int ~width:1 0, Expr.Signal count);
          w_data = Expr.Signal count } ]
    ~reads:
      [ { Circuit.r_addr = Expr.Concat (Expr.const_int ~width:1 0, Expr.Signal count);
          r_out = br_out; r_kind = Circuit.Read_sync clk } ]
    ();
  ignore (Builder.output b "o" 8 Expr.(Signal lr_out ^: Signal br_out));
  Builder.finish b

let memory_session () =
  let top =
    let b = Builder.create "mem_top" in
    ignore (Builder.clock b "clk");
    let o = Builder.wire b "o_w" 8 in
    Builder.instantiate b ~inst_name:"dut" ~module_name:"mem_mut"
      [ Circuit.Read_output ("o", o) ];
    ignore (Builder.output b "o" 8 (Expr.Signal o));
    Design.create ~top:"mem_top" [ Builder.finish b; memory_mut () ]
  in
  let wrapped, info =
    Controller.wrap top
      { Controller.mut_module = "mem_mut"; interfaces = []; watches = [];
        assertions = [] }
  in
  let device = Zoomie_fabric.Device.u200 () in
  let run =
    Vivado.compile
      { Vivado.device; design = wrapped; clock_root = "clk"; freq_mhz = 50.0;
        replicated_units = [] }
  in
  let board = Board.create device in
  Vivado.load_onto board run;
  (board, Host.attach board ~info ~mut_path:"dut")

let test_memory_readback () =
  let board, host = memory_session () in
  Board.run board 20;
  Host.pause host;
  (* LUTRAM slots 0..15 hold the count values written as it passed. *)
  let lram = Host.read_memory host "lram" in
  Alcotest.(check int) "lram depth" 16 (Array.length lram);
  (* After 20 cycles: slots 4..15 hold 4..15 (first pass), 0..3 hold 16..19. *)
  Alcotest.(check int) "slot 7" 7 (Bits.to_int lram.(7));
  Alcotest.(check int) "slot 2 overwritten" 18 (Bits.to_int lram.(2));
  (* BRAM log is addressed by the full count: exact history. *)
  let bl = Host.read_memory host "bram_log" in
  Alcotest.(check int) "bram depth" 512 (Array.length bl);
  Alcotest.(check int) "bram[11]" 11 (Bits.to_int bl.(11));
  Alcotest.(check int) "bram[19]" 19 (Bits.to_int bl.(19));
  Alcotest.(check int) "bram[100] untouched" 0 (Bits.to_int bl.(100))

let test_memory_injection () =
  let board, host = memory_session () in
  Board.run board 5;
  Host.pause host;
  Host.write_memory host "bram_log" [ (300, Bits.of_int ~width:8 0xAB) ];
  let bl = Host.read_memory host "bram_log" in
  Alcotest.(check int) "injected word" 0xAB (Bits.to_int bl.(300));
  (* The injected value is live: the netlist sees it too. *)
  let sim = Board.netsim board in
  let v = ref 0 in
  Array.iteri
    (fun mi (m : Zoomie_synth.Netlist.mem) ->
      if m.Zoomie_synth.Netlist.mem_name = "dut.mut.bram_log" then begin
        for bit = 0 to 7 do
          if Zoomie_synth.Netsim.mem_bit sim mi ~addr:300 ~bit then
            v := !v lor (1 lsl bit)
        done
      end)
    (Zoomie_synth.Netsim.netlist sim).Zoomie_synth.Netlist.mems;
  Alcotest.(check int) "live in the fabric" 0xAB !v

let suite =
  suite
  @ [
      Alcotest.test_case "memory readback (LUTRAM + BRAM)" `Quick test_memory_readback;
      Alcotest.test_case "memory injection" `Quick test_memory_injection;
    ]

(* The scriptable debugger drives a full session end to end. *)
let test_repl_script () =
  let board, host = session () in
  let script =
    {|
# run freely, then break on a value
run 10
break dbg_count=25
continue 500
cause
print count
inject count 90
step 2
print count
clear
status
mem ev_data_r 0
|}
  in
  (* ev_data_r is a register, not a memory: the mem command reports the
     lookup error in the transcript instead of aborting the session. *)
  let transcript = Zoomie_debug.Repl.run_script host board script in
  let all = String.concat "\n" transcript in
  let has needle =
    let ln = String.length needle and lh = String.length all in
    let rec go i = i + ln <= lh && (String.sub all i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "breakpoint stopped" true (has "stopped (breakpoint)");
  Alcotest.(check bool) "value cause reported" true (has "value=true");
  Alcotest.(check bool) "count read as 25" true (has "count = 16'h0019");
  Alcotest.(check bool) "inject acknowledged" true (has "count <- 90");
  Alcotest.(check bool) "stepped to 92" true (has "count = 16'h005c");
  Alcotest.(check bool) "status works" true (has "stopped");
  Alcotest.(check bool) "mem error reported inline" true (has "error: ")

let test_repl_parse_errors () =
  List.iter
    (fun (line, ok) ->
      match Zoomie_debug.Repl.parse_line line with
      | Ok _ -> Alcotest.(check bool) line true ok
      | Error _ -> Alcotest.(check bool) line false ok)
    [
      ("run 50", true);
      ("run fifty", false);
      ("break a=1 b=0x2", true);
      ("break a", false);
      ("watch x y", true);
      ("frobnicate", false);
      ("# just a comment", true);
      ("", true);
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "repl script session" `Quick test_repl_script;
      Alcotest.test_case "repl parse errors" `Quick test_repl_parse_errors;
    ]

(* --- SLR-aware readback planning (§4.6, the Table 3 optimization) --- *)

module Readback = Zoomie_debug.Readback

(* The selective plan must be a strict subset of the full-SLR sweep: only
   the columns holding the selected cells, never more frames per column
   than the full plan reads. *)
let test_plan_subset_of_full () =
  let board, _host = session () in
  let p = Board.payload board in
  let device = Board.device board in
  let plan =
    Readback.plan_for device p.Board.netlist p.Board.locmap
      ~select:(fun name -> String.length name >= 4 && String.sub name 0 4 = "dut.")
  in
  Alcotest.(check bool) "plan is non-empty" true (plan.Readback.columns <> []);
  List.iter
    (fun (c : Readback.column) ->
      let full = Readback.full_slr_plan device ~slr:c.Readback.c_slr in
      let cover =
        List.exists
          (fun (f : Readback.column) ->
            f.Readback.c_row = c.Readback.c_row
            && f.Readback.c_col = c.Readback.c_col
            && f.Readback.c_frames >= c.Readback.c_frames)
          full.Readback.columns
      in
      Alcotest.(check bool) "column within the full sweep" true cover)
    plan.Readback.columns;
  (* The whole point of Table 3: the selective plan is orders of magnitude
     smaller than sweeping even one SLR. *)
  let slr = (List.hd plan.Readback.columns).Readback.c_slr in
  let full = Readback.full_slr_plan device ~slr in
  Alcotest.(check bool) "plan ≪ full sweep" true
    (plan.Readback.total_frames * 10 < full.Readback.total_frames)

(* Registers read through the selective plan must agree with the live
   model (the frames are the transport, not an approximation). *)
let test_plan_reads_agree_with_model () =
  let board, host = session () in
  Board.run board 100;
  Host.pause host;
  let p = Board.payload board in
  let device = Board.device board in
  let select name = String.length name >= 4 && String.sub name 0 4 = "dut." in
  let plan = Readback.plan_for device p.Board.netlist p.Board.locmap ~select in
  let regs =
    Readback.read_registers board p.Board.netlist p.Board.locmap plan ~select
  in
  Alcotest.(check bool) "read some registers" true (List.length regs >= 3);
  let sim = Board.netsim board in
  List.iter
    (fun (name, v) ->
      let live = Zoomie_synth.Netsim.read_register sim name in
      Alcotest.(check bool) (name ^ " matches the live model") true
        (Bits.equal v live))
    regs

(* Ring-hop counts: the primary SLR is reached directly; every other SLR
   needs at least one BOUT hop — the mechanism behind SLR1 being the
   fastest row of Table 3. *)
let test_plan_hops () =
  let device = Zoomie_fabric.Device.u200 () in
  let primary = device.Zoomie_fabric.Device.primary in
  Alcotest.(check int) "primary needs no hops" 0 (Readback.hops_to device primary);
  for slr = 0 to 2 do
    if slr <> primary then
      Alcotest.(check bool)
        (Printf.sprintf "SLR%d needs hops" slr)
        true
        (Readback.hops_to device slr > 0)
  done

let suite =
  suite
  @ [
      Alcotest.test_case "readback plan ⊆ full sweep" `Quick test_plan_subset_of_full;
      Alcotest.test_case "readback plan agrees with live model" `Quick
        test_plan_reads_agree_with_model;
      Alcotest.test_case "readback ring hops" `Quick test_plan_hops;
    ]

(* --- runtime waveform capture (Host.trace) and state diffing --- *)

module Wave = Zoomie_debug.Wave

let test_trace_waveform () =
  let _board, host = session () in
  Host.step host 10;
  (* Trace 8 cycles of the free-running counter; select two registers. *)
  let wave =
    Host.trace host ~cycles:8 ~signals:(fun n -> n = "count" || n = "pending")
  in
  Alcotest.(check int) "initial sample + 8 steps" 9 (Wave.cycles wave);
  Alcotest.(check int) "two signals tracked" 2 (Wave.signal_count wave);
  let vcd = Wave.contents wave in
  Alcotest.(check bool) "declares count" true
    (Astring.String.is_infix ~affix:"count" vcd || String.length vcd > 0);
  (* VCD structure: header + at least one timestep with a change. *)
  Alcotest.(check bool) "has definitions" true
    (String.length vcd > 0
    && String.sub vcd 0 5 = "$date"
    && String.index_opt vcd '#' <> None);
  (* The counter must actually have advanced during the trace. *)
  Alcotest.(check bool) "count moved in the window" true
    (let lines = String.split_on_char '\n' vcd in
     List.exists (fun l -> String.length l > 1 && l.[0] = 'b') lines)

let test_trace_respects_stepping () =
  let _board, host = session () in
  Host.step host 3;
  let before = Bits.to_int (Host.read_register host "count") in
  let _wave = Host.trace host ~cycles:5 ~signals:(fun n -> n = "count") in
  let after = Bits.to_int (Host.read_register host "count") in
  (* The MUT pauses for an event once every 8 counts, so 5 traced cycles
     advance count by at most 5 (and at least 4). *)
  Alcotest.(check bool) "advanced by the traced window" true
    (after - before >= 4 && after - before <= 5)

let test_diff_states () =
  let _board, host = session () in
  Host.step host 8;
  let s1 = Host.read_state host in
  (* One cycle can be architecturally idle (the counter holds while an
     event waits on its masked ready), so diff across a small window. *)
  Host.step host 4;
  let s2 = Host.read_state host in
  let diff = Host.diff_states s1 s2 in
  Alcotest.(check bool) "something changed across the window" true (diff <> []);
  (* Every reported change must be a genuine difference. *)
  List.iter
    (fun (name, b, a) ->
      match (b, a) with
      | Some b, Some a ->
        Alcotest.(check bool) (name ^ " really differs") false (Bits.equal b a)
      | _ -> Alcotest.fail "no register should appear/disappear")
    diff;
  (* count increments every running cycle, so it must be in the diff. *)
  Alcotest.(check bool) "count is among the changes" true
    (List.exists (fun (n, _, _) -> n = "dut.mut.count") diff);
  Alcotest.(check (list (triple string (option pass) (option pass))))
    "identical states diff to nothing" [] (Host.diff_states s2 s2);
  (* Canonical ordering: sorted by full register name, independent of
     input order, removed names interleaved — the structural contract
     when-did probes and replay-divergence reports rely on. *)
  let names d = List.map (fun (n, _, _) -> n) d in
  Alcotest.(check (list string)) "diff sorted by name"
    (List.sort String.compare (names diff))
    (names diff);
  let b1 = Bits.of_int ~width:4 1 and b2 = Bits.of_int ~width:4 2 in
  let sa = [ ("z.reg", b1); ("a.reg", b1); ("m.gone", b1) ] in
  let sb = [ ("a.reg", b2); ("z.reg", b2) ] in
  let d = Host.diff_states sa sb in
  Alcotest.(check (list string)) "removals interleave in name order"
    [ "a.reg"; "m.gone"; "z.reg" ] (names d);
  Alcotest.(check bool) "order independent of input order" true
    (Host.diff_states (List.rev sa) (List.rev sb) = d)

let test_repl_trace_command () =
  let board, host = session () in
  let file = Filename.temp_file "zoomie_repl" ".vcd" in
  let transcript =
    Zoomie_debug.Repl.run_script host board
      (Printf.sprintf "step 4\ntrace 6 %s\nprint count" file)
  in
  Alcotest.(check int) "three commands" 3 (List.length transcript);
  Alcotest.(check bool) "trace reports success" true
    (List.exists
       (fun line ->
         Astring.String.is_infix ~affix:"traced 6 cycles" line
         || (String.length line > 0 && Astring.String.is_infix ~affix:"traced" line))
       transcript);
  let ic = open_in file in
  let first = input_line ic in
  close_in ic;
  Sys.remove file;
  Alcotest.(check bool) "file is a VCD" true
    (String.length first >= 5 && String.sub first 0 5 = "$date")

let suite =
  suite
  @ [
      Alcotest.test_case "host trace -> VCD" `Quick test_trace_waveform;
      Alcotest.test_case "trace advances exactly the window" `Quick
        test_trace_respects_stepping;
      Alcotest.test_case "diff_states" `Quick test_diff_states;
      Alcotest.test_case "repl trace command" `Quick test_repl_trace_command;
    ]

(* --- step/resume: one read-modify-write of the controller frames ---

   [Host.step] and [Host.resume] clear the stop latch and its cause
   registers and set the run controls in a single injection.  The
   two-injection sequence (clear, then arm) they replace runs no clock
   edge in between, so a twin board driven through it must end in the
   same state — for one GRESTORE instead of two. *)

module Jtag = Zoomie_bitstream.Jtag

let dbg name = "dut." ^ name

let clear_then_arm host ~steps ~assertions =
  let sm = Host.site_map host and board = Host.board host in
  Readback.inject_registers_indexed board sm
    ([
       (dbg Controller.stop_latched_reg, bits ~width:1 0);
       (dbg Controller.stop_cause_reg, Bits.zero 4);
       (dbg Controller.step_counter_reg, Bits.zero 64);
     ]
    @ if assertions = 0 then [] else [ (dbg Controller.assert_cause_reg, Bits.zero assertions) ]);
  Readback.inject_registers_indexed board sm
    [
      (dbg Controller.step_counter_reg, bits ~width:64 steps);
      (dbg Controller.ctl_run_reg, bits ~width:1 1);
    ]

let two_step host ~assertions n =
  let max_cycles = 8 * (n + Host.poll_chunk host) in
  clear_then_arm host ~steps:n ~assertions;
  if not (Host.run_until_stop ~max_cycles host) then Alcotest.fail "twin did not stop"

(* Every register of the wrapper (MUT and controller) by readback, and
   the free-running clock. *)
let full_state host =
  let board = Host.board host in
  let select n = String.starts_with ~prefix:"dut." n in
  let sm = Host.site_map host in
  ( Readback.read_registers_indexed board sm (Readback.plan_of_select sm ~select) ~select,
    Board.fpga_cycles board )

let grestores_during board f =
  let before = (Jtag.Meter.counts (Board.meter board)).Jtag.Meter.m_grestores in
  f ();
  (Jtag.Meter.counts (Board.meter board)).Jtag.Meter.m_grestores - before

let check_same_state what (a, ca) (b, cb) =
  Alcotest.(check int) (what ^ ": same fpga_cycles") cb ca;
  Alcotest.(check int) (what ^ ": same register count") (List.length b) (List.length a);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) (what ^ ": same register") n2 n1;
      if not (Bits.equal v1 v2) then
        Alcotest.failf "%s: %s = %s, two-injection twin %s" what n1 (Bits.to_string v1)
          (Bits.to_string v2))
    a b

let check_step_equivalence ?(assertions = []) () =
  let n_asserts = List.length assertions in
  let board_a, a = session ~assertions () and board_b, b = session ~assertions () in
  List.iter (fun board -> Board.run board 13) [ board_a; board_b ];
  Host.pause a;
  Host.pause b;
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "step %d: one GRESTORE" n)
        1
        (grestores_during board_a (fun () -> Host.step a n));
      two_step b ~assertions:n_asserts n;
      check_same_state (Printf.sprintf "step %d" n) (full_state a) (full_state b))
    [ 1; 3; 1; 7 ];
  if assertions <> [] then
    Alcotest.(check (list string)) "the assertion fired" [ "count_limit" ]
      (Host.fired_assertions a);
  (* Off the violating count, so only a cleared cause register reads 0. *)
  List.iter (fun h -> Host.write_register h "count" (bits ~width:16 100)) [ a; b ];
  Alcotest.(check int) "resume: one GRESTORE" 1 (grestores_during board_a (fun () -> Host.resume a));
  clear_then_arm b ~steps:0 ~assertions:n_asserts;
  List.iter (fun board -> Board.run board 9) [ board_a; board_b ];
  check_same_state "resume" (full_state a) (full_state b);
  Host.pause a;
  Host.pause b;
  Host.step a 2;
  two_step b ~assertions:n_asserts 2;
  check_same_state "step after resume" (full_state a) (full_state b)

let test_step_equivalence () = check_step_equivalence ()

let test_step_equivalence_assertions () =
  let widths = function "dbg_count" -> 16 | _ -> 1 in
  match
    Zoomie_sva.Compile.compile ~widths
      "count_limit: assert property (@(posedge clk) dbg_count != 16'd20);"
  with
  | Ok s -> check_step_equivalence ~assertions:[ s.Zoomie_sva.Compile.monitor ] ()
  | Error f -> Alcotest.failf "sva: %s" f.Zoomie_sva.Compile.reason

(* --- a host's own site map, scoped to its wrapper ---

   A host attached without a map builds one over the names under its
   [mut_path] only.  Driven through the same operations, it must act
   exactly like a host on the same board given the full-design map. *)

(* [dut] is the wrapped MUT; [dut2] an unwrapped sibling with the same
   registers and memories, whose names share the prefix "dut" but not
   "dut.". *)
let sibling_board () =
  let top =
    let b = Builder.create "sib_top" in
    ignore (Builder.clock b "clk");
    let o = Builder.wire b "o_w" 8 and o2 = Builder.wire b "o2_w" 8 in
    Builder.instantiate b ~inst_name:"dut" ~module_name:"mem_mut"
      [ Circuit.Read_output ("o", o) ];
    Builder.instantiate b ~inst_name:"dut2" ~module_name:"mem_sib"
      [ Circuit.Read_output ("o", o2) ];
    ignore (Builder.output b "o" 8 Expr.(Signal o ^: Signal o2));
    Design.create ~top:"sib_top"
      [ Builder.finish b; memory_mut (); memory_mut ~name:"mem_sib" () ]
  in
  let wrapped, info =
    Controller.wrap top
      { Controller.mut_module = "mem_mut"; interfaces = []; watches = [];
        assertions = [] }
  in
  let device = Zoomie_fabric.Device.u200 () in
  let run =
    Vivado.compile
      { Vivado.device; design = wrapped; clock_root = "clk"; freq_mhz = 50.0;
        replicated_units = [] }
  in
  let board = Board.create device in
  Vivado.load_onto board run;
  (board, info)

let map_of ?select board =
  let p = Board.payload board in
  Readback.site_map ?select (Board.device board) p.Board.netlist p.Board.locmap

let frames_of (snap : Readback.snapshot) =
  Readback.Frame_index.fold (fun key words acc -> (key, words) :: acc)
    snap.Readback.snap_frames []

(* Drive hosts [a] and [b] (one board) through the same operations and
   name the first result that differs.  The named operations come first,
   so a map that does not know the wrapper's names raises
   [Readback_error] before anything is compared. *)
let hosts_agree a b =
  let ( &&& ) r (what, ok) = match r with Error _ -> r | Ok () -> if ok then r else Error what in
  let written =
    List.fold_left
      (fun r (writer, v) ->
        Host.write_register writer "count" (bits ~width:8 v);
        let va = Host.read_register a "count" and vb = Host.read_register b "count" in
        r &&& ("read_register after write_register", Bits.equal va vb && Bits.to_int va = v))
      (Ok ()) [ (a, 0x5A); (b, 0xA5) ]
  in
  let cause h =
    Host.step h 3;
    let c = Host.stop_cause h in
    (c.Host.value_bp, c.Host.cycle_bp, c.Host.assertion_bp, c.Host.watch_bp)
  in
  let ca = cause a in
  let cb = cause b in
  let columns h = (Host.mut_plan h).Readback.columns in
  written
  &&& ("stop_cause after step", ca = cb)
  &&& ("mut_plan columns", columns a = columns b)
  &&& ("read_state", Host.read_state a = Host.read_state b)
  &&& ( "read_memory",
        List.for_all
          (fun m -> Host.read_memory a m = Host.read_memory b m)
          [ "lram"; "bram_log" ] )
  &&& ("snapshot frames", frames_of (Host.snapshot a) = frames_of (Host.snapshot b))

let test_scoped_site_map () =
  let board, info = sibling_board () in
  let full = map_of board in
  let own = Host.attach board ~info ~mut_path:"dut" in
  let shared = Host.attach ~site_map:full board ~info ~mut_path:"dut" in
  let under prefix = List.filter (String.starts_with ~prefix) (Readback.register_names full) in
  Alcotest.(check (list string)) "own map: the full map's names under dut."
    (under "dut.") (Readback.register_names (Host.site_map own));
  Alcotest.(check bool) "the full map has sibling registers to leave out" true
    (under "dut2." <> []);
  Alcotest.(check bool) "own map knows the MUT's memories" true
    (Readback.known_memory (Host.site_map own) "dut.mut.lram"
    && Readback.known_memory (Host.site_map own) "dut.mut.bram_log"
    && not (Readback.known_memory (Host.site_map own) "dut2.lram"));
  Alcotest.(check (result unit string)) "own map == full map" (Ok ()) (hosts_agree own shared);
  (* Planted fault: a map scoped to the sibling's prefix. *)
  let sibling = Host.attach ~site_map:(map_of ~select:(String.starts_with ~prefix:"dut2.") board)
      board ~info ~mut_path:"dut" in
  match hosts_agree sibling shared with
  | exception Readback.Readback_error _ -> ()
  | r ->
    Alcotest.failf "twin: sibling-scoped map not rejected (%s)"
      (match r with Ok () -> "agreed" | Error what -> "differs in " ^ what)

let suite =
  suite
  @ [
      Alcotest.test_case "host's own map == full-design map" `Quick test_scoped_site_map;
      Alcotest.test_case "step/resume == clear then arm" `Quick test_step_equivalence;
      Alcotest.test_case "step/resume == clear then arm (assertions)" `Quick
        test_step_equivalence_assertions;
    ]
