(* zoomie_hub tests: wire-protocol round-trips, per-board arbitration
   (lock conflicts, admission control), session timeouts, stop-event
   fan-out, readback coalescing, board leases — plus a QCheck
   differential pinning the coalesced multi-session sweep bit-for-bit to
   the per-session Host oracle. *)

open Zoomie_rtl
module Host = Zoomie_debug.Host
module Repl = Zoomie_debug.Repl
module Readback = Zoomie_debug.Readback
module Controller = Zoomie_debug.Controller
module Board = Zoomie_bitstream.Board
module Vivado = Zoomie_vendor.Vivado
module Protocol = Zoomie_hub.Protocol
module Session = Zoomie_hub.Session
module Hub = Zoomie_hub.Hub
module Stats = Zoomie_hub.Stats

let bits = Bits.of_int

(* The same compiled counter design Test_debug drives directly, but
   returning the wrap info so a hub can own the board. *)
let hub_board ?(assertions = []) () =
  let design = Test_debug.counter_top () in
  let wrapped, info = Controller.wrap design (Test_debug.counter_cfg assertions) in
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
  (board, info)

let hub_rig ?config ?assertions () =
  let board, info = hub_board ?assertions () in
  let hub = Hub.create ?config () in
  match Hub.add_board hub board ~info with
  | Ok bid -> (hub, board, info, bid)
  | Error msg -> Alcotest.failf "add_board: %s" msg

let expect_done what (r : Protocol.response Protocol.frame) =
  match r.Protocol.fr_payload with
  | Protocol.Done _ -> ()
  | Protocol.Failed msg -> Alcotest.failf "%s failed: %s" what msg
  | Protocol.Busy n -> Alcotest.failf "%s: unexpected busy %d" what n
  | Protocol.Values _ -> Alcotest.failf "%s: unexpected values" what

(* Open a session and attach it to the wrapped MUT at "dut". *)
let attached hub bid =
  match Hub.open_session hub ~board:bid with
  | Error msg -> Alcotest.failf "open_session: %s" msg
  | Ok sid ->
    expect_done "attach" (Hub.call hub (Protocol.frame sid 0 (Protocol.Attach "dut")));
    sid

(* --- wire protocol --------------------------------------------------- *)

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Open_session "any";
      Protocol.Open_session "xcu250";
      Protocol.Attach "dut";
      Protocol.Detach;
      Protocol.Subscribe;
      Protocol.Unsubscribe;
      Protocol.Read_registers [];
      Protocol.Read_registers [ "count"; "pending" ];
      Protocol.Command (Repl.Run 100);
      Protocol.Command (Repl.Continue 50);
      Protocol.Command Repl.Pause;
      Protocol.Command Repl.Resume;
      Protocol.Command (Repl.Step 5);
      Protocol.Command (Repl.Break_all [ ("dbg_count", 33); ("x", 1) ]);
      Protocol.Command (Repl.Break_any [ ("dbg_count", 7) ]);
      Protocol.Command (Repl.Watch [ "a"; "b" ]);
      Protocol.Command (Repl.Unwatch [ "a" ]);
      Protocol.Command Repl.Clear;
      Protocol.Command (Repl.Print "count");
      Protocol.Command (Repl.Mem ("scratch", 3));
      Protocol.Command Repl.State;
      Protocol.Command (Repl.Inject ("count", 7));
      Protocol.Command (Repl.Trace (5, "t.vcd"));
      Protocol.Command (Repl.Save "snap.zsn");
      Protocol.Command (Repl.Load "snap.zsn");
      Protocol.Command Repl.Cause;
      Protocol.Command Repl.Cycles;
      Protocol.Command Repl.Status;
      Protocol.Command Repl.Nop;
    ]
  in
  List.iteri
    (fun i req ->
      let fr = Protocol.frame 3 (i + 1) req in
      let wire = Protocol.request_to_wire fr in
      match Protocol.request_of_wire wire with
      | Ok fr' -> Alcotest.(check bool) wire true (fr' = fr)
      | Error msg -> Alcotest.failf "%s: %s" wire msg)
    reqs

let test_response_roundtrip () =
  (* Free text survives the line framing, including newlines/backslashes. *)
  List.iter
    (fun resp ->
      let fr = Protocol.frame 2 7 resp in
      match Protocol.response_of_wire (Protocol.response_to_wire fr) with
      | Ok fr' -> Alcotest.(check bool) "text response" true (fr' = fr)
      | Error msg -> Alcotest.failf "text response: %s" msg)
    [
      Protocol.Done "attached dut";
      Protocol.Done "line one\nline two \\ backslash";
      Protocol.Failed "error: unknown register \"x\"";
      Protocol.Busy 17;
      Protocol.Busy 0;
    ];
  (* Register values round-trip bit-for-bit. *)
  let vs = [ ("count", bits ~width:16 37); ("pending", bits ~width:1 1) ] in
  let fr = Protocol.frame 2 8 (Protocol.Values vs) in
  match Protocol.response_of_wire (Protocol.response_to_wire fr) with
  | Ok { Protocol.fr_session = 2; fr_seq = 8; fr_payload = Protocol.Values vs' } ->
    Alcotest.(check (list string)) "value names" (List.map fst vs) (List.map fst vs');
    List.iter2
      (fun (n, a) (_, b) -> Alcotest.(check bool) n true (Bits.equal a b))
      vs vs'
  | Ok _ -> Alcotest.fail "values: wrong frame"
  | Error msg -> Alcotest.failf "values: %s" msg

(* Malformed [values] payloads must produce a descriptive [Error] naming
   the offending pair — never a swallowed exception or a leaked
   [failwith] of the raw payload. *)
let test_values_parse_errors () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let parse body = Protocol.response_of_wire ("zh1 2 9 values " ^ body) in
  (match parse "count=101,broken" with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "missing '=' error names the pair: %s" msg)
      true
      (contains msg "broken")
  | Ok _ -> Alcotest.fail "pair without '=' accepted");
  (match parse "count=10x1" with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "bad binary error names the pair: %s" msg)
      true
      (contains msg "count=10x1")
  | Ok _ -> Alcotest.fail "non-binary value accepted");
  (match parse "count=" with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "empty value error names the pair: %s" msg)
      true
      (contains msg "count=")
  | Ok _ -> Alcotest.fail "empty value accepted");
  (* Well-formed payloads still parse after the narrowing. *)
  match parse "a=1,b=0110" with
  | Ok { Protocol.fr_payload = Protocol.Values [ ("a", va); ("b", vb) ]; _ } ->
    Alcotest.(check int) "a value" 1 (Bits.to_int va);
    Alcotest.(check int) "b width" 4 (Bits.width vb)
  | Ok _ -> Alcotest.fail "good payload parsed to wrong frame"
  | Error msg -> Alcotest.failf "good payload rejected: %s" msg

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      let fr = Protocol.frame 5 11 ev in
      match Protocol.event_of_wire (Protocol.event_to_wire fr) with
      | Ok fr' -> Alcotest.(check bool) "event" true (fr' = fr)
      | Error msg -> Alcotest.failf "event: %s" msg)
    [
      Protocol.Stopped { at_cycle = 46; flags = [ "value"; "cycle" ]; fired = [ "a1" ] };
      Protocol.Stopped { at_cycle = 0; flags = []; fired = [] };
      Protocol.Session_closed "idle for 5 ticks";
    ]

let test_version_refused () =
  List.iter
    (fun line ->
      match Protocol.request_of_wire line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [
      "zh2 1 1 detach" (* newer version: refuse, don't guess *);
      "zh0 1 1 detach";
      "zh1 x 1 detach" (* bad session *);
      "zh1 1 1 frobnicate" (* unknown verb *);
      "zh1" (* truncated *);
    ];
  (* The refusal is a negotiation message naming BOTH versions — the
     peer's and ours — so either side of a mixed deployment can tell
     which end needs the upgrade.  Never a silent drop. *)
  let infix = Astring.String.is_infix in
  (match Protocol.request_of_wire "zh2 1 1 detach" with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "names the peer version: %s" msg)
      true (infix ~affix:"zh2" msg);
    Alcotest.(check bool)
      (Printf.sprintf "names our version: %s" msg)
      true (infix ~affix:"zh1" msg)
  | Ok _ -> Alcotest.fail "zh2 accepted");
  match Protocol.request_of_wire "banana 1 1 detach" with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "unparsable tag still names our version: %s" msg)
      true
      (infix ~affix:"banana" msg && infix ~affix:"zh1" msg)
  | Ok _ -> Alcotest.fail "non-zh tag accepted"

(* The protocol carries commands as their REPL line syntax, so the
   emitter must be an exact inverse of the parser. *)
let test_command_to_string_inverse () =
  List.iter
    (fun cmd ->
      let line = Repl.command_to_string cmd in
      match Repl.parse_line line with
      | Ok cmd' -> Alcotest.(check bool) ("roundtrip " ^ line) true (cmd = cmd')
      | Error msg -> Alcotest.failf "%S: %s" line msg)
    [
      Repl.Run 10;
      Repl.Continue 3;
      Repl.Pause;
      Repl.Resume;
      Repl.Step 1;
      Repl.Break_all [ ("s", 4); ("t", 0) ];
      Repl.Break_any [ ("s", 9) ];
      Repl.Watch [ "a"; "b" ];
      Repl.Unwatch [ "b" ];
      Repl.Clear;
      Repl.Print "count";
      Repl.Mem ("scratch", 12);
      Repl.State;
      Repl.Inject ("count", 3);
      Repl.Trace (8, "w.vcd");
      Repl.Save "s.zsn";
      Repl.Load "s.zsn";
      Repl.Cause;
      Repl.Cycles;
      Repl.Status;
      Repl.Nop;
    ]

(* --- hub behaviour ---------------------------------------------------- *)

let test_hub_read_matches_host () =
  let hub, board, info, bid = hub_rig () in
  Board.run board 37;
  let sid = attached hub bid in
  let probe = Host.attach board ~info ~mut_path:"dut" in
  let names = [ "count"; "ev_data_r"; "pending" ] in
  match
    (Hub.call hub (Protocol.frame sid 1 (Protocol.Read_registers names)))
      .Protocol.fr_payload
  with
  | Protocol.Values vs ->
    Alcotest.(check (list string))
      "demuxed names" (List.sort compare names) (List.map fst vs);
    List.iter
      (fun (n, v) ->
        Alcotest.(check bool)
          ("matches Host " ^ n) true
          (Bits.equal v (Host.read_register probe n)))
      vs
  | Protocol.Failed msg -> Alcotest.failf "read failed: %s" msg
  | Protocol.Busy _ -> Alcotest.fail "read: unexpected busy"
  | Protocol.Done _ -> Alcotest.fail "read: unexpected transcript"

let test_read_requires_attach () =
  let hub, _board, _info, bid = hub_rig () in
  match Hub.open_session hub ~board:bid with
  | Error msg -> Alcotest.failf "open_session: %s" msg
  | Ok sid -> (
    match
      (Hub.call hub (Protocol.frame sid 1 (Protocol.Read_registers [ "count" ])))
        .Protocol.fr_payload
    with
    | Protocol.Failed msg ->
      Alcotest.(check string) "diagnosis" "not attached" msg
    | _ -> Alcotest.fail "read before attach must fail")

let test_lock_conflict () =
  let hub, board, info, bid = hub_rig () in
  let sa = attached hub bid in
  let sb = attached hub bid in
  let probe = Host.attach board ~info ~mut_path:"dut" in
  expect_done "pause" (Hub.call hub (Protocol.frame sa 1 (Protocol.Command Repl.Pause)));
  let before = Host.mut_cycles probe in
  let step s seq = Protocol.frame s seq (Protocol.Command (Repl.Step 4)) in
  (match Hub.submit hub (step sa 2) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "submit a: %s" msg);
  (match Hub.submit hub (step sb 2) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "submit b: %s" msg);
  (* One tick grants exactly one exclusive mutator; the other session's
     step is deferred and counted as a lock conflict. *)
  let first = Hub.tick hub in
  Alcotest.(check int) "one mutator per tick" 1 (List.length first);
  let r = List.hd first in
  Alcotest.(check int) "FIFO holder" sa r.Protocol.fr_session;
  expect_done "first step" r;
  Alcotest.(check int) "conflict counted" 1 (Hub.stats hub).Stats.lock_conflicts;
  let second = Hub.tick hub in
  Alcotest.(check int) "deferred mutator completes" 1 (List.length second);
  let r = List.hd second in
  Alcotest.(check int) "deferred holder" sb r.Protocol.fr_session;
  expect_done "second step" r;
  Alcotest.(check int) "no further conflicts" 1 (Hub.stats hub).Stats.lock_conflicts;
  Alcotest.(check int) "both steps executed" (before + 8) (Host.mut_cycles probe)

let test_admission_control () =
  let config =
    { Hub.max_sessions_per_board = 1; max_queue = 2; session_timeout_ticks = 1000 }
  in
  let hub, _board, _info, bid = hub_rig ~config () in
  let sid =
    match Hub.open_session hub ~board:bid with
    | Ok sid -> sid
    | Error msg -> Alcotest.failf "open_session: %s" msg
  in
  (* Session cap: the second admission is refused. *)
  (match Hub.open_session hub ~board:bid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "session cap not enforced");
  (* Queue cap: the third queued request is refused and counted. *)
  let sub seq = Protocol.frame sid seq Protocol.Subscribe in
  (match Hub.submit hub (sub 1) with Ok () -> () | Error m -> Alcotest.fail m);
  (match Hub.submit hub (sub 2) with Ok () -> () | Error m -> Alcotest.fail m);
  (match Hub.submit hub (sub 3) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "queue cap not enforced");
  Alcotest.(check int) "rejected counted" 1 (Hub.stats hub).Stats.rejected;
  Alcotest.(check int) "admitted drained" 2 (List.length (Hub.tick hub));
  (* Unknown boards and sessions are refused outright. *)
  (match Hub.open_session hub ~board:99 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown board admitted");
  match Hub.submit hub (Protocol.frame 99 1 Protocol.Subscribe) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown session admitted"

let test_session_timeout () =
  let config =
    { Hub.max_sessions_per_board = 8; max_queue = 64; session_timeout_ticks = 3 }
  in
  let hub, _board, _info, bid = hub_rig ~config () in
  let sa = attached hub bid in
  let sb = attached hub bid in
  (* [sa] keeps submitting; [sb] goes quiet and is reaped. *)
  for seq = 1 to 6 do
    match Hub.submit hub (Protocol.frame sa seq (Protocol.Command Repl.Cycles)) with
    | Ok () -> ignore (Hub.tick hub)
    | Error msg -> Alcotest.failf "keep-alive submit: %s" msg
  done;
  Alcotest.(check bool)
    "active session survives" true
    (Hub.session_status hub sa = Some Session.Active);
  Alcotest.(check bool)
    "idle session reaped" true
    (Hub.session_status hub sb = Some Session.Timed_out);
  Alcotest.(check int) "timeout counted" 1 (Hub.stats hub).Stats.timeouts;
  (* A reaped session can no longer submit... *)
  (match Hub.submit hub (Protocol.frame sb 9 Protocol.Subscribe) with
  | Error msg -> Alcotest.(check string) "diagnosis" "session timed out" msg
  | Ok () -> Alcotest.fail "timed-out session accepted work");
  (* ...but its closing notice stays collectable. *)
  match Hub.events hub ~session:sb with
  | [ { Protocol.fr_payload = Protocol.Session_closed reason; _ } ] ->
    Alcotest.(check bool)
      "reason names the idle budget" true
      (Astring.String.is_infix ~affix:"idle" reason)
  | evs -> Alcotest.failf "expected one Session_closed, got %d events" (List.length evs)

let test_event_fanout () =
  let hub, _board, _info, bid = hub_rig () in
  let subs = [ attached hub bid; attached hub bid; attached hub bid ] in
  List.iter
    (fun s ->
      expect_done "subscribe" (Hub.call hub (Protocol.frame s 2 Protocol.Subscribe)))
    subs;
  let driver = List.hd subs in
  let cmd seq c = Hub.call hub (Protocol.frame driver seq (Protocol.Command c)) in
  expect_done "pause" (cmd 3 Repl.Pause);
  expect_done "arm" (cmd 4 (Repl.Break_all [ ("dbg_count", 40) ]));
  expect_done "resume" (cmd 5 Repl.Resume);
  expect_done "run" (cmd 6 (Repl.Run 200));
  let evs = List.map (fun s -> Hub.events hub ~session:s) subs in
  List.iter
    (fun e -> Alcotest.(check int) "one event per subscriber" 1 (List.length e))
    evs;
  let frames = List.map List.hd evs in
  (* One detection fans out: every subscriber sees the same event under
     the same fan-out sequence number. *)
  (match frames with
  | first :: rest ->
    List.iter
      (fun (fr : Protocol.event Protocol.frame) ->
        Alcotest.(check int) "shared event seq" first.Protocol.fr_seq fr.Protocol.fr_seq;
        Alcotest.(check bool) "same payload" true (fr.Protocol.fr_payload = first.Protocol.fr_payload))
      rest
  | [] -> Alcotest.fail "no events");
  (match (List.hd frames).Protocol.fr_payload with
  | Protocol.Stopped { flags; at_cycle; fired } ->
    Alcotest.(check bool) "value cause" true (List.mem "value" flags);
    Alcotest.(check bool) "stopped mid-run" true (at_cycle > 0);
    Alcotest.(check (list string)) "no assertions fired" [] fired
  | Protocol.Session_closed _ -> Alcotest.fail "wrong event");
  let st = Hub.stats hub in
  Alcotest.(check int) "published once" 1 st.Stats.events_published;
  Alcotest.(check int) "delivered to all" 3 st.Stats.events_delivered;
  Alcotest.(check int) "subscriber polls replaced" 2 st.Stats.polls_avoided

let test_coalescing_savings () =
  let hub, board, info, bid = hub_rig () in
  let sa = attached hub bid in
  let sb = attached hub bid in
  let probe = Host.attach board ~info ~mut_path:"dut" in
  Board.run board 25;
  let read s seq names = Protocol.frame s seq (Protocol.Read_registers names) in
  (match Hub.submit hub (read sa 1 [ "count"; "pending" ]) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Hub.submit hub (read sb 1 [ "count"; "ev_data_r" ]) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let resps = Hub.tick hub in
  Alcotest.(check int) "both served in one tick" 2 (List.length resps);
  List.iter
    (fun (r : Protocol.response Protocol.frame) ->
      match r.Protocol.fr_payload with
      | Protocol.Values vs ->
        List.iter
          (fun (n, v) ->
            Alcotest.(check bool)
              ("oracle " ^ n) true
              (Bits.equal v (Host.read_register probe n)))
          vs
      | _ -> Alcotest.fail "expected values")
    resps;
  let st = Hub.stats hub in
  Alcotest.(check int) "one merged sweep" 1 st.Stats.sweeps;
  Alcotest.(check int) "served two reads" 2 st.Stats.coalesced_reads;
  Alcotest.(check bool)
    "union smaller than sum" true
    (st.Stats.frames_read < st.Stats.frames_requested);
  Alcotest.(check bool)
    "cable time saved" true
    (st.Stats.cable_seconds < st.Stats.serial_cable_seconds);
  Alcotest.(check bool) "savings accounted" true (Stats.saved_seconds st > 0.0)

(* --- coalescing / lease / host-layer units --------------------------- *)

let test_merge_plans () =
  let board, info = hub_board () in
  let probe = Host.attach board ~info ~mut_path:"dut" in
  let p1 = Host.register_plan probe [ "count" ] in
  let p2 = Host.register_plan probe [ "count"; "pending" ] in
  let m = Readback.merge_plans [ p1; p2 ] in
  Alcotest.(check bool)
    "union covers the larger plan" true
    (m.Readback.total_frames >= p2.Readback.total_frames);
  Alcotest.(check bool)
    "shared columns deduplicated" true
    (m.Readback.total_frames <= p1.Readback.total_frames + p2.Readback.total_frames
    && List.length m.Readback.columns
       <= List.length p1.Readback.columns + List.length p2.Readback.columns);
  (* [selected] is the sorted union of the input selections. *)
  let sel p = Array.to_list (Option.get p.Readback.selected) in
  Alcotest.(check (list string))
    "selected union" (List.sort_uniq compare (sel p1 @ sel p2)) (sel m);
  (* Merging in an unselective plan drops the name restriction. *)
  let full = Readback.full_slr_plan (Board.device board) ~slr:0 in
  Alcotest.(check bool)
    "unselective merge" true
    ((Readback.merge_plans [ p1; full ]).Readback.selected = None);
  (* A single-plan merge is that plan. *)
  let m1 = Readback.merge_plans [ p1 ] in
  Alcotest.(check int) "identity frames" p1.Readback.total_frames m1.Readback.total_frames;
  Alcotest.(check (list string)) "identity selection" (sel p1) (sel m1)

let test_board_lease () =
  let board, info = hub_board () in
  (match Board.acquire_lease board ~owner:"alice" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* Re-acquiring your own lease is idempotent; another owner is refused. *)
  (match Board.acquire_lease board ~owner:"alice" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "idempotent acquire: %s" m);
  (match Board.acquire_lease board ~owner:"bob" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double lease");
  Alcotest.(check bool) "owner recorded" true (Board.lease_owner board = Some "alice");
  (* A hub refuses a board someone else holds. *)
  let hub = Hub.create () in
  (match Hub.add_board hub board ~info with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hub stole a leased board");
  Board.release_lease board ~owner:"alice";
  Alcotest.(check bool) "released" true (Board.lease_owner board = None);
  match Hub.add_board hub board ~info with
  | Ok _ -> Alcotest.(check bool) "hub lease" true (Board.lease_owner board = Some Hub.lease_owner)
  | Error m -> Alcotest.failf "add_board after release: %s" m

let test_repl_save_load () =
  let board, host = Test_debug.session () in
  Board.run board 20;
  Host.pause host;
  let file = "hub_test_snapshot.zsn" in
  let out = Repl.execute host board (Repl.Save file) in
  Alcotest.(check bool)
    "save transcript" true
    (Astring.String.is_prefix ~affix:"saved snapshot" out);
  let saved = Host.read_register host "count" in
  Host.step host 7;
  Alcotest.(check bool)
    "state moved on" false
    (Bits.equal saved (Host.read_register host "count"));
  let out = Repl.execute host board (Repl.Load file) in
  Alcotest.(check bool)
    "load transcript" true
    (Astring.String.is_prefix ~affix:"restored snapshot" out);
  Alcotest.(check bool)
    "state restored" true
    (Bits.equal saved (Host.read_register host "count"));
  Sys.remove file;
  (* A missing file reports cleanly through the script surface. *)
  match Repl.run_script host board "load no_such_snapshot.zsn" with
  | [ line ] ->
    Alcotest.(check bool)
      "bad snapshot reported" true
      (Astring.String.is_infix ~affix:"error: bad snapshot:" line)
  | lines -> Alcotest.failf "expected one transcript line, got %d" (List.length lines)

let test_adaptive_poll_chunk () =
  let _board, host = Test_debug.session () in
  Alcotest.(check int)
    "starts at the initial granularity" Host.initial_poll_chunk
    (Host.poll_chunk host);
  (* An idle run doubles the granularity each poll... *)
  Alcotest.(check bool)
    "no stop without a breakpoint" false
    (Host.run_until_stop ~max_cycles:3000 host);
  Alcotest.(check bool)
    "granularity grew while idle" true
    (Host.poll_chunk host > Host.initial_poll_chunk);
  (* ...and a stop resets it so the next hunt starts tight. *)
  Host.pause host;
  Host.step host 3;
  Alcotest.(check int)
    "stop resets the granularity" Host.initial_poll_chunk (Host.poll_chunk host)

(* --- differential property ------------------------------------------- *)

(* The tentpole guarantee: a coalesced hub sweep serving several sessions'
   overlapping selections returns, per session, exactly the bits the
   per-session Host oracle reads. *)
let prop_hub_matches_oracle =
  QCheck2.Test.make ~name:"coalesced hub sweep == per-session Host oracle"
    ~count:10 QCheck2.Gen.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let board, info = hub_board () in
      let hub = Hub.create () in
      let bid =
        match Hub.add_board hub board ~info with
        | Ok bid -> bid
        | Error msg -> failwith msg
      in
      let probe = Host.attach board ~info ~mut_path:"dut" in
      let names = [| "count"; "ev_data_r"; "pending" |] in
      let sids =
        List.init
          (2 + Random.State.int st 3)
          (fun _ ->
            match Hub.open_session hub ~board:bid with
            | Error msg -> failwith msg
            | Ok sid -> (
              match
                (Hub.call hub (Protocol.frame sid 0 (Protocol.Attach "dut")))
                  .Protocol.fr_payload
              with
              | Protocol.Done _ -> sid
              | _ -> failwith "attach failed"))
      in
      let ok = ref true in
      for round = 1 to 3 do
        Board.run board (1 + Random.State.int st 60);
        (* Every session queues a random (overlapping) selection; one tick
           serves them all from a single merged sweep. *)
        let expected =
          List.map
            (fun sid ->
              let subset =
                Zoomie_fuzz.Gen.gen_selection st (Array.to_list names)
              in
              (match
                 Hub.submit hub
                   (Protocol.frame sid round (Protocol.Read_registers subset))
               with
              | Ok () -> ()
              | Error msg -> failwith msg);
              (sid, List.sort_uniq compare subset))
            sids
        in
        let resps = Hub.tick hub in
        List.iter
          (fun (sid, subset) ->
            match
              List.find_opt
                (fun (r : Protocol.response Protocol.frame) ->
                  r.Protocol.fr_session = sid && r.Protocol.fr_seq = round)
                resps
            with
            | Some { Protocol.fr_payload = Protocol.Values vs; _ } ->
              if List.map fst vs <> subset then ok := false
              else if
                not
                  (List.for_all
                     (fun (n, v) -> Bits.equal v (Host.read_register probe n))
                     vs)
              then ok := false
            | _ -> ok := false)
          expected
      done;
      !ok)

(* The timeline verbs travel the zh1 wire like any other command: record /
   step / when-did / reverse-step all round-trip Done through the hub
   (reverse verbs in the exclusive mutator slot), and misuse maps to
   Failed rather than an exception escaping the scheduler. *)
let test_timeline_verbs_over_hub () =
  let hub, _board, _info, bid = hub_rig () in
  let sid = attached hub bid in
  let cmd seq c = Hub.call hub (Protocol.frame sid seq (Protocol.Command c)) in
  let done_text what (r : Protocol.response Protocol.frame) =
    match r.Protocol.fr_payload with
    | Protocol.Done s -> s
    | Protocol.Failed m -> Alcotest.failf "%s failed: %s" what m
    | _ -> Alcotest.failf "%s: expected Done" what
  in
  let infix affix s = Astring.String.is_infix ~affix s in
  let r = done_text "record" (cmd 1 (Repl.Record (Some 8))) in
  Alcotest.(check bool) "record acked" true (infix "recording" r);
  expect_done "step" (cmd 2 (Repl.Step 20));
  expect_done "inject" (cmd 3 (Repl.Inject ("count", 5)));
  expect_done "step again" (cmd 4 (Repl.Step 12));
  let s = done_text "record status" (cmd 5 Repl.Record_status) in
  Alcotest.(check bool) "status reports entries" true (infix "entries" s);
  let w = done_text "when-did" (cmd 6 (Repl.When_did "count")) in
  Alcotest.(check bool) "when-did probes host-side" true
    (infix "0 restores" w);
  let v = done_text "reverse-step" (cmd 7 (Repl.Reverse_step 10)) in
  Alcotest.(check bool) "reverse-step reversed" true (infix "reversed" v);
  (match (cmd 8 (Repl.Reverse_continue 999_999)).Protocol.fr_payload with
  | Protocol.Failed _ -> ()
  | _ -> Alcotest.fail "reverse-continue ahead of the present must fail");
  (* The verbs also survive the wire encoding both ways. *)
  List.iter
    (fun c ->
      let line = Repl.command_to_string c in
      match Repl.parse_line line with
      | Ok c' -> Alcotest.(check bool) (line ^ " round-trips") true (c = c')
      | Error m -> Alcotest.failf "%s does not parse back: %s" line m)
    [
      Repl.Record None; Repl.Record (Some 512); Repl.Record_save "min.zrec";
      Repl.Record_status; Repl.Reverse_step 3; Repl.Reverse_continue 40;
      Repl.When_did "count";
    ]

(* --- the per-request error boundary ------------------------------------ *)

(* A file path whose directory does not exist: every write to it raises
   [Sys_error]. *)
let unwritable name =
  Filename.concat
    (Filename.concat (Filename.get_temp_dir_name ()) "zoomie-no-such-dir")
    name

let expect_failed_with ~prefix what (r : Protocol.response Protocol.frame) =
  match r.Protocol.fr_payload with
  | Protocol.Failed msg ->
    Alcotest.(check string)
      (what ^ ": answered by constructor")
      prefix
      (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  | _ -> Alcotest.failf "%s: expected Failed" what

(* File verbs to an unwritable path used to raise [Sys_error] straight
   out of [Hub.tick]; each must now answer [Failed "Sys_error: ..."],
   count one crash, and leave the board serving the next request. *)
let test_request_error_boundary () =
  let hub, _board, _info, bid = hub_rig () in
  let sid = attached hub bid in
  expect_done "record" (Hub.call hub (Protocol.frame sid 1 (Protocol.Command (Repl.Record None))));
  List.iteri
    (fun i cmd ->
      let seq = 10 + (2 * i) in
      expect_failed_with ~prefix:"Sys_error: " (Repl.command_to_string cmd)
        (Hub.call hub (Protocol.frame sid seq (Protocol.Command cmd)));
      Alcotest.(check int) "crash counted" (i + 1) (Hub.stats hub).Stats.crashes;
      expect_done "next request on the same board"
        (Hub.call hub (Protocol.frame sid (seq + 1) (Protocol.Command (Repl.Step 2)))))
    [
      Repl.Save (unwritable "x.snap");
      Repl.Record_save (unwritable "x.zrec");
      Repl.Trace_dump (unwritable "x.json");
    ];
  match
    (Hub.call hub (Protocol.frame sid 40 (Protocol.Read_registers [ "count" ])))
      .Protocol.fr_payload
  with
  | Protocol.Values _ -> ()
  | _ -> Alcotest.fail "reads still served after the failures"

let suite =
  [
    Alcotest.test_case "wire requests round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "wire responses round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "wire events round-trip" `Quick test_event_roundtrip;
    Alcotest.test_case "values parse errors are descriptive" `Quick
      test_values_parse_errors;
    Alcotest.test_case "unknown versions refused" `Quick test_version_refused;
    Alcotest.test_case "command_to_string inverts parse_line" `Quick
      test_command_to_string_inverse;
    Alcotest.test_case "hub read == Host read" `Quick test_hub_read_matches_host;
    Alcotest.test_case "read requires attach" `Quick test_read_requires_attach;
    Alcotest.test_case "mutator lock conflict" `Quick test_lock_conflict;
    Alcotest.test_case "admission control" `Quick test_admission_control;
    Alcotest.test_case "session timeout reaping" `Quick test_session_timeout;
    Alcotest.test_case "stop-event fan-out" `Quick test_event_fanout;
    Alcotest.test_case "coalescing saves cable time" `Quick test_coalescing_savings;
    Alcotest.test_case "merge_plans algebra" `Quick test_merge_plans;
    Alcotest.test_case "board lease arbitration" `Quick test_board_lease;
    Alcotest.test_case "repl save/load round-trip" `Quick test_repl_save_load;
    Alcotest.test_case "adaptive poll granularity" `Quick test_adaptive_poll_chunk;
    Alcotest.test_case "timeline verbs over the hub" `Quick
      test_timeline_verbs_over_hub;
    QCheck_alcotest.to_alcotest prop_hub_matches_oracle;
    Alcotest.test_case "request error boundary" `Quick test_request_error_boundary;
  ]
