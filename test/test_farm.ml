(* Farm-layer tests: zh1 framing on byte streams, the socket front-end
   (version negotiation, end-to-end vs the in-process tick path), router
   admission control and backpressure, FIFO fairness, and the
   lease-expiry → hot-migration machinery — including the satellite
   regression that a session cannot be idle-reaped mid-migration, and a
   QCheck property that a migrated session's transcript is bit-for-bit
   the unmigrated one. *)

module Board = Zoomie_bitstream.Board
module Controller = Zoomie_debug.Controller
module Repl = Zoomie_debug.Repl
module Vivado = Zoomie_vendor.Vivado
module Protocol = Zoomie_hub.Protocol
module Framing = Zoomie_hub.Framing
module Net = Zoomie_hub.Net
module Router = Zoomie_hub.Router
module Shard = Zoomie_hub.Shard
module Hub = Zoomie_hub.Hub

(* One compiled counter design shared by every board in this file (the
   same design test_hub drives); each board is a fresh fabric. *)
let compiled =
  lazy
    (let design = Test_debug.counter_top () in
     let wrapped, info = Controller.wrap design (Test_debug.counter_cfg []) in
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
     (Vivado.compile project, device, info))

let fresh_board () =
  let run, device, info = Lazy.force compiled in
  let board = Board.create device in
  Vivado.load_onto board run;
  (board, info)

let mk_fleet shards =
  List.init shards (fun _ ->
      let board, info = fresh_board () in
      [ (board, info, "counter") ])

let farm_config ?(inbox = 16) ?(lease = 1_000_000) ?(timeout = 1_000_000) () =
  {
    Shard.inbox_capacity = inbox;
    lease_ticks = lease;
    hub_config = { Hub.default_config with Hub.session_timeout_ticks = timeout };
  }

let collector () =
  let acc = ref [] in
  ((fun s -> acc := s :: !acc), fun () -> List.rev !acc)

let payload_of line =
  match Protocol.response_of_wire line with
  | Ok fr -> fr.Protocol.fr_payload
  | Error msg -> Alcotest.failf "unparsable response %S: %s" line msg

let is_busy line =
  match payload_of line with Protocol.Busy _ -> true | _ -> false

(* Open + attach one session through the router, inline. *)
let opened router ~respond ~event =
  match
    Router.open_session router ~session:0 ~seq:0 ~spec:"any" ~respond ~event
  with
  | None -> Alcotest.fail "open_session refused"
  | Some gsid ->
    Router.settle router;
    Router.dispatch router
      (Protocol.frame gsid 1 (Protocol.Attach "dut"))
      ~respond;
    Router.settle router;
    gsid

(* --- framing ---------------------------------------------------------- *)

let test_framing_split_feed () =
  let msgs =
    [ "zh1 0 0 attach dut"; ""; String.make 300 'x'; "zh1 7 42 read count" ]
  in
  let wire =
    List.fold_left
      (fun acc m -> Bytes.cat acc (Framing.encode m))
      Bytes.empty msgs
  in
  (* one byte at a time: frames must re-assemble across arbitrary cuts *)
  let d = Framing.decoder () in
  let out = ref [] in
  for i = 0 to Bytes.length wire - 1 do
    Framing.feed d wire ~off:i ~len:1;
    let rec drain () =
      match Framing.next d with
      | Some m ->
        out := m :: !out;
        drain ()
      | None -> ()
    in
    drain ()
  done;
  Alcotest.(check (list string)) "split feed reassembles" msgs (List.rev !out);
  (* blocking pair: write_frame / read_frame, then clean EOF *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Framing.write_frame a "hello farm";
  Alcotest.(check (option string))
    "socket round-trip" (Some "hello farm") (Framing.read_frame b);
  Unix.close a;
  Alcotest.(check (option string))
    "clean EOF is None" None (Framing.read_frame b);
  Unix.close b

let test_framing_length_cap () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a hostile length prefix larger than max_frame *)
  let prefix = Bytes.create 4 in
  Bytes.set_int32_be prefix 0 (Int32.of_int (Framing.max_frame + 1));
  Framing.write_all a prefix;
  Unix.close a;
  (match Framing.read_frame b with
  | exception Framing.Frame_error _ -> ()
  | Some _ | None -> Alcotest.fail "oversized length accepted");
  Unix.close b

(* --- socket front-end ------------------------------------------------- *)

(* A zh99 frame is answered with an error naming both versions, and the
   connection stays usable for correctly-tagged frames afterwards. *)
let test_version_mismatch_over_socket () =
  let router = Router.create ~config:(farm_config ()) ~fleet:(mk_fleet 1) () in
  Router.start router;
  let srv = Net.serve ~router (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  Fun.protect
    ~finally:(fun () ->
      Net.shutdown srv;
      Router.stop router)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Net.bound_addr srv);
      Framing.write_frame fd "zh99 0 7 detach";
      (match Framing.read_frame fd with
      | None -> Alcotest.fail "connection dropped on version mismatch"
      | Some line -> (
        match payload_of line with
        | Protocol.Failed msg ->
          let has s = Astring.String.is_infix ~affix:s msg in
          Alcotest.(check bool)
            (Printf.sprintf "names client version (%s)" msg)
            true (has "zh99");
          Alcotest.(check bool)
            (Printf.sprintf "names server version (%s)" msg)
            true
            (has (Printf.sprintf "zh%d" Protocol.version))
        | _ -> Alcotest.fail "expected Failed for version mismatch"));
      (* same connection, correct version: still serviced *)
      Framing.write_frame fd
        (Protocol.request_to_wire
           (Protocol.frame 0 8 (Protocol.Open_session "any")));
      (match Framing.read_frame fd with
      | Some line -> (
        match payload_of line with
        | Protocol.Done _ -> ()
        | p ->
          Alcotest.failf "open after mismatch: %s"
            (Protocol.response_to_wire (Protocol.frame 0 8 p)))
      | None -> Alcotest.fail "connection closed after mismatch");
      Unix.close fd)

(* The server also binds Unix-domain sockets: a stale socket file is
   unlinked before bind, a client session round-trips, and shutdown
   removes the socket file again. *)
let test_unix_domain_socket () =
  let path = Filename.temp_file "zoomie_farm" ".sock" in
  (* temp_file created a regular file at [path] — serve must treat it as
     a stale socket and replace it rather than fail the bind *)
  let router = Router.create ~config:(farm_config ()) ~fleet:(mk_fleet 1) () in
  Router.start router;
  let srv = Net.serve ~router (Unix.ADDR_UNIX path) in
  Fun.protect
    ~finally:(fun () -> Router.stop router)
    (fun () ->
      Alcotest.(check bool)
        "socket file exists" true
        ((Unix.stat path).Unix.st_kind = Unix.S_SOCK);
      let c = Net.Client.connect (Unix.ADDR_UNIX path) in
      (match Net.Client.open_session c with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "open over unix socket: %s" msg);
      (match Net.Client.call c (Protocol.Attach "dut") with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "attach over unix socket: %s" msg);
      Net.Client.close c;
      Net.shutdown srv;
      Alcotest.(check bool)
        "socket file unlinked on shutdown" false (Sys.file_exists path))

(* A scripted session over loopback sockets produces exactly the wire
   payloads of the same script on the in-process tick path. *)
let test_socket_matches_inprocess () =
  let script =
    [
      Protocol.Attach "dut";
      Protocol.Read_registers [ "count" ];
      Protocol.Command (Repl.Step 3);
      Protocol.Read_registers [ "count" ];
      Protocol.Command Repl.Cycles;
    ]
  in
  (* loopback farm *)
  let router = Router.create ~config:(farm_config ()) ~fleet:(mk_fleet 1) () in
  Router.start router;
  let srv = Net.serve ~router (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let farm_lines =
    Fun.protect
      ~finally:(fun () ->
        Net.shutdown srv;
        Router.stop router)
      (fun () ->
        let c = Net.Client.connect (Net.bound_addr srv) in
        (match Net.Client.open_session c with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "client open: %s" msg);
        let lines =
          List.mapi
            (fun i req ->
              match Net.Client.call c req with
              | Ok r ->
                Protocol.response_to_wire
                  (Protocol.frame 0 i r.Protocol.fr_payload)
              | Error msg -> Alcotest.failf "client call: %s" msg)
            script
        in
        Net.Client.close c;
        lines)
  in
  (* in-process oracle on an identical fresh board *)
  let board, info = fresh_board () in
  let hub = Hub.create () in
  let bid =
    match Hub.add_board hub board ~info with
    | Ok bid -> bid
    | Error msg -> Alcotest.failf "add_board: %s" msg
  in
  let sid =
    match Hub.open_session hub ~board:bid with
    | Ok sid -> sid
    | Error msg -> Alcotest.failf "open_session: %s" msg
  in
  let oracle_lines =
    List.mapi
      (fun i req ->
        let r = Hub.call hub (Protocol.frame sid i req) in
        Protocol.response_to_wire (Protocol.frame 0 i r.Protocol.fr_payload))
      script
  in
  Alcotest.(check (list string))
    "loopback == in-process" oracle_lines farm_lines

(* A request that raises inside the hub must not take its shard's domain
   down: over a socket to a running shard, a [save] to an unwritable path
   answers [Failed "Sys_error: ..."] and the same session's next request
   on the same board is served. *)
let test_shard_survives_failing_request () =
  let router = Router.create ~config:(farm_config ()) ~fleet:(mk_fleet 1) () in
  Router.start router;
  let srv = Net.serve ~router (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  Fun.protect
    ~finally:(fun () ->
      Net.shutdown srv;
      Router.stop router)
    (fun () ->
      let c = Net.Client.connect (Net.bound_addr srv) in
      (match Net.Client.open_session c with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "client open: %s" msg);
      let call req =
        match Net.Client.call c req with
        | Ok r -> r.Protocol.fr_payload
        | Error msg -> Alcotest.failf "client call: %s" msg
      in
      (match call (Protocol.Attach "dut") with
      | Protocol.Done _ -> ()
      | _ -> Alcotest.fail "attach");
      (match call (Protocol.Command (Repl.Save (Test_hub.unwritable "x.snap"))) with
      | Protocol.Failed msg ->
        Alcotest.(check bool) "answered by constructor" true
          (String.length msg > 11 && String.sub msg 0 11 = "Sys_error: ")
      | _ -> Alcotest.fail "save to an unwritable path must fail");
      (match call (Protocol.Read_registers [ "count" ]) with
      | Protocol.Values _ -> ()
      | _ -> Alcotest.fail "shard still serves the board");
      Net.Client.close c)

(* --- admission control / backpressure --------------------------------- *)

let test_inbox_busy_never_blocks () =
  let router =
    Router.create ~config:(farm_config ~inbox:2 ()) ~fleet:(mk_fleet 1) ()
  in
  let respond, got = collector () in
  let event, _ = collector () in
  let gsid = opened router ~respond ~event in
  let before = List.length (got ()) in
  (* five posts against a capacity-2 inbox, no stepping in between: the
     overflow must come back Busy immediately (the router never blocks
     waiting for the shard to drain) *)
  for seq = 10 to 14 do
    Router.dispatch router
      (Protocol.frame gsid seq (Protocol.Read_registers [ "count" ]))
      ~respond
  done;
  let immediate = List.filteri (fun i _ -> i >= before) (got ()) in
  Alcotest.(check int) "three refused immediately" 3
    (List.length (List.filter is_busy immediate));
  Router.settle router;
  let all = List.filteri (fun i _ -> i >= before) (got ()) in
  let values =
    List.filter
      (fun l ->
        match payload_of l with Protocol.Values _ -> true | _ -> false)
      all
  in
  Alcotest.(check int) "admitted two served after settle" 2
    (List.length values);
  Alcotest.(check int) "every dispatch answered" 5 (List.length all)

let test_fairness_across_sessions () =
  let router =
    Router.create ~config:(farm_config ~inbox:2 ()) ~fleet:(mk_fleet 1) ()
  in
  let ra, got_a = collector () in
  let rb, got_b = collector () in
  let event, _ = collector () in
  let a = opened router ~respond:ra ~event in
  let b = opened router ~respond:rb ~event in
  (* interleaved arrivals drain in FIFO order: neither session starves *)
  for round = 1 to 8 do
    Router.dispatch router
      (Protocol.frame a (10 + round) (Protocol.Read_registers [ "count" ]))
      ~respond:ra;
    Router.dispatch router
      (Protocol.frame b (10 + round) (Protocol.Read_registers [ "count" ]))
      ~respond:rb;
    Router.settle router
  done;
  let served got =
    List.length
      (List.filter
         (fun l ->
           match payload_of l with Protocol.Values _ -> true | _ -> false)
         (got ()))
  in
  Alcotest.(check int) "a served every round" 8 (served got_a);
  Alcotest.(check int) "b served every round" 8 (served got_b);
  (* a flood from [a] fills the inbox; [b] is refused transiently, not
     starved: after one drain the same request is admitted and served *)
  Router.dispatch router
    (Protocol.frame a 100 (Protocol.Read_registers [ "count" ]))
    ~respond:ra;
  Router.dispatch router
    (Protocol.frame a 101 (Protocol.Read_registers [ "count" ]))
    ~respond:ra;
  Router.dispatch router
    (Protocol.frame b 100 (Protocol.Read_registers [ "count" ]))
    ~respond:rb;
  Alcotest.(check bool)
    "flooded inbox refuses b" true
    (is_busy (List.nth (got_b ()) (List.length (got_b ()) - 1)));
  Router.settle router;
  Router.dispatch router
    (Protocol.frame b 101 (Protocol.Read_registers [ "count" ]))
    ~respond:rb;
  Router.settle router;
  Alcotest.(check int) "b admitted after drain" 9 (served got_b)

(* --- lease expiry and hot migration ----------------------------------- *)

let read_count router gsid ~respond got =
  let before = List.length (got ()) in
  Router.dispatch router
    (Protocol.frame gsid 900 (Protocol.Read_registers [ "count" ]))
    ~respond;
  Router.settle router;
  match List.filteri (fun i _ -> i >= before) (got ()) with
  | [ line ] -> (
    match payload_of line with
    | Protocol.Values vs -> vs
    | p ->
      Alcotest.failf "read_count: %s"
        (Protocol.response_to_wire (Protocol.frame 0 0 p)))
  | ls -> Alcotest.failf "read_count: %d responses" (List.length ls)

(* Ages shard [si]'s clock with heartbeats until the router has migrated
   every session off it (or the round budget runs out). *)
let age_until_migrated router si =
  let sh = (Router.shards router).(si) in
  let rec go n =
    if n = 0 then Alcotest.fail "migration never happened"
    else if Shard.slot_sessions sh 0 = 0 then Router.settle router
    else begin
      ignore (Shard.post sh Shard.Heartbeat);
      ignore (Router.step router);
      go (n - 1)
    end
  in
  go 50

(* The reaper exemption itself, at hub level: a session flagged
   [migrating] outlives its idle budget for exactly as long as the flag
   is held — mid-migration, the reaper must not fire (the capture path
   sets the flag before it quiesces and exports). *)
let test_reaper_exempts_migrating () =
  let board, info = fresh_board () in
  let hub =
    Hub.create
      ~config:{ Hub.default_config with Hub.session_timeout_ticks = 3 }
      ()
  in
  let bid =
    match Hub.add_board hub board ~info with
    | Ok bid -> bid
    | Error msg -> Alcotest.failf "add_board: %s" msg
  in
  let sid =
    match Hub.open_session hub ~board:bid with
    | Ok sid -> sid
    | Error msg -> Alcotest.failf "open_session: %s" msg
  in
  ignore (Hub.call hub (Protocol.frame sid 0 (Protocol.Attach "dut")));
  Hub.set_migrating hub sid true;
  for _ = 1 to 10 do
    ignore (Hub.tick hub)
  done;
  Alcotest.(check bool)
    "migrating session outlives its idle budget" true
    (Hub.session_status hub sid = Some Zoomie_hub.Session.Active);
  (* drop the exemption: the same idle clock now reaps it *)
  Hub.set_migrating hub sid false;
  for _ = 1 to 10 do
    ignore (Hub.tick hub)
  done;
  Alcotest.(check bool)
    "exemption lifted, reaper fires" true
    (Hub.session_status hub sid = Some Zoomie_hub.Session.Timed_out)

(* Satellite regression, end to end: the idle clock that expires the
   lease also ages the sessions toward the hub's own reaper.  The
   session here is a few ticks from its timeout when the lease expires;
   the migration must land it on the spare alive, with identical
   register state and no [Session_closed]. *)
let test_migration_survives_reaper () =
  let config = farm_config ~inbox:16 ~lease:3 ~timeout:7 () in
  let router = Router.create ~config ~fleet:(mk_fleet 2) () in
  let respond, got = collector () in
  let event, got_ev = collector () in
  let gsid = opened router ~respond ~event in
  (* make the state nontrivial before migrating *)
  Router.dispatch router
    (Protocol.frame gsid 2 (Protocol.Command (Repl.Step 5)))
    ~respond;
  Router.settle router;
  let v_before = read_count router gsid ~respond got in
  age_until_migrated router 0;
  let sh0 = (Router.shards router).(0) in
  let sh1 = (Router.shards router).(1) in
  Alcotest.(check int) "source slot empty" 0 (Shard.slot_sessions sh0 0);
  Alcotest.(check int) "target slot carries the session" 1
    (Shard.slot_sessions sh1 0);
  Alcotest.(check int) "route survives" 1 (Router.session_count router);
  let v_after = read_count router gsid ~respond got in
  Alcotest.(check bool)
    "register state identical across migration" true
    (List.for_all2
       (fun (n1, b1) (n2, b2) ->
         n1 = n2 && Zoomie_rtl.Bits.to_string b1 = Zoomie_rtl.Bits.to_string b2)
       v_before v_after);
  let closed =
    List.filter
      (fun l ->
        match Protocol.event_of_wire l with
        | Ok { Protocol.fr_payload = Protocol.Session_closed _; _ } -> true
        | _ -> false)
      (got_ev ())
  in
  Alcotest.(check int) "never reaped mid-migration" 0 (List.length closed)

(* --- QCheck: migrated transcript == unmigrated ------------------------ *)

let lcg s = (s * 1103515245) + 12345

let script_of_seed seed n =
  let rec go s acc k =
    if k = 0 then List.rev acc
    else
      let s = lcg s in
      let r = abs s in
      let op =
        match r mod 3 with
        | 0 -> Protocol.Read_registers [ "count" ]
        | 1 -> Protocol.Command (Repl.Step (1 + (r mod 7)))
        | _ -> Protocol.Command Repl.Cycles
      in
      go s (op :: acc) (k - 1)
  in
  go seed [] n

(* Run [script] through an inline farm; when [migrate] is set the fleet
   has a spare and the session is forcibly migrated halfway through. *)
let transcript ~migrate seed =
  let config = farm_config ~inbox:64 ~lease:3 () in
  let router =
    Router.create ~config ~fleet:(mk_fleet (if migrate then 2 else 1)) ()
  in
  let respond, got = collector () in
  let event, got_ev = collector () in
  let gsid = opened router ~respond ~event in
  let script = script_of_seed seed 10 in
  List.iteri
    (fun i req ->
      Router.dispatch router (Protocol.frame gsid (10 + i) req) ~respond;
      Router.settle router;
      if migrate && i = 4 then age_until_migrated router 0)
    script;
  (got (), got_ev ())

let prop_migrated_transcript =
  QCheck2.Test.make ~name:"migrated transcript == unmigrated" ~count:4
    QCheck2.Gen.int (fun seed ->
      let plain, plain_ev = transcript ~migrate:false seed in
      let moved, moved_ev = transcript ~migrate:true seed in
      if plain <> moved then
        QCheck2.Test.fail_reportf "response transcripts diverge:\n%s\n-- vs --\n%s"
          (String.concat "\n" plain) (String.concat "\n" moved)
      else if plain_ev <> moved_ev then
        QCheck2.Test.fail_reportf "event transcripts diverge"
      else true)

let suite =
  [
    Alcotest.test_case "framing survives split feeds" `Quick
      test_framing_split_feed;
    Alcotest.test_case "framing refuses oversized lengths" `Quick
      test_framing_length_cap;
    Alcotest.test_case "version mismatch names both ends" `Quick
      test_version_mismatch_over_socket;
    Alcotest.test_case "unix-domain socket serves and cleans up" `Quick
      test_unix_domain_socket;
    Alcotest.test_case "loopback socket == in-process tick" `Quick
      test_socket_matches_inprocess;
    Alcotest.test_case "full inbox answers Busy, never blocks" `Quick
      test_inbox_busy_never_blocks;
    Alcotest.test_case "FIFO fairness across sessions" `Quick
      test_fairness_across_sessions;
    Alcotest.test_case "reaper exempts migrating sessions" `Quick
      test_reaper_exempts_migrating;
    Alcotest.test_case "migration survives the idle reaper" `Quick
      test_migration_survives_reaper;
    QCheck_alcotest.to_alcotest prop_migrated_transcript;
    Alcotest.test_case "shard survives a failing request" `Quick
      test_shard_survives_failing_request;
  ]
