(* farm_debug: the shared interactive debug loop over the socket farm.

   One shard owns two boards behind [Hub.Net.serve]; two TCP connections
   each multiplex eight sessions from one load thread, and every session
   runs a closed loop: it sends its next seeded op the moment the previous
   one is answered.
   Ops are coalescable register reads (overlapping sets) and small steps
   at about 3:1, with no injects.  This loads net/framing, router/shard,
   the hub's scheduler and coalescer and narrow readback; netsim does
   little work and VTI is not used.  One shard because two shard domains
   plus the socket thread and the load generator oversubscribe a 2-core
   host; two boards keep the hub's cross-board path in play. *)

open Zoomie.Zoomie_api
module P = Hub.Protocol
module Board = Bitstream.Board
module Host = Debug.Host

type op = Read of string list | Step of int

let n_sessions = 16

let n_conns = 2

let per_session = 4096

let tag = "perfbench-manycore"

(* 1 cluster x 18 cores: see [Rig.config]. *)
let soc = Rig.config 1

(* Every read includes the shared pair, plus each other register with
   probability 1/3: sets overlap, so the coalescer has work. *)
let shared = [ "pc"; "state" ]

let gen ~seed =
  let rs = Random.State.make [| seed; 0xfa4d |] in
  let others = List.filter (fun r -> not (List.mem r shared)) Rig.registers in
  Array.init n_sessions (fun _ ->
      Array.init per_session (fun _ ->
          if Random.State.int rs 4 = 0 then Step (1 + Random.State.int rs 4)
          else
            let extras = List.filter (fun _ -> Random.State.int rs 3 = 0) others in
            Read (List.sort_uniq compare (shared @ extras))))

let op_string = function
  | Read names -> "read " ^ String.concat "," names
  | Step k -> Printf.sprintf "step %d" k

let request = function
  | Read names -> P.Read_registers names
  | Step k -> P.Command (Debug.Repl.Step k)

(* ---- the multiplexing client ------------------------------------------- *)

type sess = {
  s_index : int;
  mutable gsid : int;
  ops : op array;
  mutable next : int;  (** index of the next op to send *)
  mutable t_sent : float;
  mutable stepped : int;  (** MUT cycles of completed steps *)
  mutable done_ops : int list;  (** op indices completed in the window, newest first *)
}

type conn = {
  fd : Unix.file_descr;
  mutable seq : int;
  pending : (int, sess * op option) Hashtbl.t;  (** seq -> session, op *)
  mutable bytes : int;
}

let connect addr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; seq = 0; pending = Hashtbl.create 16; bytes = 0 }

let send conn s (op : op option) req =
  conn.seq <- conn.seq + 1;
  Hashtbl.replace conn.pending conn.seq (s, op);
  let line = P.request_to_wire (P.frame s.gsid conn.seq req) in
  conn.bytes <- conn.bytes + 4 + String.length line;
  s.t_sent <- Common.now ();
  Hub.Framing.write_frame conn.fd line

(* The next response frame (events are not subscribed to; any that
   arrive are skipped). *)
let rec recv conn =
  match Hub.Framing.read_frame conn.fd with
  | None -> failwith "farm_debug: server closed the connection"
  | Some line -> (
    conn.bytes <- conn.bytes + 4 + String.length line;
    match P.response_of_wire line with
    | Ok r -> (r.P.fr_seq, r.P.fr_payload)
    | Error _ -> recv conn)

(* Send one request per session and wait for all of them, retrying
   through Busy.  Used for the lifecycle ops around the measured loop. *)
let call_all conn sessions req_of k =
  List.iter (fun s -> send conn s None (req_of s)) sessions;
  while Hashtbl.length conn.pending > 0 do
    let seq, payload = recv conn in
    match Hashtbl.find_opt conn.pending seq with
    | None -> ()
    | Some (s, _) -> (
      Hashtbl.remove conn.pending seq;
      match payload with
      | P.Busy n ->
        Unix.sleepf (0.0002 *. float_of_int (1 + n));
        send conn s None (req_of s)
      | p -> k s p)
  done

(* ---- the rig ------------------------------------------------------------ *)

type farm = {
  project : Zoomie.Zoomie_api.project;
  run : Vendor.Vivado.run;
  boards : Board.t list;
  router : Hub.Router.t;
  server : Hub.Net.t;
  conns : (conn * sess list) array;
  load_s : float;
}

let farm_config =
  {
    Hub.Shard.inbox_capacity = 128;
    (* leases never expire: migration is not part of this loop *)
    lease_ticks = 1_000_000_000;
    hub_config =
      {
        Hub.Hub.max_sessions_per_board = n_sessions;
        max_queue = 4 * n_sessions;
        session_timeout_ticks = 1_000_000_000;
      };
  }

let fail_on what = function
  | P.Failed msg -> failwith (Printf.sprintf "farm_debug %s: %s" what msg)
  | _ -> ()

(* Compile, program, serve and attach, until the first op can be sent. *)
let setup ops =
  let project = Rig.vendor_project ~config:soc () in
  let run = compile_vendor project in
  let info = Rig.info project in
  let boards, load_s =
    Common.timed (fun () -> List.init 2 (fun _ -> Rig.program_board project run))
  in
  let router =
    Hub.Router.create ~config:farm_config
      ~fleet:[ List.map (fun b -> (b, info, tag)) boards ]
      ()
  in
  Hub.Router.start router;
  let server = Hub.Net.serve ~router (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let addr = Hub.Net.bound_addr server in
  let conns =
    Array.init n_conns (fun c ->
        let sessions =
          List.init (n_sessions / n_conns) (fun j ->
              let i = (c * (n_sessions / n_conns)) + j in
              {
                s_index = i;
                gsid = 0;
                ops = ops.(i);
                next = 0;
                t_sent = 0.0;
                stepped = 0;
                done_ops = [];
              })
        in
        (connect addr, sessions))
  in
  Array.iter
    (fun (conn, sessions) ->
      call_all conn sessions
        (fun _ -> P.Open_session "any")
        (fun s -> function
          | P.Done text -> (
            match String.split_on_char ' ' text with
            | [ "session"; g ] -> s.gsid <- int_of_string g
            | _ -> failwith ("farm_debug: bad open response " ^ text))
          | p -> fail_on "open" p))
    conns;
  Array.iter
    (fun (conn, sessions) ->
      call_all conn sessions (fun _ -> P.Attach Rig.mut_path) (fun _ p -> fail_on "attach" p))
    conns;
  { project; run; boards; router; server; conns; load_s }

let teardown f =
  Array.iter (fun (conn, _) -> try Unix.close conn.fd with Unix.Unix_error _ -> ()) f.conns;
  Hub.Net.shutdown f.server;
  Hub.Router.stop f.router

(* ---- the closed loop ---------------------------------------------------- *)

type window = {
  w_latencies_ms : float list;
  w_completed : int;
  w_failed : int;
  w_busy : int;
  w_wall : float;
  w_bytes : int;
  w_cycles : int;  (** MUT cycles stepped in the window *)
}

(* Run every session's closed loop for [seconds], on from the op where
   its last window stopped, so a run's windows drive distinct ops rather
   than one window's again.  One load thread multiplexes both
   connections with select.  [traced] records one span per request. *)
let drive f ~seconds ~traced =
  let conns = Array.map fst f.conns in
  let bytes0 = Array.fold_left (fun a c -> a + c.bytes) 0 conns in
  let lat = ref [] and completed = ref 0 and failed = ref 0 and busy = ref 0
  and cycles = ref 0 and op_id = ref 0 in
  let t0 = Common.now () in
  let deadline = t0 +. seconds in
  let send_op conn s =
    let op = s.ops.(s.next mod per_session) in
    send conn s (Some op) (request op)
  in
  let next conn s =
    s.next <- s.next + 1;
    if Common.now () < deadline then send_op conn s
  in
  let complete conn s t1 =
    lat := (1000.0 *. (t1 -. s.t_sent)) :: !lat;
    incr completed;
    s.done_ops <- (s.next mod per_session) :: s.done_ops;
    next conn s
  in
  let handle conn =
    let seq, payload = recv conn in
    match Hashtbl.find_opt conn.pending seq with
    | None | Some (_, None) -> ()
    | Some (s, Some op) -> (
      Hashtbl.remove conn.pending seq;
      let t1 = Common.now () in
      if traced then begin
        Common.record ~op:!op_id "net.request" s.t_sent t1;
        incr op_id
      end;
      match (payload, op) with
      | P.Busy n, _ ->
        (* a refusal counts as a failed attempt; the op is retried *)
        incr busy;
        incr failed;
        if Common.now () < deadline then begin
          Unix.sleepf (0.0002 *. float_of_int (1 + n));
          send_op conn s
        end
      | P.Failed _, _ ->
        incr failed;
        next conn s
      | P.Values got, Read asked ->
        Common.check "farm_debug read names" (Checks.names_match ~asked ~got);
        complete conn s t1
      | P.Done _, Step k ->
        s.stepped <- s.stepped + k;
        cycles := !cycles + k;
        complete conn s t1
      | (P.Values _ | P.Done _), _ ->
        Common.check "farm_debug response" (Error "answer does not match the request");
        complete conn s t1)
  in
  Array.iter
    (fun (conn, sessions) ->
      List.iter
        (fun s ->
          s.done_ops <- [];
          send_op conn s)
        sessions)
    f.conns;
  let busy_conns () =
    Array.to_list conns |> List.filter (fun c -> Hashtbl.length c.pending > 0)
  in
  let rec loop () =
    match busy_conns () with
    | [] -> ()
    | live ->
      let readable, _, _ = Unix.select (List.map (fun c -> c.fd) live) [] [] 0.05 in
      List.iter (fun c -> if List.mem c.fd readable then handle c) live;
      loop ()
  in
  loop ();
  {
    w_latencies_ms = !lat;
    w_completed = !completed;
    w_failed = !failed;
    w_busy = !busy;
    w_wall = Common.now () -. t0;
    w_bytes = Array.fold_left (fun a c -> a + c.bytes) 0 conns - bytes0;
    w_cycles = !cycles;
  }

(* Several windows as one, for totals. *)
let merge ws =
  let total g = List.fold_left (fun a w -> a + g w) 0 ws in
  {
    w_latencies_ms = List.concat_map (fun w -> w.w_latencies_ms) ws;
    w_completed = total (fun w -> w.w_completed);
    w_failed = total (fun w -> w.w_failed);
    w_busy = total (fun w -> w.w_busy);
    w_wall = List.fold_left (fun a w -> a +. w.w_wall) 0.0 ws;
    w_bytes = total (fun w -> w.w_bytes);
    w_cycles = total (fun w -> w.w_cycles);
  }

let rate w = Common.ratio (float_of_int w.w_completed) w.w_wall

let all_sessions f = List.concat_map snd (Array.to_list f.conns)

(* Every session steps once, so each board's MUT reaches the steady
   state ([Rig.warm_cycles]) before anything is timed. *)
let warm_up f =
  let k = Rig.warm_cycles * List.length f.boards / n_sessions in
  Array.iter
    (fun (conn, sessions) ->
      call_all conn sessions
        (fun _ -> P.Command (Debug.Repl.Step k))
        (fun s p ->
          fail_on "warm-up step" p;
          s.stepped <- s.stepped + k))
    f.conns

(* ---- output checks ------------------------------------------------------ *)

(* Each session's final [cycles] reply, then the boards read in-process:
   counts must account for every step issued, and each board's MUT state
   must equal a fresh board's stepped the same number of cycles. *)
let final_cycles f =
  let replies = ref [] in
  Array.iter
    (fun (conn, sessions) ->
      call_all conn sessions
        (fun _ -> P.Command Debug.Repl.Cycles)
        (fun s -> function
          | P.Done text ->
            Scanf.sscanf text "mut cycles = %d" (fun c ->
                replies := (c, s.stepped) :: !replies)
          | p -> fail_on "cycles" p))
    f.conns;
  !replies

let check_boards f replies =
  let info = Rig.info f.project in
  let hosts = List.map (fun b -> Host.attach b ~info ~mut_path:Rig.mut_path) f.boards in
  let board_cycles = List.map Host.mut_cycles hosts in
  Common.check "farm_debug cycle accounting"
    (Checks.cycles_account ~board_cycles ~sessions:replies);
  (* one reference board, stepped to each board's count in turn *)
  let ref_board = Rig.program_board f.project f.run in
  let ref_host = Host.attach ref_board ~info ~mut_path:Rig.mut_path in
  List.iter
    (fun (c, h) ->
      let todo = c - Host.mut_cycles ref_host in
      if todo > 0 then Host.step ref_host todo;
      Common.check "farm_debug MUT state"
        (Checks.same_state
           ~what:(Printf.sprintf "board at %d MUT cycles vs fresh board" c)
           ~expected:(Host.read_state ref_host) ~got:(Host.read_state h)))
    (List.sort compare (List.combine board_cycles hosts));
  List.fold_left ( + ) 0 board_cycles

(* ---- the layer ladder (traced run) ------------------------------------- *)

(* The traced window's ops per session, oldest first. *)
let issued f =
  List.map (fun s -> (s, List.rev s.done_ops)) (all_sessions f)

let rounds issued =
  List.fold_left (fun m (_, l) -> max m (List.length l)) 0 issued

(* Replay [issued] round by round: in round r every session with an r-th
   op submits it through [submit], then [settle] runs the layer until all
   are answered. *)
let replay_rounds issued ~submit ~settle ~name =
  let arrays = List.map (fun (s, l) -> (s, Array.of_list l)) issued in
  let n = rounds issued in
  let (), wall =
    Common.timed (fun () ->
        for r = 0 to n - 1 do
          Common.span ~op:r name (fun _ ->
              List.iter
                (fun (s, ops) -> if r < Array.length ops then submit s s.ops.(ops.(r)))
                arrays;
              settle ())
        done)
  in
  wall

let replay_router f issued =
  let info = Rig.info f.project in
  let router =
    Hub.Router.create ~config:farm_config
      ~fleet:[ List.map (fun b -> (b, info, tag)) f.boards ]
      ()
  in
  let gsids = Hashtbl.create 16 in
  let sent = ref 0 and answers = ref 0 in
  let respond line =
    incr answers;
    match P.response_of_wire line with
    | Ok { P.fr_payload = P.Failed msg; _ } ->
      Common.check "farm_debug router replay" (Error msg)
    | Ok { P.fr_payload = P.Busy _; _ } ->
      Common.check "farm_debug router replay" (Error "refused as busy")
    | _ -> ()
  in
  (* A shard answers a session on the sink given at open, so one sink
     takes the admission and then every later response. *)
  List.iter
    (fun (s, _) ->
      Hub.Router.open_session router ~session:0 ~seq:s.s_index ~spec:"any"
        ~respond:(fun line ->
          if Hashtbl.mem gsids s.s_index then respond line
          else
            match P.response_of_wire line with
            | Ok { P.fr_payload = P.Done text; _ } ->
              Scanf.sscanf text "session %d" (fun g -> Hashtbl.replace gsids s.s_index g)
            | _ -> failwith "farm_debug replay: open refused")
        ~event:ignore
      |> ignore)
    issued;
  Hub.Router.settle router;
  let seq = ref 0 in
  let dispatch s req =
    incr seq;
    incr sent;
    Hub.Router.dispatch router
      (P.frame (Hashtbl.find gsids s.s_index) !seq req)
      ~respond
  in
  List.iter (fun (s, _) -> dispatch s (P.Attach Rig.mut_path)) issued;
  Hub.Router.settle router;
  let wall =
    replay_rounds issued ~name:"router.round"
      ~submit:(fun s op -> dispatch s (request op))
      ~settle:(fun () -> Hub.Router.settle router)
  in
  if !answers <> !sent then
    Common.check "farm_debug router replay"
      (Checks.errorf "%d requests, %d answers" !sent !answers);
  List.iter (fun (s, _) -> Hub.Router.close_session router (Hashtbl.find gsids s.s_index)) issued;
  Hub.Router.settle router;
  wall

let replay_hub f issued =
  let info = Rig.info f.project in
  let hub = Hub.Hub.create ~config:farm_config.Hub.Shard.hub_config () in
  let bids =
    List.map
      (fun b ->
        match Hub.Hub.add_board hub b ~info with
        | Ok id -> id
        | Error msg -> failwith ("farm_debug replay: add_board: " ^ msg))
      f.boards
    |> Array.of_list
  in
  let sids = Hashtbl.create 16 in
  List.iter
    (fun (s, _) ->
      match Hub.Hub.open_session hub ~board:bids.(s.s_index mod Array.length bids) with
      | Ok sid -> Hashtbl.replace sids s.s_index sid
      | Error msg -> failwith ("farm_debug replay: open_session: " ^ msg))
    issued;
  let seq = ref 0 in
  let submit s req =
    incr seq;
    match Hub.Hub.submit hub (P.frame (Hashtbl.find sids s.s_index) !seq req) with
    | Ok () -> ()
    | Error msg -> failwith ("farm_debug replay: submit: " ^ msg)
  in
  let settle () =
    while Hub.Hub.queued hub > 0 do
      ignore (Hub.Hub.tick hub)
    done
  in
  List.iter (fun (s, _) -> submit s (P.Attach Rig.mut_path)) issued;
  settle ();
  let wall =
    replay_rounds issued ~name:"hub.round" ~submit:(fun s op -> submit s (request op)) ~settle
  in
  Hashtbl.iter (fun _ sid -> Hub.Hub.close_session hub sid) sids;
  Array.iter (fun bid -> ignore (Hub.Hub.remove_board hub bid)) bids;
  wall

type host_level = { hl_wall : float; hl_reads : Rig.reads; hl_step_cycles : int }

let replay_host f issued =
  let info = Rig.info f.project in
  let boards = Array.of_list f.boards in
  let nb = Array.length boards in
  let first = Array.map (fun b -> Host.attach b ~info ~mut_path:Rig.mut_path) boards in
  let hosts = Hashtbl.create 16 in
  List.iter
    (fun (s, _) ->
      let i = s.s_index mod nb in
      Hashtbl.replace hosts s.s_index
        (Common.span ~op:s.s_index "host.attach" (fun _ ->
             Host.attach ~site_map:(Host.site_map first.(i)) boards.(i) ~info
               ~mut_path:Rig.mut_path)))
    issued;
  let acc = Rig.reads () and cycles = ref 0 and op_id = ref 0 in
  let submit s op =
    incr op_id;
    let h = Hashtbl.find hosts s.s_index in
    match op with
    | Read names ->
      let got = Rig.read_registers acc ~op:!op_id h names in
      if List.length got <> List.length names then
        Common.check "farm_debug host replay" (Error "short read")
    | Step k ->
      cycles := !cycles + k;
      Common.span ~op:!op_id "host.step" (fun _ -> Host.step h k)
  in
  let wall = replay_rounds issued ~name:"host.round" ~submit ~settle:ignore in
  { hl_wall = wall; hl_reads = acc; hl_step_cycles = !cycles }

(* ---- the workload ------------------------------------------------------- *)

(* A copy of the hub's mutable counters, to take deltas across a window. *)
let copy_stats (st : Hub.Stats.t) = { st with Hub.Stats.ticks = st.Hub.Stats.ticks }

let shard_stats f = Hub.Hub.stats (Hub.Shard.hub (Hub.Router.shards f.router).(0))

let run (args : Common.args) =
  let ops = gen ~seed:args.Common.seed in
  let digest =
    Common.stream_digest
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun i a -> Array.to_list (Array.map (fun op -> Printf.sprintf "s%d %s" i (op_string op)) a))
               ops)))
  in
  let f, setup_s = Common.repeated_setup ~setup:(fun () -> setup ops) ~teardown () in
  warm_up f;
  let cable_of () = Rig.cable_of f.boards in
  let k0 = List.fold_left (fun a b -> Rig.kernel_add a (Rig.kernel_of b)) Rig.kernel_zero f.boards in
  let seconds = if args.Common.trace then args.Common.seconds /. 2.0 else args.Common.seconds in
  Common.settle_heap ();
  let p0 = Common.proc_sample () in
  let c0 = cable_of () in
  let ws =
    List.init Common.windows (fun _ ->
        Common.sample_speed ();
        drive f ~seconds:(seconds /. float_of_int Common.windows) ~traced:false)
  in
  let c1 = cable_of () in
  let p50_of w = Common.median w.w_latencies_ms in
  Common.print_windows ~rate ~p50:p50_of ws;
  let p50, ops_per_s = Common.window_medians ~rate ~p50:p50_of ws and w = merge ws in
  (* traced window: the same loop over the same op streams *)
  let traced =
    if not args.Common.trace then None
    else begin
      Common.tracing := true;
      let st0 = copy_stats (shard_stats f) in
      let o0 = Rig.obs_cable () in
      let cb0 = cable_of () in
      Common.settle_heap ();
      let tw = drive f ~seconds ~traced:true in
      let cb1 = cable_of () in
      let o1 = Rig.obs_cable () in
      let st1 = copy_stats (shard_stats f) in
      let gauge n = Obs.gauge_value (Obs.gauge ("farm.shard0.hub." ^ n)) in
      let drift =
        Rig.jtag_drift o0 o1 (Rig.cable_sub cb1 cb0)
        +. (gauge "requests" -. float_of_int st1.Hub.Stats.requests)
        +. (gauge "sweeps" -. float_of_int st1.Hub.Stats.sweeps)
      in
      Some (tw, st0, st1, Rig.cable_sub cb1 cb0, drift)
    end
  in
  let k1 = List.fold_left (fun a b -> Rig.kernel_add a (Rig.kernel_of b)) Rig.kernel_zero f.boards in
  let replies = final_cycles f in
  teardown f;
  let p1 = Common.proc_sample () in
  let total_cycles = check_boards f replies in
  let issued_steps = List.fold_left (fun a s -> a + s.stepped) 0 (all_sessions f) in
  Common.check "farm_debug step total"
    (if total_cycles = issued_steps then Ok ()
     else Checks.errorf "boards hold %d MUT cycles, sessions stepped %d" total_cycles issued_steps);
  let n = w.w_completed in
  let tail = Common.tail w.w_latencies_ms in
  (* the process figures cover both windows and the final queries *)
  let proc = Common.proc_delta p0 p1 in
  let proc_ops =
    float_of_int
      (n + n_sessions + match traced with Some (tw, _, _, _, _) -> tw.w_completed | None -> 0)
  in
  let cable = Rig.cable_sub c1 c0 in
  let kernel = Rig.kernel_sub k1 k0 in
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
      ("mut_cycles_per_s", "MUT cycles stepped per window second (closed loop)");
    ]
  in
  let extra =
    [
      Common.metric "op_tail_ms" "ms" tail.Common.t_value;
      Common.metric "cable_s_per_op" "s" (Common.ratio cable.Rig.c_seconds (float_of_int n));
      Common.metric "fail_ratio" "ratio"
        (Common.fratio w.w_failed (w.w_completed + w.w_failed));
      Common.metric "mut_cycles_per_s" "1/s" (Common.ratio (float_of_int w.w_cycles) w.w_wall);
    ]
  in
  let layers =
    match traced with
    | None -> []
    | Some (tw, st0, st1, tcable, drift) ->
      let issued = issued f in
      let nt = tw.w_completed in
      let per x = Common.ratio x (float_of_int nt) in
      let level g =
        Gc.full_major ();
        g f issued
      in
      let t_router = level replay_router in
      let t_hub = level replay_hub in
      let hl = level replay_host in
      Printf.printf
        "ladder (ms per request, %d requests): socket farm %.3f, router in-process %.3f, \
         hub submit/tick %.3f, host calls %.3f\n"
        nt (1000.0 *. per tw.w_wall) (1000.0 *. per t_router) (1000.0 *. per t_hub)
        (1000.0 *. per hl.hl_wall);
      let d_int g = g st1 - g st0 in
      let d_float g = g st1 -. g st0 in
      let sweeps = d_int (fun s -> s.Hub.Stats.sweeps) in
      let reqs = d_int (fun s -> s.Hub.Stats.requests) in
      let p50_traced = Common.median tw.w_latencies_ms in
      let step_ms = Common.span_total "host.step" *. 1000.0 in
      [
        ("net.self_ms_per_req", "ms", 1000.0 *. per (tw.w_wall -. t_router));
        ("net.bytes_per_req", "bytes", per (float_of_int tw.w_bytes));
        ("shard.self_ms_per_req", "ms", 1000.0 *. per (t_router -. t_hub));
        ("shard.busy_refusals", "count", float_of_int tw.w_busy);
        ("hub.self_ms_per_req", "ms", 1000.0 *. per (t_hub -. hl.hl_wall));
        ( "hub.reqs_per_sweep",
          "ratio",
          Common.fratio (d_int (fun s -> s.Hub.Stats.coalesced_reads)) sweeps );
        ( "hub.coalescing_ratio",
          "ratio",
          Common.ratio
            (d_float (fun s -> s.Hub.Stats.serial_cable_seconds))
            (d_float (fun s -> s.Hub.Stats.cable_seconds)) );
        ( "hub.status_polls_per_req",
          "ratio",
          Common.fratio (d_int (fun s -> s.Hub.Stats.status_polls)) reqs );
        ("hub.lock_conflicts", "count", float_of_int (d_int (fun s -> s.Hub.Stats.lock_conflicts)));
        ( "host.step_ms_per_kcycle",
          "ms",
          Common.ratio step_ms (float_of_int hl.hl_step_cycles /. 1000.0) );
        ("host.attach_ms", "ms", Common.span_mean_ms "host.attach");
        ("jtag.words_per_op", "count", per (float_of_int tcable.Rig.c_words));
        ("jtag.cable_s_per_op", "s", per tcable.Rig.c_seconds);
        ( "netsim.events_per_cycle",
          "count",
          Common.fratio kernel.Rig.k_events kernel.Rig.k_edges );
        ( "netsim.tick_cache_hit_ratio",
          "ratio",
          Common.fratio kernel.Rig.k_hits (kernel.Rig.k_hits + kernel.Rig.k_misses) );
        ("program.load_s", "s", f.load_s /. 2.0);
        ("proc.cpu_ms_per_op", "ms", 1000.0 *. Common.ratio proc.Common.p_cpu proc_ops);
        ("proc.minor_words_per_op", "words", Common.ratio proc.Common.p_minor proc_ops);
        ("proc.major_gcs", "count", float_of_int proc.Common.p_major);
        ( "ladder.residual_ratio",
          "ratio",
          Common.ratio (hl.hl_wall -. Rig.leaf_total ()) tw.w_wall );
        (* one traced window against every untraced one: like with like *)
        ("trace.overhead_ratio", "ratio", Common.ratio p50_traced (Common.median w.w_latencies_ms));
        ("obs.count_drift", "count", drift);
      ]
      |> List.map (fun (name, unit, v) -> Common.metric name unit v)
      |> List.append (Rig.read_metrics hl.hl_reads)
  in
  let window_events =
    Printf.sprintf "warm-up %d MUT cycles per board, %.1f events/cycle"
      Rig.warm_cycles
      (Common.fratio kernel.Rig.k_events kernel.Rig.k_edges)
  in
  {
    Report.digest;
    soc;
    layout = "1 shard x 2 boards, 2 connections x 8 sessions, 1 load thread";
    netsim_window = window_events;
    attempted = w.w_completed + w.w_failed;
    failed = w.w_failed;
    e2e;
    notes;
    extra;
    layers;
    netsim_probe = (fun () -> Rig.probe_netsim (Rig.program_board f.project f.run));
  }
