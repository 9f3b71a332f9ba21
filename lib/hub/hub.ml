(** The multi-session debug server: N clients, a pool of boards, one
    arbiter.

    A hub owns its boards (advisory {!Board.acquire_lease}) and advances
    in discrete ticks.  Each tick, per board: session-lifecycle ops run
    first (no cable traffic), then every queued read shares the board —
    register reads merged into one coalesced sweep ({!Coalesce}) — then
    exactly one mutating command holds it exclusively ({!Scheduler}).
    After a mutator runs, one status readback serves every subscribed
    session: a latched stop becomes a {!Protocol.Stopped} event fanned
    out to all subscribers, replacing their individual polls.  Sessions
    idle past the configured tick budget are reaped, their queued work
    failed and a [Session_closed] event left in their mailbox.

    Everything is deterministic — the hub owns the clock (ticks) and the
    cable time is the board's modeled {!Board.jtag_seconds} — so the
    arbitration and coalescing behavior is exactly reproducible in tests
    and benches. *)

module Board = Zoomie_bitstream.Board
module Controller = Zoomie_debug.Controller
module Device = Zoomie_fabric.Device
module Host = Zoomie_debug.Host
module Readback = Zoomie_debug.Readback
module Repl = Zoomie_debug.Repl
module Timeline = Zoomie_debug.Timeline
module Obs = Zoomie_obs.Obs

type config = {
  max_sessions_per_board : int;  (** admission: concurrent sessions *)
  max_queue : int;  (** admission: queued requests per board *)
  session_timeout_ticks : int;  (** idle ticks before a session is reaped *)
}

let default_config =
  { max_sessions_per_board = 64; max_queue = 256; session_timeout_ticks = 100 }

(* The hub's name on the advisory board lease. *)
let lease_owner = "zoomie-hub"

type board_entry = {
  be_id : int;
  be_board : Board.t;
  be_info : Controller.info;
  be_site_map : Readback.site_map;
      (* built once per board; every session attach reuses it *)
  be_queue : Scheduler.t;
  mutable be_subscribers : int list;  (* subscription order *)
  mutable be_last_used : int;
      (* hub tick of the last cable traffic (reads or mutators) on this
         board — the lease-idle clock.  Control ops don't touch it: a
         session polling [Stats] keeps itself alive while its board goes
         cable-idle, which is exactly when the farm wants to migrate. *)
}

type t = {
  config : config;
  publish_globals : bool;
      (* farm shards run one hub per domain: publishing the shared
         [hub.*] gauges from every shard would be last-writer-wins noise,
         so shards publish only through their own [Stats.mirror] *)
  boards : (int, board_entry) Hashtbl.t;
  mutable next_board : int;
  sessions : (int, Session.t) Hashtbl.t;
  mutable next_session : int;
  mutable now : int;  (* the hub tick clock *)
  mutable ev_seq : int;  (* event sequence numbers, shared across a fan-out *)
  stats : Stats.t;
}

let create ?(config = default_config) ?(publish_globals = true) () =
  {
    config;
    publish_globals;
    boards = Hashtbl.create 4;
    next_board = 0;
    sessions = Hashtbl.create 16;
    next_session = 0;
    now = 0;
    ev_seq = 0;
    stats = Stats.create ();
  }

let stats t = t.stats

let now t = t.now

(** Put a board under hub ownership.  Fails when another driver holds its
    lease or it has no configured design.  The per-design site map is
    built here, once, and shared by every session that attaches. *)
let add_board t board ~info =
  match Board.acquire_lease board ~owner:lease_owner with
  | Error msg -> Error msg
  | Ok () -> (
    match
      try Some (Board.payload board) with Invalid_argument _ -> None
    with
    | None ->
      Board.release_lease board ~owner:lease_owner;
      Error "board has no configured design"
    | Some payload ->
      let id = t.next_board in
      t.next_board <- id + 1;
      Hashtbl.replace t.boards id
        {
          be_id = id;
          be_board = board;
          be_info = info;
          be_site_map =
            Readback.site_map (Board.device board) payload.Board.netlist
              payload.Board.locmap;
          be_queue = Scheduler.create ~max_queue:t.config.max_queue;
          be_subscribers = [];
          be_last_used = t.now;
        };
      Ok id)

let board_ids t = List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) t.boards [])

let board t board_id =
  Option.map (fun be -> be.be_board) (Hashtbl.find_opt t.boards board_id)

let board_device t board_id =
  match Hashtbl.find_opt t.boards board_id with
  | None -> None
  | Some be -> Some (Board.device be.be_board).Device.name

(** Hub ticks since this board last saw cable traffic — the farm's
    lease-idle clock, measured on the shard's own tick counter so expiry
    policy stays deterministic. *)
let board_idle_for t board_id =
  match Hashtbl.find_opt t.boards board_id with
  | None -> None
  | Some be -> Some (t.now - be.be_last_used)

let active_sessions_on t board_id =
  Hashtbl.fold
    (fun _ (s : Session.t) n ->
      if s.Session.board_id = board_id && Session.is_active s then n + 1 else n)
    t.sessions 0

(** Admit a new session bound to [board]. *)
let open_session t ~board =
  match Hashtbl.find_opt t.boards board with
  | None -> Error (Printf.sprintf "no board %d" board)
  | Some _ ->
    if active_sessions_on t board >= t.config.max_sessions_per_board then
      Error
        (Printf.sprintf "board %d saturated (%d sessions)" board
           t.config.max_sessions_per_board)
    else begin
      let id = t.next_session in
      t.next_session <- id + 1;
      Hashtbl.replace t.sessions id
        (Session.create ~id ~board_id:board ~now:t.now);
      Ok id
    end

let session_status t id =
  Option.map (fun (s : Session.t) -> s.Session.status) (Hashtbl.find_opt t.sessions id)

(** Queue one request.  [Error] when the session is unknown or gone, or
    when the board's backlog refuses admission. *)
let submit t (fr : Protocol.request Protocol.frame) =
  match Hashtbl.find_opt t.sessions fr.Protocol.fr_session with
  | None -> Error (Printf.sprintf "no session %d" fr.Protocol.fr_session)
  | Some s when not (Session.is_active s) ->
    Error
      (match s.Session.status with
      | Session.Timed_out -> "session timed out"
      | _ -> "session closed")
  | Some s -> (
    let be = Hashtbl.find t.boards s.Session.board_id in
    match
      Scheduler.submit be.be_queue
        {
          Scheduler.p_session = fr.Protocol.fr_session;
          p_seq = fr.Protocol.fr_seq;
          p_request = fr.Protocol.fr_payload;
        }
    with
    | Ok () ->
      Session.touch s ~now:t.now;
      t.stats.Stats.requests <- t.stats.Stats.requests + 1;
      Ok ()
    | Error _ as e ->
      t.stats.Stats.rejected <- t.stats.Stats.rejected + 1;
      e)

(** Pending events for one session, in delivery order (empties its
    mailbox).  Works on closed sessions too — the [Session_closed]
    notice must remain collectable. *)
let events t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> []
  | Some s -> Session.drain_mailbox s

let unsubscribe_from be session =
  be.be_subscribers <- List.filter (fun s -> s <> session) be.be_subscribers

(** Requests queued across every board — a shard drains its hub by
    ticking while this is non-zero. *)
let queued t =
  Hashtbl.fold (fun _ be n -> n + Scheduler.length be.be_queue) t.boards 0

let queued_for t board_id =
  match Hashtbl.find_opt t.boards board_id with
  | None -> 0
  | Some be -> Scheduler.length be.be_queue

let set_migrating t session v =
  match Hashtbl.find_opt t.sessions session with
  | Some s -> s.Session.migrating <- v
  | None -> ()

(* Detach a session from hub bookkeeping without producing responses:
   queue dropped, subscription removed.  The caller decides what story
   (if any) the client hears. *)
let detach_session_quietly t (s : Session.t) =
  (match Hashtbl.find_opt t.boards s.Session.board_id with
  | Some be ->
    ignore (Scheduler.drop_session be.be_queue s.Session.id);
    unsubscribe_from be s.Session.id
  | None -> ());
  s.Session.host <- None;
  s.Session.tl <- None;
  s.Session.subscribed <- false

(** Close a session without an event or failure responses — the farm's
    path for a client that disconnected (nobody is left to read the
    mailbox) and for freeing a slot after export. *)
let close_session t session =
  match Hashtbl.find_opt t.sessions session with
  | None -> ()
  | Some s ->
    detach_session_quietly t s;
    Session.close s Session.Closed

(** Lift a session out of this hub for migration: returns what the target
    hub needs to rebuild it ([mut_path] of its attachment, subscription
    flag), then removes it.  The caller must have quiesced its queued
    work first; anything still pending is dropped. *)
let export_session t session =
  match Hashtbl.find_opt t.sessions session with
  | None -> Error (Printf.sprintf "no session %d" session)
  | Some s when not (Session.is_active s) -> Error "session not active"
  | Some s ->
    let mut_path = Option.map Host.mut_path s.Session.host in
    let subscribed = s.Session.subscribed in
    detach_session_quietly t s;
    Hashtbl.remove t.sessions session;
    Ok (mut_path, subscribed)

(** Rebuild an exported session on [board] (freshly restored from the
    source board's snapshot, so a re-attach sees identical fabric state —
    breakpoints, latched stops, cycle counter and all).  The new session
    is touched with THIS hub's clock: a migrated session must never be
    reaped because its [last_active] came from another shard's timeline.
    Bypasses the admission cap — migration is the hub rebalancing its own
    load, not new demand. *)
let import_session t ~board ~mut_path ~subscribed =
  match Hashtbl.find_opt t.boards board with
  | None -> Error (Printf.sprintf "no board %d" board)
  | Some be -> (
    let id = t.next_session in
    let s = Session.create ~id ~board_id:board ~now:t.now in
    match
      Option.map
        (fun mut_path ->
          Host.attach ~site_map:be.be_site_map be.be_board ~info:be.be_info
            ~mut_path)
        mut_path
    with
    | exception Invalid_argument msg -> Error ("re-attach failed: " ^ msg)
    | host ->
      t.next_session <- id + 1;
      s.Session.host <- host;
      if subscribed then begin
        s.Session.subscribed <- true;
        be.be_subscribers <- be.be_subscribers @ [ id ]
      end;
      Hashtbl.replace t.sessions id s;
      Ok id)

(** Release a board from hub ownership (migration source after its
    sessions are exported).  Refuses while active sessions are bound to
    it.  Releases the advisory lease and returns the board so the caller
    can snapshot or retire it. *)
let remove_board t board_id =
  match Hashtbl.find_opt t.boards board_id with
  | None -> Error (Printf.sprintf "no board %d" board_id)
  | Some be ->
    if active_sessions_on t board_id > 0 then
      Error
        (Printf.sprintf "board %d has %d active sessions" board_id
           (active_sessions_on t board_id))
    else begin
      Hashtbl.remove t.boards board_id;
      Board.release_lease be.be_board ~owner:lease_owner;
      Ok be.be_board
    end

(* --- tick internals -------------------------------------------------- *)

let respond t acc (p : Scheduler.pending) payload =
  t.stats.Stats.responses <- t.stats.Stats.responses + 1;
  {
    Protocol.fr_session = p.Scheduler.p_session;
    fr_seq = p.Scheduler.p_seq;
    fr_payload = payload;
  }
  :: acc

(* The session's recorder-capable command front-end, created lazily the
   first time a command runs after an attach and replaced whenever the
   attachment's host changes (re-attach, migration import): a recording
   is per-attachment state, exactly like breakpoints. *)
let timeline_session (s : Session.t) host be =
  match s.Session.tl with
  | Some ts when ts.Timeline.ts_host == host -> ts
  | _ ->
    let ts = Timeline.session ~rig:"hub" host be.be_board in
    s.Session.tl <- Some ts;
    ts

(* The per-request error boundary: whatever serving a request raises
   becomes that request's [Failed] answer, so no client input unwinds
   the hub (and with it a farm shard's domain).  The engine's own typed
   errors keep their messages; anything else — a [Sys_error] from a
   [save] to an unwritable path, say — is answered by constructor and
   counted as a crash. *)
let failure t = function
  | Invalid_argument msg | Readback.Readback_error msg -> Protocol.Failed msg
  | Readback.Bad_snapshot msg -> Protocol.Failed ("bad snapshot: " ^ msg)
  | Timeline.Bad_recording msg -> Protocol.Failed ("bad recording: " ^ msg)
  | e ->
    t.stats.Stats.crashes <- t.stats.Stats.crashes + 1;
    let msg =
      match e with
      | Sys_error msg | Failure msg -> msg
      | e -> Printexc.to_string e
    in
    Protocol.Failed (Printexc.exn_slot_name e ^ ": " ^ msg)

(* Run one REPL command — through the session's timeline layer, so the
   time-travel verbs work over the hub. *)
let exec_command t ts cmd =
  try Protocol.Done (Timeline.execute ts cmd) with e -> failure t e

(* Session-lifecycle ops: no cable traffic, never block. *)
let run_control t be acc (p : Scheduler.pending) =
  let s = Hashtbl.find t.sessions p.Scheduler.p_session in
  let payload =
    match p.Scheduler.p_request with
    | Protocol.Attach mut_path -> (
      try
        s.Session.host <-
          Some
            (Host.attach ~site_map:be.be_site_map be.be_board ~info:be.be_info
               ~mut_path);
        Protocol.Done ("attached " ^ mut_path)
      with e -> failure t e)
    | Protocol.Detach ->
      s.Session.host <- None;
      s.Session.tl <- None;
      s.Session.subscribed <- false;
      unsubscribe_from be p.Scheduler.p_session;
      Protocol.Done "detached"
    | Protocol.Subscribe ->
      if not s.Session.subscribed then begin
        s.Session.subscribed <- true;
        be.be_subscribers <- be.be_subscribers @ [ p.Scheduler.p_session ]
      end;
      Protocol.Done "subscribed"
    | Protocol.Unsubscribe ->
      s.Session.subscribed <- false;
      unsubscribe_from be p.Scheduler.p_session;
      Protocol.Done "unsubscribed"
    | Protocol.Stats ->
      (* Answered from hub state + the metrics registry: no cable
         traffic, so remote clients can poll server health for free. *)
      if t.publish_globals then Stats.publish t.stats;
      Protocol.Done
        (Stats.summary t.stats ^ "\n"
        ^ Obs.snapshot_summary (Obs.snapshot ()))
    | Protocol.Open_session _ ->
      (* Session admission is the router's job in a farm; a hub that
         sees this frame has no front-end to route it. *)
      Protocol.Failed "open: not routed by a hub (connect through a farm)"
    | Protocol.Read_registers _ | Protocol.Command _ ->
      Protocol.Failed "not a control op"
  in
  respond t acc p payload

(* Read-class grants: command reads execute directly; register reads are
   gathered into one coalesced sweep, then every response is emitted in
   grant (FIFO) order. *)
let run_reads t be acc (reads : Scheduler.pending list) =
  let slots =
    List.map
      (fun (p : Scheduler.pending) ->
        let s = Hashtbl.find t.sessions p.Scheduler.p_session in
        match (s.Session.host, p.Scheduler.p_request) with
        | None, _ -> (p, Either.Left (Protocol.Failed "not attached"))
        | Some host, Protocol.Read_registers names -> (
          match
            Coalesce.request host ~session:p.Scheduler.p_session
              ~seq:p.Scheduler.p_seq ~names
          with
          | Ok r -> (p, Either.Right r)
          | Error msg -> (p, Either.Left (Protocol.Failed msg))
          | exception e -> (p, Either.Left (failure t e)))
        | Some host, Protocol.Command cmd ->
          if cmd = Repl.Status then
            t.stats.Stats.status_polls <- t.stats.Stats.status_polls + 1;
          (p, Either.Left (exec_command t (timeline_session s host be) cmd))
        | Some _, _ -> (p, Either.Left (Protocol.Failed "not a read op")))
      reads
  in
  let requests = List.filter_map (fun (_, e) -> Either.find_right e) slots in
  let swept = Hashtbl.create 8 in
  let sweep_failed = ref None in
  if requests <> [] then begin
    match Coalesce.sweep be.be_board be.be_site_map requests with
    | exception e -> sweep_failed := Some (failure t e)
    | result ->
      t.stats.Stats.sweeps <- t.stats.Stats.sweeps + 1;
      t.stats.Stats.coalesced_reads <-
        t.stats.Stats.coalesced_reads + List.length requests;
      t.stats.Stats.frames_read <-
        t.stats.Stats.frames_read + result.Coalesce.sw_frames_read;
      t.stats.Stats.frames_requested <-
        t.stats.Stats.frames_requested + result.Coalesce.sw_frames_requested;
      t.stats.Stats.cable_seconds <-
        t.stats.Stats.cable_seconds +. result.Coalesce.sw_seconds;
      t.stats.Stats.serial_cable_seconds <-
        t.stats.Stats.serial_cable_seconds +. result.Coalesce.sw_serial_seconds;
      List.iter
        (fun (session, seq, values) ->
          Hashtbl.replace swept (session, seq) values)
        result.Coalesce.sw_values
  end;
  List.fold_left
    (fun acc ((p : Scheduler.pending), slot) ->
      match slot with
      | Either.Left payload -> respond t acc p payload
      | Either.Right _ -> (
        match !sweep_failed with
        | Some payload -> respond t acc p payload
        | None ->
          let values =
            Hashtbl.find swept (p.Scheduler.p_session, p.Scheduler.p_seq)
          in
          respond t acc p (Protocol.Values values)))
    acc slots

(* Fan a latched stop out to every subscriber: one status readback by the
   hub replaces one poll per client. *)
let poll_events t be =
  match be.be_subscribers with
  | [] -> ()
  | subs -> (
    let live =
      List.filter_map
        (fun id ->
          match Hashtbl.find_opt t.sessions id with
          | Some s when Session.is_active s && s.Session.host <> None ->
            Some (id, Option.get s.Session.host)
          | _ -> None)
        subs
    in
    match live with
    | [] -> ()
    | (_, host) :: _ ->
      t.stats.Stats.status_polls <- t.stats.Stats.status_polls + 1;
      if Host.is_stopped host then begin
        let cause = Host.stop_cause host in
        let flags =
          List.filter_map
            (fun (b, name) -> if b then Some name else None)
            [
              (cause.Host.value_bp, "value");
              (cause.Host.cycle_bp, "cycle");
              (cause.Host.assertion_bp, "assertion");
              (cause.Host.watch_bp, "watch");
            ]
        in
        let event =
          Protocol.Stopped
            {
              at_cycle = Host.mut_cycles host;
              flags;
              fired = Host.fired_assertions host;
            }
        in
        let seq = t.ev_seq in
        t.ev_seq <- seq + 1;
        List.iter
          (fun (id, _) ->
            Session.deliver (Hashtbl.find t.sessions id) ~seq event)
          live;
        t.stats.Stats.events_published <- t.stats.Stats.events_published + 1;
        t.stats.Stats.events_delivered <-
          t.stats.Stats.events_delivered + List.length live;
        (* every subscriber beyond the poll that detected the stop would
           have burned its own status readback *)
        t.stats.Stats.polls_avoided <-
          t.stats.Stats.polls_avoided + (List.length live - 1)
      end)

(* Reap sessions idle past the budget: fail their queued work, leave a
   Session_closed notice in the mailbox, free their board slot. *)
let reap_timeouts t acc =
  Hashtbl.fold
    (fun _ (s : Session.t) acc ->
      if
        Session.is_active s
        && (not s.Session.migrating)
        && Session.idle_for s ~now:t.now > t.config.session_timeout_ticks
      then begin
        let be = Hashtbl.find t.boards s.Session.board_id in
        let dropped = Scheduler.drop_session be.be_queue s.Session.id in
        let acc =
          List.fold_left
            (fun acc p -> respond t acc p (Protocol.Failed "session timed out"))
            acc dropped
        in
        unsubscribe_from be s.Session.id;
        let seq = t.ev_seq in
        t.ev_seq <- seq + 1;
        Session.deliver s ~seq
          (Protocol.Session_closed
             (Printf.sprintf "idle for %d ticks" (Session.idle_for s ~now:t.now)));
        Session.close s Session.Timed_out;
        t.stats.Stats.timeouts <- t.stats.Stats.timeouts + 1;
        acc
      end
      else acc)
    t.sessions acc

(** Advance the hub one tick: per board, grant and run this tick's
    schedule (control ops, then the coalesced reads, then the exclusive
    holder's mutator batch + event fan-out), then reap idle sessions.
    Returns the responses produced, in grant order. *)
let tick t =
  t.now <- t.now + 1;
  t.stats.Stats.ticks <- t.stats.Stats.ticks + 1;
  let acc =
    List.fold_left
      (fun acc bid ->
        let be = Hashtbl.find t.boards bid in
        let mclock () = Board.jtag_seconds be.be_board in
        Obs.span ~cat:"hub" ~mclock "hub.tick" (fun () ->
            let grant = Scheduler.schedule be.be_queue in
            t.stats.Stats.lock_conflicts <-
              t.stats.Stats.lock_conflicts + grant.Scheduler.g_conflicts;
            let acc =
              List.fold_left (fun acc p -> run_control t be acc p) acc
                grant.Scheduler.g_control
            in
            if grant.Scheduler.g_reads <> [] || grant.Scheduler.g_mutate <> []
            then be.be_last_used <- t.now;
            let acc = run_reads t be acc grant.Scheduler.g_reads in
            match grant.Scheduler.g_mutate with
            | [] -> acc
            | mutators ->
              (* The holder's whole batch runs under one exclusive grant. *)
              let acc =
                Obs.span ~cat:"hub" ~mclock "hub.mutate" (fun () ->
                    List.fold_left
                      (fun acc p ->
                        let s =
                          Hashtbl.find t.sessions p.Scheduler.p_session
                        in
                        match (s.Session.host, p.Scheduler.p_request) with
                        | None, _ ->
                          respond t acc p (Protocol.Failed "not attached")
                        | Some host, Protocol.Command cmd ->
                          respond t acc p
                            (exec_command t (timeline_session s host be) cmd)
                        | Some _, _ ->
                          respond t acc p (Protocol.Failed "not a mutate op"))
                      acc mutators)
              in
              Obs.span ~cat:"hub" ~mclock "hub.fanout" (fun () ->
                  poll_events t be);
              acc))
      [] (board_ids t)
  in
  let acc = reap_timeouts t acc in
  if t.publish_globals then Stats.publish t.stats;
  List.rev acc

(** Submit one request and tick until its response arrives (convenience
    for single-threaded drivers; responses to other sessions produced by
    the intervening ticks are discarded). *)
let call ?(max_ticks = 100) t (fr : Protocol.request Protocol.frame) =
  let fail msg =
    {
      Protocol.fr_session = fr.Protocol.fr_session;
      fr_seq = fr.Protocol.fr_seq;
      fr_payload = Protocol.Failed msg;
    }
  in
  match submit t fr with
  | Error msg -> fail msg
  | Ok () ->
    let rec loop n =
      if n <= 0 then fail "no response (hub starved?)"
      else
        match
          List.find_opt
            (fun (r : Protocol.response Protocol.frame) ->
              r.Protocol.fr_session = fr.Protocol.fr_session
              && r.Protocol.fr_seq = fr.Protocol.fr_seq)
            (tick t)
        with
        | Some r -> r
        | None -> loop (n - 1)
    in
    loop max_ticks
