(** Hub service counters: arbitration, coalescing, and event-bus
    effectiveness, all in modeled units so benches and tests can assert
    on them deterministically. *)

type t = {
  mutable ticks : int;
  mutable requests : int;  (** admitted *)
  mutable responses : int;
  mutable rejected : int;  (** refused by admission control *)
  mutable lock_conflicts : int;  (** mutators deferred behind another session *)
  mutable timeouts : int;  (** sessions reaped idle *)
  mutable crashes : int;  (** requests that raised, answered [Failed] *)
  mutable sweeps : int;  (** merged readback sweeps executed *)
  mutable coalesced_reads : int;  (** read requests served by those sweeps *)
  mutable frames_read : int;  (** frames actually swept (union) *)
  mutable frames_requested : int;  (** frames the plans asked for (sum) *)
  mutable cable_seconds : float;  (** modeled time of the merged sweeps *)
  mutable serial_cable_seconds : float;
      (** modeled time had every read swept alone *)
  mutable events_published : int;  (** stop events detected *)
  mutable events_delivered : int;  (** per-subscriber deliveries *)
  mutable status_polls : int;  (** status readbacks the hub issued *)
  mutable polls_avoided : int;
      (** subscriber polls replaced by fan-out (deliveries beyond the
          one poll that detected the stop) *)
}

let create () =
  {
    ticks = 0;
    requests = 0;
    responses = 0;
    rejected = 0;
    lock_conflicts = 0;
    timeouts = 0;
    crashes = 0;
    sweeps = 0;
    coalesced_reads = 0;
    frames_read = 0;
    frames_requested = 0;
    cable_seconds = 0.0;
    serial_cable_seconds = 0.0;
    events_published = 0;
    events_delivered = 0;
    status_polls = 0;
    polls_avoided = 0;
  }

(** Modeled cable time the coalescer saved versus serialized sweeps. *)
let saved_seconds t = t.serial_cable_seconds -. t.cable_seconds

let summary t =
  (* Before any sweep has run, both cable totals are 0: there is no
     saving to clamp negative and no ratio to divide — print 0 and n/a
     rather than -0.0000 / inf / nan. *)
  let saved = Float.max 0.0 (saved_seconds t) in
  let ratio =
    if t.serial_cable_seconds = 0.0 || t.cable_seconds = 0.0 then "n/a"
    else Printf.sprintf "%.2fx" (t.serial_cable_seconds /. t.cable_seconds)
  in
  String.concat "\n"
    [
      Printf.sprintf "ticks=%d requests=%d responses=%d rejected=%d" t.ticks
        t.requests t.responses t.rejected;
      Printf.sprintf "lock_conflicts=%d timeouts=%d crashes=%d"
        t.lock_conflicts t.timeouts t.crashes;
      Printf.sprintf
        "sweeps=%d coalesced_reads=%d frames_read=%d frames_requested=%d"
        t.sweeps t.coalesced_reads t.frames_read t.frames_requested;
      Printf.sprintf
        "cable_seconds=%.4f serial_cable_seconds=%.4f saved_seconds=%.4f \
         coalescing=%s"
        t.cable_seconds t.serial_cable_seconds saved ratio;
      Printf.sprintf
        "events_published=%d events_delivered=%d status_polls=%d \
         polls_avoided=%d"
        t.events_published t.events_delivered t.status_polls t.polls_avoided;
    ]

let pp fmt t = Format.pp_print_string fmt (summary t)

(* --- registry mirror --------------------------------------------------- *)

module Obs = Zoomie_obs.Obs

(* The record above stays the hub's authoritative store (tests assert on
   its fields directly); [publish] rebases the same numbers onto the
   global metrics registry so the REPL [stats] command, the protocol
   [Stats] request and the bench snapshots all read hub health from the
   one substrate.  Gauges, not counters: stats fields are absolute. *)
let g_ticks = Obs.gauge "hub.ticks"
let g_requests = Obs.gauge "hub.requests"
let g_responses = Obs.gauge "hub.responses"
let g_rejected = Obs.gauge "hub.rejected"
let g_lock_conflicts = Obs.gauge "hub.lock_conflicts"
let g_timeouts = Obs.gauge "hub.timeouts"
let g_crashes = Obs.gauge "hub.crashes"
let g_sweeps = Obs.gauge "hub.sweeps"
let g_coalesced_reads = Obs.gauge "hub.coalesced_reads"
let g_frames_read = Obs.gauge "hub.frames_read"
let g_frames_requested = Obs.gauge "hub.frames_requested"
let g_cable_seconds = Obs.gauge "hub.cable_seconds"
let g_serial_cable_seconds = Obs.gauge "hub.serial_cable_seconds"
let g_events_published = Obs.gauge "hub.events_published"
let g_events_delivered = Obs.gauge "hub.events_delivered"
let g_status_polls = Obs.gauge "hub.status_polls"
let g_polls_avoided = Obs.gauge "hub.polls_avoided"

(* A farm shard mirrors its hub's stats under its own prefix
   ([farm.shard<i>.hub.*]) so per-shard health is visible without the
   shards racing each other on the global [hub.*] gauges (the registry
   is mutex-protected, but last-writer-wins across domains would make
   the globals meaningless).  Handles are created once per shard. *)
type mirror = {
  m_ticks : Obs.gauge;
  m_requests : Obs.gauge;
  m_responses : Obs.gauge;
  m_rejected : Obs.gauge;
  m_lock_conflicts : Obs.gauge;
  m_timeouts : Obs.gauge;
  m_crashes : Obs.gauge;
  m_sweeps : Obs.gauge;
  m_coalesced_reads : Obs.gauge;
  m_frames_read : Obs.gauge;
  m_frames_requested : Obs.gauge;
  m_cable_seconds : Obs.gauge;
  m_serial_cable_seconds : Obs.gauge;
  m_events_published : Obs.gauge;
  m_events_delivered : Obs.gauge;
  m_status_polls : Obs.gauge;
  m_polls_avoided : Obs.gauge;
}

let mirror prefix =
  let g name = Obs.gauge (prefix ^ "." ^ name) in
  {
    m_ticks = g "hub.ticks";
    m_requests = g "hub.requests";
    m_responses = g "hub.responses";
    m_rejected = g "hub.rejected";
    m_lock_conflicts = g "hub.lock_conflicts";
    m_timeouts = g "hub.timeouts";
    m_crashes = g "hub.crashes";
    m_sweeps = g "hub.sweeps";
    m_coalesced_reads = g "hub.coalesced_reads";
    m_frames_read = g "hub.frames_read";
    m_frames_requested = g "hub.frames_requested";
    m_cable_seconds = g "hub.cable_seconds";
    m_serial_cable_seconds = g "hub.serial_cable_seconds";
    m_events_published = g "hub.events_published";
    m_events_delivered = g "hub.events_delivered";
    m_status_polls = g "hub.status_polls";
    m_polls_avoided = g "hub.polls_avoided";
  }

let publish_to m t =
  let fi = float_of_int in
  Obs.set_gauge m.m_ticks (fi t.ticks);
  Obs.set_gauge m.m_requests (fi t.requests);
  Obs.set_gauge m.m_responses (fi t.responses);
  Obs.set_gauge m.m_rejected (fi t.rejected);
  Obs.set_gauge m.m_lock_conflicts (fi t.lock_conflicts);
  Obs.set_gauge m.m_timeouts (fi t.timeouts);
  Obs.set_gauge m.m_crashes (fi t.crashes);
  Obs.set_gauge m.m_sweeps (fi t.sweeps);
  Obs.set_gauge m.m_coalesced_reads (fi t.coalesced_reads);
  Obs.set_gauge m.m_frames_read (fi t.frames_read);
  Obs.set_gauge m.m_frames_requested (fi t.frames_requested);
  Obs.set_gauge m.m_cable_seconds t.cable_seconds;
  Obs.set_gauge m.m_serial_cable_seconds t.serial_cable_seconds;
  Obs.set_gauge m.m_events_published (fi t.events_published);
  Obs.set_gauge m.m_events_delivered (fi t.events_delivered);
  Obs.set_gauge m.m_status_polls (fi t.status_polls);
  Obs.set_gauge m.m_polls_avoided (fi t.polls_avoided)

let publish t =
  let fi = float_of_int in
  Obs.set_gauge g_ticks (fi t.ticks);
  Obs.set_gauge g_requests (fi t.requests);
  Obs.set_gauge g_responses (fi t.responses);
  Obs.set_gauge g_rejected (fi t.rejected);
  Obs.set_gauge g_lock_conflicts (fi t.lock_conflicts);
  Obs.set_gauge g_timeouts (fi t.timeouts);
  Obs.set_gauge g_crashes (fi t.crashes);
  Obs.set_gauge g_sweeps (fi t.sweeps);
  Obs.set_gauge g_coalesced_reads (fi t.coalesced_reads);
  Obs.set_gauge g_frames_read (fi t.frames_read);
  Obs.set_gauge g_frames_requested (fi t.frames_requested);
  Obs.set_gauge g_cable_seconds t.cable_seconds;
  Obs.set_gauge g_serial_cable_seconds t.serial_cable_seconds;
  Obs.set_gauge g_events_published (fi t.events_published);
  Obs.set_gauge g_events_delivered (fi t.events_delivered);
  Obs.set_gauge g_status_polls (fi t.status_polls);
  Obs.set_gauge g_polls_avoided (fi t.polls_avoided)
