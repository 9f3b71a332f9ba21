(** The multi-session debug server: N clients multiplexed onto a pool of
    leased boards, advanced in deterministic ticks.

    Per tick, per board: session-lifecycle ops run first, then every
    queued read shares the board — register reads merged into one
    coalesced sweep — then exactly one mutating command holds it
    exclusively.  After a mutator, one status readback serves all
    subscribers: a latched stop fans out as a {!Protocol.Stopped} event.
    Idle sessions are reaped with a [Session_closed] notice. *)

module Board = Zoomie_bitstream.Board
module Controller = Zoomie_debug.Controller

type config = {
  max_sessions_per_board : int;  (** admission: concurrent sessions *)
  max_queue : int;  (** admission: queued requests per board *)
  session_timeout_ticks : int;  (** idle ticks before a session is reaped *)
}

val default_config : config

(** The name the hub writes on {!Board.acquire_lease}. *)
val lease_owner : string

type t

(** [publish_globals] (default [true]): mirror stats onto the shared
    [hub.*] gauges each tick.  Farm shards pass [false] — one hub per
    domain writing the same gauges would be last-writer-wins noise — and
    publish through their own {!Stats.mirror} instead. *)
val create : ?config:config -> ?publish_globals:bool -> unit -> t

val stats : t -> Stats.t

(** The hub's tick clock — the single time source for idle policy. *)
val now : t -> int

(** Put a board under hub ownership; returns its board id.  Fails when
    another driver holds its lease or it has no configured design.  The
    per-design site map is built once here and shared by every session
    that attaches. *)
val add_board : t -> Board.t -> info:Controller.info -> (int, string) result

(** Admit a new session bound to board [board]; returns the session id.
    [Error] when the board is unknown or at its session limit. *)
val open_session : t -> board:int -> (int, string) result

val session_status : t -> int -> Session.status option

val board_ids : t -> int list

(** The underlying board, for farm-level snapshot/restore during
    migration.  The hub still owns it — don't run it behind its back. *)
val board : t -> int -> Board.t option

(** Device name ([xcu200], ...) of a hub board, for compatible-board
    matching during migration. *)
val board_device : t -> int -> string option

(** Hub ticks since the board last saw cable traffic (reads/mutators) —
    the farm's lease-idle clock.  Control ops don't reset it. *)
val board_idle_for : t -> int -> int option

val active_sessions_on : t -> int -> int

(** Requests queued across every board; a shard drains its hub by
    ticking while this is non-zero. *)
val queued : t -> int

val queued_for : t -> int -> int

(** Flag a session as mid-migration: exempt from idle reaping until the
    flag is cleared (or the session is exported). *)
val set_migrating : t -> int -> bool -> unit

(** Close a session without failure responses or a mailbox notice — for
    disconnected clients and post-export cleanup. *)
val close_session : t -> int -> unit

(** Lift an active session out for migration: its attachment's
    [mut_path] (if attached) and subscription flag, then the session is
    removed.  Quiesce its queued work first; leftovers are dropped. *)
val export_session : t -> int -> (string option * bool, string) result

(** Rebuild an exported session on [board] (already restored from the
    source board's snapshot).  Touches the session with this hub's
    clock and bypasses the admission cap. *)
val import_session :
  t -> board:int -> mut_path:string option -> subscribed:bool ->
  (int, string) result

(** Release a board (and its lease) from hub ownership; refuses while
    active sessions are bound to it. *)
val remove_board : t -> int -> (Board.t, string) result

(** Queue one request.  [Error] when the session is unknown or gone, or
    when the board's backlog refuses admission (the request is counted
    as rejected, not queued). *)
val submit : t -> Protocol.request Protocol.frame -> (unit, string) result

(** Advance the hub one tick; returns the responses produced, in grant
    order.  Never raises on a request's behalf: an exception from serving
    one becomes its [Failed] response ([Failed "<constructor>: msg"] for
    anything but the engine's typed errors, counted in
    [Stats.crashes]). *)
val tick : t -> Protocol.response Protocol.frame list

(** Pending events for one session, in delivery order (empties its
    mailbox).  Works on closed sessions — the [Session_closed] notice
    stays collectable. *)
val events : t -> session:int -> Protocol.event Protocol.frame list

(** Submit one request and tick until its response arrives — convenience
    for single-threaded drivers.  Responses addressed to other sessions
    produced by the intervening ticks are discarded. *)
val call :
  ?max_ticks:int ->
  t ->
  Protocol.request Protocol.frame ->
  Protocol.response Protocol.frame
