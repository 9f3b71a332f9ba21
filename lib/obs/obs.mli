(** Unified observability for the Zoomie stack: a metrics registry
    (counters, gauges, log2-bucketed histograms) plus span-based tracing
    with dual clocks — wall time and the *modeled* clock of whatever
    subsystem the span covers (JTAG cable seconds, compile seconds) so
    traces are reproducible in tests.

    Needs only the standard library and [unix] (for the wall clock), so
    every library in the stack can link it, including the ones at the
    bottom of the dependency order.  Hot paths
    hold handles ([counter]/[gauge]/[histogram] values), so recording is
    O(1) with no name lookup; [span] with tracing disabled is a single
    branch around the thunk. *)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

type counter
type gauge
type histogram

(** Find-or-create by name.  Re-registering an existing name returns the
    same metric; registering a name that exists with a different kind
    raises [Invalid_argument]. *)
val counter : string -> counter

val gauge : string -> gauge
val histogram : string -> histogram

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val set_gauge : gauge -> float -> unit
val max_gauge : gauge -> float -> unit
val gauge_value : gauge -> float
val observe : histogram -> float -> unit

(** Log2 bucket index for a sample: bucket [i] covers
    [[2^(i-33), 2^(i-32))], clamped to [0, 63]; non-positive samples land
    in bucket 0.  Exposed for the bucket-boundary tests. *)
val bucket_of : float -> int

(** [bucket_bounds i] is the [[lo, hi)] range bucket [i] covers (the
    clamping at both ends ignored). *)
val bucket_bounds : int -> float * float

type value =
  | Count of int
  | Value of float
  | Dist of {
      d_count : int;
      d_sum : float;
      d_min : float;
      d_max : float;
      d_buckets : (int * int) list;  (** (bucket index, count), ascending *)
    }

(** Deterministic view of the registry: every metric, sorted by name. *)
val snapshot : unit -> (string * value) list

val snapshot_to_json : (string * value) list -> string
val snapshot_summary : (string * value) list -> string

(** Zero every metric (counts to 0, gauges to 0., histograms emptied)
    without invalidating handles held by hot paths. *)
val reset_metrics : unit -> unit

(* ------------------------------------------------------------------ *)
(* Span tracing                                                        *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_seq : int;  (** completion order; unique within a trace *)
  sp_name : string;
  sp_cat : string;
  sp_depth : int;  (** 0 for roots *)
  sp_parent : int;  (** [sp_seq] of the enclosing span, -1 for roots *)
  sp_wall_start : float;  (** [Unix.gettimeofday] at entry, seconds *)
  sp_wall_dur : float;
      (** wall seconds across the scope, blocking and sleeps included *)
  sp_model_start : float;  (** modeled clock sampled at entry *)
  sp_model_dur : float;  (** modeled clock delta across the scope *)
}

val set_tracing : bool -> unit
val tracing_enabled : unit -> bool

(** Ring-buffer capacity for completed spans (default 4096); oldest
    spans are dropped once full. *)
val set_trace_capacity : int -> unit

val clear_spans : unit -> unit

(** [span ~cat ?mclock name f] runs [f ()] inside a traced scope.  With
    tracing disabled this is just [f ()].  [mclock] samples the modeled
    clock of the subsystem (e.g. [fun () -> Board.jtag_seconds board]);
    when omitted the modeled stamps are 0.  The span is recorded even if
    [f] raises. *)
val span : ?cat:string -> ?mclock:(unit -> float) -> string -> (unit -> 'a) -> 'a

(** Completed spans, oldest first (up to the ring capacity). *)
val spans : unit -> span list

(** Chrome [trace_event] JSON ({"traceEvents": [...]}): complete ("X")
    events stamped with the wall clock; the modeled stamps ride along in
    each event's [args] so a trace viewer shows both. *)
val chrome_trace : unit -> string

val write_chrome_trace : string -> unit

(** [reset ()] = metrics zeroed + spans cleared + tracing off: test
    isolation in one call. *)
val reset : unit -> unit
