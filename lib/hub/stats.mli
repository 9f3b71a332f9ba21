(** Hub service counters: arbitration, coalescing, and event-bus
    effectiveness, in modeled units so benches and tests can assert on
    them deterministically. *)

type t = {
  mutable ticks : int;
  mutable requests : int;  (** admitted *)
  mutable responses : int;
  mutable rejected : int;  (** refused by admission control *)
  mutable lock_conflicts : int;  (** mutators deferred behind another session *)
  mutable timeouts : int;  (** sessions reaped idle *)
  mutable crashes : int;
      (** requests whose engine raised an unexpected exception (each
          answered [Failed "<constructor>: msg"], the hub kept running) *)
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
      (** subscriber polls replaced by fan-out *)
}

val create : unit -> t

(** Modeled cable time the coalescer saved versus serialized sweeps. *)
val saved_seconds : t -> float

(** Human summary.  Prints [saved_seconds] clamped at 0 and the
    coalescing ratio as [n/a] while no sweep has accumulated cable time
    yet (never [inf]/[nan]). *)
val summary : t -> string

val pp : Format.formatter -> t -> unit

(** Mirror every counter onto the global {!Zoomie_obs.Obs} registry as
    [hub.*] gauges — the record stays the authoritative store, the
    registry is how the REPL/protocol/bench surfaces read it. *)
val publish : t -> unit

(** A prefixed set of gauge handles ([<prefix>.hub.*]) for farm shards:
    each shard mirrors its own hub's stats under its own prefix instead
    of racing the other domains on the global [hub.*] gauges. *)
type mirror

val mirror : string -> mirror

val publish_to : mirror -> t -> unit
