(** Cycle-accurate netlist simulator — the "fabric" of the simulated board.

    Compiled, event-driven engine: the netlist is lowered once at
    {!create} into flat typed arrays (levelized LUT/DSP/comb-read
    schedule, CSR fanout, unboxed truth tables — see {!Netsim_compile});
    settling drains per-level dirty worklists so only the fanout cone of
    changed nets re-evaluates, and each clock edge touches only FFs whose
    D differs from Q.  Gated clocks are honored per tick (precomputed
    tick sets per enable state), which is what makes the Debug
    Controller's clock pause real at the netlist level.

    Bit-for-bit equivalent to the retained interpreter
    {!Netsim_baseline}; state access is by net index (fast path, used by
    the board's frame machinery) or by RTL register name (host-facing). *)

open Zoomie_rtl

type t

(** [create ?jobs netlist] compiles and instantiates the engine.

    [jobs > 1] partitions every settle level across a persistent pool of
    [jobs] domains (the calling one included): each level's dirty queue
    is sliced into contiguous blocks — netlist construction order, so
    stamped instances stay together — evaluated concurrently, with all
    cross-partition propagation journaled per worker and replayed
    deterministically at the level barrier.  Results are bit-identical
    for every [jobs] value (enforced by the QCheck invariance property in
    [test/test_netsim.ml]).  Call {!shutdown} when done with a [jobs > 1]
    instance, or its worker domains outlive it. *)
val create : ?jobs:int -> Netlist.t -> t

(** The pool width the instance was created with (1 = sequential). *)
val jobs : t -> int

(** Stop the pool's parked worker domains.  Idempotent; no-op when
    [jobs = 1].  The instance must not be stepped afterwards. *)
val shutdown : t -> unit

val netlist : t -> Netlist.t

(** Topological order of LUT+DSP cells (exposed for the synthesis tests). *)
val topo_comb : Netlist.t -> int array

(** {1 Net-level access} *)

val get : t -> int -> bool

val set : t -> int -> bool -> unit

(** Pin a net: reads observe the pinned value until {!release}. *)
val force : t -> int -> bool -> unit

val release : t -> int -> unit

(** Integer value of an address bus (LSB first). *)
val addr_value : t -> int array -> int

(** Settle all combinational logic against current FF/input values. *)
val eval_comb : t -> unit

(** The transitive set of clock nets that tick when [clock] ticks
    (a gated clock ticks only while its enable is high {e this cycle}). *)
val ticking : t -> string -> (string, unit) Hashtbl.t

(** Advance [n] (default 1) cycles of root clock [clock]. *)
val step : ?n:int -> t -> string -> unit

(** [step_n t clock n] — the batched hot path: same as [step ~n]. *)
val step_n : t -> string -> int -> unit

(** [run_until t clock ~stop_net ~max_cycles] advances up to
    [max_cycles] edges, stopping early once [stop_net] settles high
    after an edge (the trigger/breakpoint check folded into the kernel
    loop).  Returns the number of cycles actually run. *)
val run_until : t -> string -> stop_net:int -> max_cycles:int -> int

val cycles : t -> int

(** {1 Kernel observability}

    Plain per-instance counters maintained by the hot loops (no registry
    traffic inside the kernel): how much work the event-driven engine
    actually did.  Surfaces (REPL [stats], benches) read them here and
    publish to {!Zoomie_obs.Obs} themselves. *)

type counters = {
  events_settled : int;  (** cell evaluations drained by [settle] *)
  levels_touched : int;  (** non-empty levels visited across settles *)
  edges : int;  (** clock edges committed *)
  tick_cache_hits : int;  (** gated-clock tick sets served from cache *)
  tick_cache_misses : int;  (** tick sets recomputed *)
  partition_dispatches : int;
      (** levels fanned out to the Domain pool (jobs > 1 only) *)
  boundary_syncs : int;
      (** level barriers: per-worker boundary-net journals merged *)
}

val counters : t -> counters

(** {1 Pins} *)

val poke_input : t -> string -> Bits.t -> unit

val peek_output : t -> string -> Bits.t

(** {1 State, as the board's frame machinery sees it} *)

val ff_value : t -> int -> bool

val set_ff : t -> int -> bool -> unit

val mem_bit : t -> int -> addr:int -> bit:int -> bool

val set_mem_bit : t -> int -> addr:int -> bit:int -> bool -> unit

(** [copy_mem t mi ~src ~src_mi] overwrites memory [mi] with the contents
    of memory [src_mi] of [src] in one blit, enqueueing its readers when
    anything changed (as {!set_mem_bit} does per bit).
    @raise Invalid_argument if the two memories differ in width or depth. *)
val copy_mem : t -> int -> src:t -> src_mi:int -> unit

(** {1 State, by RTL name}

    Multi-bit registers are reassembled from their per-bit FF cells;
    names are hierarchical ([cluster0.core0.pc]).
    @raise Not_found for unknown names. *)

val read_register : t -> string -> Bits.t

val write_register : t -> string -> Bits.t -> unit
