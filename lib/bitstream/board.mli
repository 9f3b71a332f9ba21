(** The simulated FPGA board (an Alveo-class card on a JTAG cable).

    This is the stand-in for the paper's physical U200: a set of per-SLR
    configuration microcontrollers on the §4 BOUT ring, plus a live
    netlist-level model of whatever design the configuration frames
    currently describe.  Every interaction — configuration, readback,
    state capture/restore — happens by {!execute}-ing real bitstream
    command words through the primary SLR, exactly the traffic a real
    cable would carry, with the time charged to the JTAG transport model.

    The substitution this module embodies (see DESIGN.md): the paper's
    hardware gates become a cycle-accurate netlist simulator whose FF and
    memory state is indexed by the same logic-location map a real
    readback flow uses, so all of Zoomie's host-side machinery runs
    unchanged. *)

module Netsim = Zoomie_synth.Netsim
module Netsim_batch = Zoomie_synth.Netsim_batch
module Netlist = Zoomie_synth.Netlist
open Zoomie_fabric

(** What a bitstream configures, beyond raw frames: the netlist the
    frames were generated from and the placement that maps state bits to
    frame addresses.  A real flow recovers this from the checkpoint +
    logic-location file; we carry it alongside the words. *)
type payload = {
  netlist : Netlist.t;
  locmap : Loc.map;
  clock_root : string;
  freq_mhz : float;
}

type bitstream = {
  bs_words : int array;  (** the raw configuration command stream *)
  bs_payload : payload option;
  bs_partial : bool;  (** partial reconfiguration (state-preserving) *)
  bs_dynamic : Region.t list;  (** regions being reconfigured *)
}

(** One memory's bits resident in one configuration frame.  [Bram_seg]
    is content frame [k] (of {!Zoomie_fabric.Geometry.bram_content_frames_per_tile})
    of the block at ([block_row], [block_col]) of memory [mi]: entries
    [block_row*1024 ..], bits [block_col*36 ..].  [Lutram_seg] is the
    64-entry slice [depth_unit] of data bit [bit] of memory [mi], held
    in CLB tile [tile]. *)
type mem_segment =
  | Bram_seg of { mi : int; block_row : int; block_col : int; k : int }
  | Lutram_seg of { mi : int; bit : int; depth_unit : int; tile : int }

(** The state bits resident in one configuration frame (reverse of the
    locmap): precomputed per design so capture/restore touch only the
    frames a readback actually transfers.  Memories are indexed by
    segment, so building the index is O(FFs + memory sites). *)
type frame_bits = {
  fb_ffs : (int * int * int) array;  (** ff index, frame word, frame bit *)
  fb_mems : mem_segment array;  (** only segments holding at least one bit *)
}

type t = {
  device : Device.t;
  ucs : Uc.t array;  (** one configuration uc per SLR *)
  mutable design : (payload * Netsim.t) option;
  mutable batch : Netsim_batch.t option;  (** lazy 63-lane shadow model *)
  mutable dynamic_regions : Region.t list;
  meter : Jtag.Meter.t;  (** the instrumented transport meter *)
  mutable fpga_cycles : int;  (** user-clock cycles executed *)
  mutable lease : string option;  (** advisory ownership lease *)
  mutable state_index :
    (payload * (int * int * int, frame_bits) Hashtbl.t array) option;
      (** per-SLR frame-key -> state-bits cache for the keyed payload *)
  mutable cable_scale : float;
      (** wall seconds slept per modeled cable second (0 = pure model) *)
  mutable cable_debt : float;
      (** unslept cable wall time, paid off in >=5ms chunks *)
}

val create : Device.t -> t

val device : t -> Device.t

(** Modeled seconds spent on the JTAG cable so far (§5.3 accounting):
    {!Jtag.Meter.seconds} of the board's meter. *)
val jtag_seconds : t -> float

(** The board's transport meter — every {!execute} charges it once. *)
val meter : t -> Jtag.Meter.t

(** Wall-clock cable emulation: sleep [scale] wall seconds per modeled
    cable second inside every {!execute}.  A debug farm enables this so
    cable occupancy is real to the scheduler — one cable per board,
    serial on each board, overlapping across boards — at a compression
    factor the harness picks.  0 (the default) keeps the transport
    purely virtual-time; tests and single-board flows never need it. *)
val set_cable_scale : t -> float -> unit

val cable_scale : t -> float

val fpga_cycles : t -> int

(** {1 Ownership lease}

    An advisory single-owner lease over the cable, for arbitrated
    front-ends (the hub) that must not share a board with another driver.
    The board itself does not enforce it — a lone {!Host.t} session on a
    private board never needs one — but any multiplexer should acquire it
    before issuing traffic and refuse boards leased elsewhere. *)

(** [Error msg] when another owner already holds the lease.  Re-acquiring
    under the same owner name is idempotent. *)
val acquire_lease : t -> owner:string -> (unit, string) result

(** Release only if held by [owner]; otherwise a no-op. *)
val release_lease : t -> owner:string -> unit

val lease_owner : t -> string option

(** {1 Transfer accounting}

    Batched-sweep bookkeeping: how many {!execute} calls the board has
    served and how many 32-bit words (command + response) they moved.
    A coalescing scheduler shows its win here — fewer transfers moving
    fewer total words than its clients would issue individually. *)

val transfer_count : t -> int

val words_transferred : t -> int

(** Modeled wall-clock of the fabric itself: {!fpga_cycles} at the
    configured user-clock frequency. *)
val fpga_seconds : t -> float

(** The live design model.  (Re)configuring the board — {!load} or a VTI
    partial bitstream — replaces the model, so re-fetch this handle after
    every programming operation.  @raise Invalid_argument if nothing is
    loaded. *)
val netsim : t -> Netsim.t

(** Netlist + placement of the currently-configured design.
    @raise Invalid_argument if nothing is loaded. *)
val payload : t -> payload

(** The 63-lane batch shadow model of the loaded design ({!Netsim_batch}),
    compiled lazily on first use and invalidated whenever {!load}
    replaces the design.  It is a fuzz farm beside the live model — 63
    independent stimulus scenarios advance per settle against the same
    netlist — and runs entirely off-cable: no JTAG charge, no
    {!fpga_cycles} advance.  @raise Invalid_argument if nothing is
    loaded. *)
val batch_sim : t -> Netsim_batch.t

(** Advance the batch shadow model [n] root-clock cycles in all 63 lanes
    (off-cable; the board's own clock does not move). *)
val run_batch : t -> int -> unit

(** The configuration microcontroller of SLR [i] (for tests poking at the
    §4 mechanics directly). *)
val uc : t -> int -> Uc.t

(** {1 State movement between fabric and configuration frames}

    These are the GCAPTURE / GRESTORE / start-up mechanics of §4.5,
    honoring the CTL0 GSR mask restriction of §4.7: when a partial
    reconfiguration has left the mask set, only state inside the dynamic
    regions is visible to capture/restore. *)

(** Iterate the FF cells resident on one SLR (index, site, live model). *)
val iter_slr_ffs : t -> slr:int -> (int -> Loc.ff_site -> Netsim.t -> unit) -> unit

(** Iterate the memory bits resident on one SLR, with both their logical
    coordinates (memory index, address, bit) and their frame coordinates
    (site key, frame word, bit-in-word). *)
val iter_slr_mem_bits :
  t ->
  slr:int ->
  (mi:int ->
  addr:int ->
  bit:int ->
  key:int * int * int ->
  word:int ->
  fbit:int ->
  Netsim.t ->
  unit) ->
  unit

(** The per-SLR frame-key -> state-bits index of the loaded design,
    built on first use and cached until the next {!load}.  It covers
    the same bits as {!iter_slr_ffs}/{!iter_slr_mem_bits} with the GSR
    restriction lifted; capture and restore apply the restriction per
    frame.  @raise Invalid_argument if nothing is loaded. *)
val frame_index : t -> (Frames.key, frame_bits) Hashtbl.t array

(** [iter_segment mems seg f] calls [f mi addr bit word fbit] for every
    bit of [seg] inside its memory's depth and width: memory coordinates
    ([mi], [addr], [bit]) and frame coordinates ([word], [fbit]).
    [mems] is the netlist's memory array. *)
val iter_segment :
  Netlist.mem array ->
  mem_segment ->
  (int -> int -> int -> int -> int -> unit) ->
  unit

(** The word path capture and restore take for a [Lutram_seg]: its 64
    entries are two 32-entry halves in frame words [2*tile] and
    [2*tile + 1], entry [addr0 + a] at frame bit [a].
    [iter_lutram_halves mems ~mi ~bit ~depth_unit ~tile f] calls
    [f mi bit word addr0 mask] once per half holding at least one entry;
    [mask] has bit [a] set for each entry inside the memory's depth.
    {!iter_segment} expands a LUTRAM segment through it. *)
val iter_lutram_halves :
  Netlist.mem array ->
  mi:int ->
  bit:int ->
  depth_unit:int ->
  tile:int ->
  (int -> int -> int -> int -> int -> unit) ->
  unit

(** GCAPTURE on one SLR, eagerly: snapshot live FF/memory state into its
    frames.  The packet-stream path is lazier — a GCAPTURE command only
    arms the µc, and each frame's state bits materialize when an FDRO
    read actually serves that frame — but this entry point materializes
    everything at once for direct frame inspection. *)
val capture_slr : t -> int -> unit

(** GRESTORE on one SLR: drive the frames written since the last
    GCAPTURE back into live state (clean frames already mirror the
    fabric, so the full-SLR sweep they used to get was a no-op). *)
val restore_slr : t -> int -> unit

(** Release the start-up sequence on one SLR (end of configuration). *)
val start_slr : t -> int -> unit

(** {1 The cable} *)

(** Push a command stream through the primary SLR's configuration port and
    return the read-data words it produced.  BOUT writes hop the remainder
    of the stream one SLR further along the ring (§4.4); time is charged
    to {!jtag_seconds} per the transport model in {!module:Jtag}. *)
val execute : t -> int array -> int array

(** What {!execute}-ing [stream] would charge the meter, computed from
    the stream alone (no board state touched, no traffic issued). *)
val stream_counts : int array -> Jtag.Meter.counts

(** [Jtag.Meter.price (stream_counts stream)]: the modeled standalone
    cost of a transfer, through the same cost function the executor
    charges with — schedulers price hypothetical traffic here so their
    baselines can never drift from the transport model. *)
val price_stream : int array -> float

(** Configure the board from a bitstream.  A full bitstream resets and
    replaces everything.  A partial bitstream ([bs_partial]) swaps in the
    new design model but carries over all live state outside the dynamic
    regions — and, like the environment it models, keeps the values being
    driven into the board's input pins. *)
val load : t -> bitstream -> unit

(** Used by {!load} for partial reconfiguration; exposed for the VTI
    tests: copy state from the old model into the new one, except inside
    [dynamic] regions.  FFs match by [(name, bit)], which must be unique
    in each netlist: keys aligned at the same index from the front or the
    back of both [ff_names] arrays match by position, the rest through a
    table over the old array's unaligned middle.  Memories match by name,
    width and depth. *)
val carry_over_state : t -> Netsim.t -> payload -> dynamic:Region.t list -> unit

(** Advance the user clock [n] cycles (no cable traffic). *)
val run : t -> int -> unit

(** [run_until t ~stop_net n] advances up to [n] user-clock cycles but
    returns as soon as net [stop_net] settles high after an edge — the
    debug controller's stop latch, folded into the simulation kernel's
    batched loop.  Returns the cycles actually run.  No cable traffic;
    the host still pays its JTAG polls to {e observe} the stop. *)
val run_until : t -> stop_net:int -> int -> int
