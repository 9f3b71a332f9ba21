(** SLR-aware readback and state injection (§3.2, §4.6, Table 3).

    Readback is Zoomie's visibility primitive: pull configuration frames
    off the board, then use the logic-location map to turn frame bits
    back into named RTL registers and memory contents.  Injection is the
    inverse — flip the right frame bits and GRESTORE.

    The Table 3 optimization lives in the planners: instead of reading
    every frame of every SLR (the unoptimized baseline that costs ~33 s),
    the plan covers only the columns that actually hold the selected
    cells, grouped per SLR so each chiplet is reached with the minimal
    number of BOUT ring hops — this is what makes the primary SLR
    (zero hops) measurably fastest.

    The host side is indexed end to end: frame responses land in a
    {!Frame_index} (hashtable keyed by full frame address) and register
    extraction walks a per-design {!site_map} built once from the
    logic-location metadata, so reads and injections cost O(1) per FF bit
    instead of the O(sites × frames) of association-list scans. *)

module Board = Zoomie_bitstream.Board
module Program = Zoomie_bitstream.Program
module Netlist = Zoomie_synth.Netlist
open Zoomie_fabric
open Zoomie_rtl

(** Typed failure of the readback/injection engine: unknown register or
    memory names, and plans that do not cover the state they are asked to
    extract.  Readback never silently fabricates zero bits. *)
exception Readback_error of string

(** {1 The frame response index} *)

module Frame_index : sig
  (** Full frame address: (slr, row, col, minor). *)
  type key = int * int * int * int

  type t

  val create : ?size:int -> unit -> t

  (** Number of frames held. *)
  val length : t -> int

  val mem : t -> key -> bool

  (** Insert (or replace) one frame's words. *)
  val add : t -> key -> int array -> unit

  val find : t -> key -> int array option

  (** [Some b] when the frame is present, [None] when the response does
      not cover it. *)
  val bit : t -> key -> word:int -> bit:int -> bool option

  (** Set one bit of a covered frame in place; [false] when absent. *)
  val set_bit : t -> key -> word:int -> bit:int -> bool -> bool

  (** Iterate frames in insertion (request) order. *)
  val iter : (key -> int array -> unit) -> t -> unit

  val fold : (key -> int array -> 'a -> 'a) -> t -> 'a -> 'a

  (** Deep copy (frame words duplicated). *)
  val copy : t -> t

  (** Distinct SLRs covered, ascending. *)
  val slrs : t -> int list

  (** Per-SLR association-list view [(row, col, minor) -> words] in
      insertion order — the pre-index representation, kept for
      differential testing and the micro-bench baseline. *)
  val to_assoc : t -> slr:int -> ((int * int * int) * int array) list
end

(** {1 Plans} *)

(** One column of frames to read on one SLR. *)
type column = { c_slr : int; c_row : int; c_col : int; c_frames : int }

type plan = {
  columns : column list;
  total_frames : int;
  selected : string array option;
      (** register names the plan was derived from (sorted), when the
          planner knows them — extraction then iterates only these instead
          of every register in the design *)
}

val frames_in_column : Device.t -> slr:int -> col:int -> int

(** {1 The per-design site map}

    Built once per (device, netlist, placement): register name → width and
    per-bit frame coordinates, memory name → placement.  Every indexed
    operation below takes it instead of rescanning the location map. *)

type site_map

(** [select] keeps only the registers and memories whose full name
    satisfies it (default: every one); the others are unknown to the map,
    as names outside the design are. *)
val site_map : ?select:(string -> bool) -> Device.t -> Netlist.t -> Loc.map -> site_map

(** All register names known to the map, sorted. *)
val register_names : site_map -> string list

val register_width : site_map -> string -> int option

val known_register : site_map -> string -> bool

val known_memory : site_map -> string -> bool

(** The minimal frame set covering every FF/memory cell whose RTL name
    satisfies [select] — the §4.6 SLR-aware plan. *)
val plan_of_select : site_map -> select:(string -> bool) -> plan

(** Plan covering exactly the named registers/memories.
    @raise Readback_error when any name is unknown. *)
val plan_of_names : site_map -> string list -> plan

(** Union of several plans, deduplicating shared columns — the coalescing
    primitive: k overlapping selections become one sweep sized by the
    union of their columns.  [selected] is the sorted union when every
    input plan carries one, [None] otherwise. *)
val merge_plans : plan list -> plan

(** Compatibility planner: builds a throwaway site map each call.  Prefer
    {!site_map} + {!plan_of_select} on repeated paths. *)
val plan_for : Device.t -> Netlist.t -> Loc.map -> select:(string -> bool) -> plan

(** Every frame of one SLR: the unoptimized baseline of Table 3. *)
val full_slr_plan : Device.t -> slr:int -> plan

(** BOUT ring hops needed to address [slr] from the primary. *)
val hops_to : Device.t -> int -> int

(** Emit the MASK/CTL0 write clearing the GSR restriction that a partial
    reconfiguration leaves behind (§4.7) — readback must do this first or
    captured state outside the dynamic region is garbage. *)
val emit_clear_mask : Program.t -> unit

(** Execute the [slr] part of a plan: GCAPTURE, hop to the SLR, read each
    column; returns the indexed frame response. *)
val read_slr_frames : Board.t -> plan -> slr:int -> Frame_index.t

(** Execute a whole plan, SLR by SLR, into one frame index. *)
val read_plan_frames : Board.t -> plan -> Frame_index.t

(** Modeled standalone cost of the [slr] part of [plan]: prices the exact
    word stream {!read_slr_frames} would execute, through the transport
    meter's cost function — so a scheduler's baseline can never disagree
    with what the executor charges. *)
val slr_sweep_cost : Board.t -> plan -> slr:int -> float

(** Modeled standalone cost of executing [plan] alone: per-SLR sweep
    prices summed in execution order (the meter's own batching). *)
val plan_cost : Board.t -> plan -> float

(** {1 Registers} *)

(** Pure host-side parse: reassemble every register satisfying [select]
    from an indexed frame response (no cable traffic).
    @raise Readback_error when a selected register has any bit whose frame
    is absent from the response — partial coverage never reads back as
    silent zeros. *)
val extract_registers :
  site_map -> Frame_index.t -> select:(string -> bool) -> (string * Bits.t) list

(** Demultiplex one named register list out of a (possibly merged) frame
    response — the per-session half of a coalesced sweep.  Results are
    sorted by name, duplicates removed.
    @raise Readback_error on an unknown name or a frame the response does
    not cover. *)
val extract_registers_named :
  site_map -> Frame_index.t -> names:string list -> (string * Bits.t) list

(** Read every FF whose name satisfies [select], as RTL-named registers
    (multi-bit registers are reassembled from their per-bit FFs).  When the
    plan carries its [selected] names, only those registers are considered
    — [select] must not widen beyond the plan (it could not be covered by
    the plan's frames anyway).
    @raise Readback_error when the plan does not fully cover a selected
    register. *)
val read_registers_indexed :
  Board.t -> site_map -> plan -> select:(string -> bool) -> (string * Bits.t) list

(** Compatibility wrapper around {!read_registers_indexed} (rebuilds the
    site map each call). *)
val read_registers :
  Board.t -> Netlist.t -> Loc.map -> plan -> select:(string -> bool) -> (string * Bits.t) list

(** State injection (§3.3): write registers by RTL name through frame
    writes + GRESTORE.  All names are validated before any cable traffic.
    @raise Readback_error when any update names an unknown register. *)
val inject_registers_indexed : Board.t -> site_map -> (string * Bits.t) list -> unit

(** Compatibility wrapper around {!inject_registers_indexed}. *)
val inject_registers : Board.t -> Netlist.t -> Loc.map -> (string * Bits.t) list -> unit

(** {1 Memories} *)

(** Full contents of memory [name] (BRAM or LUTRAM), one word per address.
    @raise Readback_error when the name is unknown. *)
val read_memory_indexed : Board.t -> site_map -> name:string -> Bits.t array

val read_memory : Board.t -> Netlist.t -> Loc.map -> name:string -> Bits.t array

(** Overwrite selected (address, value) words of memory [name].
    @raise Readback_error when the name is unknown. *)
val inject_memory_indexed :
  Board.t -> site_map -> name:string -> (int * Bits.t) list -> unit

val inject_memory :
  Board.t -> Netlist.t -> Loc.map -> name:string -> (int * Bits.t) list -> unit

(** {1 Snapshots (§3.3 record and replay)} *)

(** A raw-frame snapshot of everything a plan covers, with the cycle
    counter at capture time. *)
type snapshot = {
  snap_frames : Frame_index.t;
  snap_cycle : int;
}

val take_snapshot : Board.t -> plan -> snapshot

val restore_snapshot : Board.t -> snapshot -> unit

(** {2 Disk persistence}

    Format v2 stores the capture cycle as two 32-bit halves so campaigns
    past 2³¹ cycles round-trip exactly; v1 files (single 32-bit cycle)
    still load, masked to the unsigned value the writer recorded. *)

val snapshot_magic : int

val snapshot_version : int

val save_snapshot : snapshot -> string -> unit

(** Emit one snapshot onto an already-open binary channel — what
    {!save_snapshot} wraps.  Lets container formats (the timeline
    recorder) embed checkpoints inline in a larger stream. *)
val output_snapshot : out_channel -> snapshot -> unit

exception Bad_snapshot of string

(** @raise Bad_snapshot on a missing, truncated or wrong-version file. *)
val load_snapshot : string -> snapshot

(** Read one snapshot off a channel, leaving it positioned just past the
    snapshot — the inverse of {!output_snapshot}.
    @raise Bad_snapshot on truncation or a bad magic/version. *)
val input_snapshot : in_channel -> snapshot
