(** The Zoomie debug session: the software half of the Debug Controller.

    Every operation travels through the board's JTAG path — control
    registers are written by state injection, status registers read by
    readback — so modeled host times reflect real command traffic.  The
    API mirrors a software debugger: pause, resume, step, breakpoints,
    watchpoints, inspect and mutate state, snapshot and replay. *)

open Zoomie_rtl
module Board = Zoomie_bitstream.Board

type t

(** Attach to the wrapped MUT instance at hierarchical path [mut_path] on a
    programmed board.

    The session binds to the design configured at attach time.
    (Re)programming the board — including a VTI partial reconfiguration —
    swaps in a new netlist and logic-location map, so attach again
    afterwards, exactly as a hardware debugger reconnects after
    reprogramming.

    Without [site_map] the session builds its own, scoped to the FFs and
    memories under [mut_path ^ "."]: every name the session addresses
    lies there.  [site_map] lets sessions sharing one configured design
    (a hub's, all attached to the same board) reuse one prebuilt map
    instead — it must describe the board's current payload and cover the
    wrapper's names; the hub passes a full-design map. *)
val attach :
  ?site_map:Readback.site_map ->
  Board.t ->
  info:Controller.info ->
  mut_path:string ->
  t

(** The trigger unit's watched signals (for UIs encoding break values). *)
val watches : t -> Trigger.watch list

(** Whether any assertions are compiled into the wrapper (their
    breakpoints can stop a [step] before its cycle budget). *)
val has_assertions : t -> bool

(** {1 Introspection (for multiplexing front-ends)} *)

val board : t -> Board.t

val mut_path : t -> string

(** The map the session reads and injects through: the one passed to
    {!attach}, or its own, which knows only names under [mut_path]. *)
val site_map : t -> Readback.site_map

(** The plan covering the wrapper's state (MUT and controller): what
    {!read_state} and {!snapshot} sweep. *)
val mut_plan : t -> Readback.plan

(** Full hierarchical name of a MUT register given its original name
    (the wrapper inserts the [mut] instance level). *)
val full_register_name : t -> string -> string

(** Readback plan covering the named MUT registers (original names) —
    what a coalescer merges across sessions.
    @raise Readback.Readback_error when any name is unknown. *)
val register_plan : t -> string list -> Readback.plan

(** Current stop-poll granularity (design cycles between status reads). *)
val poll_chunk : t -> int

(** The granularity polling starts at (and resets to on a stop). *)
val initial_poll_chunk : int

(** {1 Run control} *)

(** Has a breakpoint latched a stop? (One status-register readback.) *)
val is_stopped : t -> bool

type cause = {
  value_bp : bool;
  cycle_bp : bool;
  assertion_bp : bool;
  watch_bp : bool;
  assert_mask : Bits.t option;
      (** per-assertion violation bits, when assertions are compiled in *)
}

val stop_cause : t -> cause

(** Names of the assertions whose breakpoints have fired. *)
val fired_assertions : t -> string list

(** Design cycles the MUT has executed (the controller's counter). *)
val mut_cycles : t -> int

(** Pause the MUT from the host (e.g. on a perceived hang). *)
val pause : t -> unit

(** Resume execution; clears latched stop conditions. *)
val resume : t -> unit

(** Let the FPGA run up to [max_cycles] free-clock cycles, polling for a
    stop; [true] when a breakpoint fired within the budget.  Polling is
    adaptive: each idle poll doubles {!poll_chunk} (capped), and a stop
    resets it to {!initial_poll_chunk}, so long idle runs cost
    logarithmically many status readbacks. *)
val run_until_stop : ?max_cycles:int -> t -> bool

(** Execute exactly [n] MUT cycles then stop (gdb's [until]). *)
val step : t -> int -> unit

(** {1 Breakpoints and watchpoints — all armed at runtime via injection} *)

(** Stop when all (watched signal, value) pairs match simultaneously. *)
val break_on_all : t -> (string * Bits.t) list -> unit

(** Stop when any one (watched signal, value) pair matches. *)
val break_on_any : t -> (string * Bits.t) list -> unit

val clear_value_breakpoints : t -> unit

(** Stop in the cycle a watched signal changes value (takes effect from the
    first executed cycle after arming). *)
val watch_on : t -> string list -> unit

val watch_off : t -> string list -> unit

(** Enable/disable compiled-in assertion breakpoints by index. *)
val set_assertion_enables : t -> bool list -> unit

(** {1 State access (paper 3.2, 3.3)} *)

(** Every register inside the wrapped module, by hierarchical name, via
    SLR-aware readback. *)
val read_state : t -> (string * Bits.t) list

(** One MUT register by its original (unwrapped) name. *)
val read_register : t -> string -> Bits.t

(** Overwrite a MUT register (state injection; no recompilation). *)
val write_register : t -> string -> Bits.t -> unit

(** {1 Batched (63-lane) fuzz-farm access}

    A lazily compiled {!Zoomie_synth.Netsim_batch} shadow of the loaded
    design runs 63 independent stimulus scenarios per settle beside the
    live board model.  It is entirely off-cable — probing it charges no
    JTAG time — which is what makes fuzz campaigns over the MUT
    tractable.  The shadow is dropped whenever the board is
    (re)configured. *)

(** The board's batch shadow model ({!Board.batch_sim}). *)
val batch : t -> Zoomie_synth.Netsim_batch.t

(** Advance the shadow model [n] design-clock cycles in all 63 lanes. *)
val run_batch : t -> int -> unit

(** Read a MUT register by its original name as one lane sees it — the
    per-lane demux of {!read_register}. *)
val read_register_lane : t -> lane:int -> string -> Bits.t

(** Overwrite a MUT register in one lane only. *)
val write_register_lane : t -> lane:int -> string -> Bits.t -> unit

(** Read the full contents of a MUT memory by its original name. *)
val read_memory : t -> string -> Bits.t array

(** Overwrite MUT memory words: [(address, value)] pairs. *)
val write_memory : t -> string -> (int * Bits.t) list -> unit

(** Snapshot the MUT's registers and memories as configuration frames. *)
val snapshot : t -> Readback.snapshot

(** Replay a snapshot, leaving the rest of the design untouched. *)
val restore : t -> Readback.snapshot -> unit

(** Modeled host-side seconds spent on JTAG so far. *)
val jtag_seconds : t -> float

(** {1 Runtime waveform capture}

    The software-debugger upgrade over an ILA: probes and window chosen
    {e at runtime}, against an already-paused design.  [trace t ~cycles]
    single-steps the MUT [cycles] times, reading back the registers whose
    original name satisfies [signals] (default: all) after every step.
    The result exports as standard VCD ({!Wave.write}).  Each traced
    cycle is real JTAG traffic, so wide traces of long windows are slow —
    exactly the §3.2 trade-off of visibility against cable time. *)
val trace : ?signals:(string -> bool) -> t -> cycles:int -> Wave.t

(** Registers that differ between two {!read_state} results:
    [(name, before, after)], canonically sorted by full register name
    (independent of input order — replay-divergence reports and
    [when-did]'s binary search compare diffs structurally); a [None] side
    means the name was absent there.  Pure function — handy for "what
    moved while I stepped" interrogation. *)
val diff_states :
  (string * Bits.t) list ->
  (string * Bits.t) list ->
  (string * Bits.t option * Bits.t option) list
