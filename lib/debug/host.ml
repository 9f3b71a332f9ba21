(** The Zoomie debug session: the software half of the Debug Controller.

    Everything here goes through the board's JTAG path — control registers
    are written by state injection, status registers read by readback — so
    the modeled host times (Table 3, case studies) reflect real command
    traffic.  The API mirrors a software debugger: pause, resume, step,
    breakpoints, watch the stop cause, inspect and mutate state, snapshot
    and replay. *)

open Zoomie_rtl
module Board = Zoomie_bitstream.Board
module Netlist = Zoomie_synth.Netlist
module Obs = Zoomie_obs.Obs

(* Observability: the stop-poll loop is the host's hot cable path, so its
   shape (polls per run, runs issued) is worth a counter each; the cable
   time itself is already metered at the board. *)
let obs_status_polls = Obs.counter "host.status_polls"
let obs_runs = Obs.counter "host.run_until_stop"
let obs_stops = Obs.counter "host.stops_observed"

type t = {
  board : Board.t;
  netlist : Netlist.t;
  locmap : Zoomie_fabric.Loc.map;
  info : Controller.info;
  mut_path : string;  (** instance path of the wrapped MUT in the design *)
  site_map : Readback.site_map;
      (** per-design site index, built once at attach time *)
  mut_plan : Readback.plan;    (** columns holding MUT + controller state *)
  plan_cache : (string, Readback.plan) Hashtbl.t;
      (** per-register plans for the hot single-register poll path *)
  mutable poll_chunk : int;    (** design cycles between stop polls *)
  stop_net : int option;
      (** net index of the controller's stop latch, resolved at attach:
          lets the simulation kernel halt a run chunk the cycle the
          breakpoint latches instead of overshooting to the poll *)
}

let dbg_reg t name = t.mut_path ^ "." ^ name

(** The trigger unit's watched signals (for UIs encoding break values). *)
let watches t = t.info.Controller.cfg.Controller.watches

(** Whether any assertions are compiled into the wrapper — their
    breakpoints can stop a [step] before its cycle budget, which cycle
    accounting (the timeline recorder) needs to know statically. *)
let has_assertions t = t.info.Controller.cfg.Controller.assertions <> []

(** Hierarchical path of a register inside the MUT (the wrapper inserts the
    [mut] instance level). *)
let mut_reg t name = t.mut_path ^ ".mut." ^ name

(* Stop polling starts at this granularity and backs off while idle. *)
let initial_poll_chunk = 256
let max_poll_chunk = 16384

let attach ?site_map board ~(info : Controller.info) ~mut_path =
  let payload = Board.payload board in
  let netlist = payload.Board.netlist in
  let locmap = payload.Board.locmap in
  let prefix = mut_path ^ "." in
  let select name = String.starts_with ~prefix name in
  let site_map =
    (* Every name a host addresses lies under [prefix], so its own map
       covers just the wrapper's FFs and memories.  Sessions that share
       a design (the hub's, all attached to one board) pass the
       full-design map they already have. *)
    match site_map with
    | Some sm -> sm
    | None -> Readback.site_map ~select (Board.device board) netlist locmap
  in
  let mut_plan = Readback.plan_of_select site_map ~select in
  (* Resolve the stop latch's Q net once: its FF is named
     [<mut_path>.dbg_stop_latched] bit 0 in the logic-location data. *)
  let stop_net =
    let latch_name = mut_path ^ "." ^ Controller.stop_latched_reg in
    let found = ref None in
    Array.iteri
      (fun i (name, bit) ->
        if !found = None && name = latch_name && bit = 0 then
          found := Some netlist.Netlist.ffs.(i).Netlist.q)
      netlist.Netlist.ff_names;
    !found
  in
  { board; netlist; locmap; info; mut_path; site_map; mut_plan;
    plan_cache = Hashtbl.create 32; poll_chunk = initial_poll_chunk; stop_net }

(* --- introspection (for multiplexing front-ends like the hub) --- *)

let board t = t.board

let mut_path t = t.mut_path

let site_map t = t.site_map

let mut_plan t = t.mut_plan

let poll_chunk t = t.poll_chunk

(** Full hierarchical name of a MUT register given its original name. *)
let full_register_name t name = mut_reg t name

(** Readback plan covering the named MUT registers (original names). *)
let register_plan t names =
  Readback.plan_of_names t.site_map (List.map (mut_reg t) names)

(* --- low-level accessors --- *)

let inject t updates =
  Readback.inject_registers_indexed t.board t.site_map updates

(* Plan for one register, cached: the stop-poll loop reads the same few
   status registers over and over. *)
let plan_of_register t name =
  match Hashtbl.find_opt t.plan_cache name with
  | Some plan -> plan
  | None ->
    let plan = Readback.plan_of_names t.site_map [ name ] in
    Hashtbl.add t.plan_cache name plan;
    plan

let read_one t name =
  let plan = plan_of_register t name in
  match
    Readback.read_registers_indexed t.board t.site_map plan ~select:(fun n ->
        n = name)
  with
  | [ (_, v) ] -> v
  | [] -> invalid_arg (Printf.sprintf "Host: register %S not found" name)
  | hits ->
    (* A register can only legitimately appear once per plan; several hits
       mean the design's logic-location data double-covers the name. *)
    invalid_arg
      (Printf.sprintf
         "Host: register %S matched %d readback entries (malformed \
          logic-location data: duplicate plan coverage)"
         name (List.length hits))

(* --- run control --- *)

let is_stopped t =
  Bits.to_int (read_one t (dbg_reg t Controller.stop_latched_reg)) = 1

type cause = {
  value_bp : bool;
  cycle_bp : bool;
  assertion_bp : bool;
  watch_bp : bool;
  assert_mask : Bits.t option;
}

let stop_cause t =
  let c = read_one t (dbg_reg t Controller.stop_cause_reg) in
  let assert_mask =
    if t.info.Controller.cfg.Controller.assertions = [] then None
    else Some (read_one t (dbg_reg t Controller.assert_cause_reg))
  in
  {
    value_bp = Bits.get c Controller.cause_value_bit;
    cycle_bp = Bits.get c Controller.cause_cycle_bit;
    assertion_bp = Bits.get c Controller.cause_assert_bit;
    watch_bp = Bits.get c Controller.cause_watch_bit;
    assert_mask;
  }

(** Names of the assertions whose breakpoints have fired (from the sticky
    per-assertion cause register). *)
let fired_assertions t =
  match (stop_cause t).assert_mask with
  | None -> []
  | Some mask ->
    List.filteri
      (fun i _ -> i < Bits.width mask && Bits.get mask i)
      (List.map
         (fun (m : Zoomie_sva.Emit.monitor) -> m.Zoomie_sva.Emit.m_name)
         t.info.Controller.cfg.Controller.assertions)

(** Design cycles the MUT has executed (from the controller's counter). *)
let mut_cycles t =
  Bits.to_int (read_one t (dbg_reg t Controller.cycle_count_reg))

(** Pause the MUT from the host (e.g. on a perceived hang). *)
let pause t = inject t [ (dbg_reg t Controller.ctl_run_reg, Bits.of_int ~width:1 0) ]

(* Clear every latched stop condition, arm the step counter with
   [steps] and set the run bit: one read-modify-write of the controller
   frames (one capture sweep, one GRESTORE) for a resume or a step. *)
let release t ~steps =
  inject t
    ([
       (dbg_reg t Controller.stop_latched_reg, Bits.of_int ~width:1 0);
       (dbg_reg t Controller.stop_cause_reg, Bits.zero 4);
       (dbg_reg t Controller.step_counter_reg, Bits.of_int ~width:64 steps);
       (dbg_reg t Controller.ctl_run_reg, Bits.of_int ~width:1 1);
     ]
    @
    match t.info.Controller.cfg.Controller.assertions with
    | [] -> []
    | l -> [ (dbg_reg t Controller.assert_cause_reg, Bits.zero (List.length l)) ])

(** Resume execution (clears latched stops). *)
let resume t = release t ~steps:0

(** Let the FPGA run [cycles] of the free clock, polling for a stop.
    Returns true when the design stopped (breakpoint) within the budget.

    The poll interval is adaptive: every idle poll doubles [poll_chunk]
    (capped), and a stop resets it — a long-running design costs
    logarithmically many status readbacks instead of one per chunk, while
    a design that stops often keeps the tight interval.  Overshooting the
    free clock is harmless: the breakpoint latches in hardware and the MUT
    clock gate holds it paused — but when the stop latch's net was
    resolved at attach, the kernel's [run_until] halts the chunk the
    cycle it latches, so the free clock doesn't run past the stop.  The
    JTAG cost is identical either way: the host still pays one status
    readback per poll to observe the stop. *)
let run_until_stop ?(max_cycles = 1_000_000) t =
  Obs.incr obs_runs;
  let rec go remaining =
    if remaining <= 0 then false
    else begin
      let chunk = min t.poll_chunk remaining in
      (match t.stop_net with
      | Some stop_net -> ignore (Board.run_until t.board ~stop_net chunk)
      | None -> Board.run t.board chunk);
      Obs.incr obs_status_polls;
      if is_stopped t then begin
        t.poll_chunk <- initial_poll_chunk;
        Obs.incr obs_stops;
        true
      end
      else begin
        t.poll_chunk <- min max_poll_chunk (t.poll_chunk * 2);
        go (remaining - chunk)
      end
    end
  in
  Obs.span ~cat:"debug"
    ~mclock:(fun () -> Board.jtag_seconds t.board)
    "host.run_until_stop"
    (fun () -> go max_cycles)

(** Single-step the MUT by [n] design cycles (gdb's [until]): arm the cycle
    breakpoint and resume. *)
let step t n =
  release t ~steps:n;
  let stopped = run_until_stop ~max_cycles:(8 * (n + t.poll_chunk)) t in
  if not stopped then invalid_arg "Host.step: design did not stop"

(* --- breakpoints --- *)

(** Arm a value breakpoint: stop when all (watch, value) pairs match. *)
let break_on_all t conds =
  let spec = Trigger.arm_all t.info.Controller.cfg.Controller.watches conds in
  inject t (List.map (fun (r, v) -> (dbg_reg t r, v)) spec)

(** Arm a value breakpoint: stop when any (watch, value) pair matches. *)
let break_on_any t conds =
  let spec = Trigger.arm_any t.info.Controller.cfg.Controller.watches conds in
  inject t (List.map (fun (r, v) -> (dbg_reg t r, v)) spec)

(** Arm a watchpoint: stop in the cycle a watched signal changes value.
    The hardware shadow register continuously tracks the signal, so arming
    while paused never fires on stale history. *)
let watch_on t names =
  let watches = t.info.Controller.cfg.Controller.watches in
  let updates =
    List.map
      (fun name ->
        match
          List.find_opt (fun (w : Trigger.watch) -> w.Trigger.w_name = name) watches
        with
        | None -> invalid_arg (Printf.sprintf "Host.watch_on: %S is not watched" name)
        | Some w -> (dbg_reg t (Controller.watch_mask_reg w), Bits.of_int ~width:1 1))
      names
  in
  inject t updates

let watch_off t names =
  let watches = t.info.Controller.cfg.Controller.watches in
  let updates =
    List.map
      (fun name ->
        match
          List.find_opt (fun (w : Trigger.watch) -> w.Trigger.w_name = name) watches
        with
        | None -> invalid_arg (Printf.sprintf "Host.watch_off: %S is not watched" name)
        | Some w -> (dbg_reg t (Controller.watch_mask_reg w), Bits.of_int ~width:1 0))
      names
  in
  inject t updates

let clear_value_breakpoints t =
  let spec = Trigger.disarm t.info.Controller.cfg.Controller.watches in
  inject t (List.map (fun (r, v) -> (dbg_reg t r, v)) spec)

(** Enable/disable assertion breakpoints by index. *)
let set_assertion_enables t enables =
  let n = List.length t.info.Controller.cfg.Controller.assertions in
  if n = 0 then invalid_arg "Host: no assertions compiled in";
  let v = ref (Bits.zero n) in
  List.iteri (fun i en -> if en then v := Bits.set !v i true) enables;
  inject t [ (dbg_reg t Controller.assert_enable_reg, !v) ]

(* --- state access (§3.2, §3.3) --- *)

(** Read the full MUT state: every register inside the wrapped module, with
    hierarchical names, via SLR-aware readback. *)
let read_state t =
  let prefix = t.mut_path ^ ".mut." in
  Readback.read_registers_indexed t.board t.site_map t.mut_plan
    ~select:(fun n -> String.starts_with ~prefix n)

(** Read one MUT register by its original name. *)
let read_register t name = read_one t (mut_reg t name)

(** Overwrite a MUT register (state injection). *)
let write_register t name v = inject t [ (mut_reg t name, v) ]

(* --- batched (63-lane) fuzz-farm access --- *)

(** The board's 63-lane batch shadow model (compiled lazily; see
    {!Board.batch_sim}).  Off-cable: probing it costs no JTAG. *)
let batch t = Board.batch_sim t.board

(** Advance the batch shadow model [n] design-clock cycles in all lanes. *)
let run_batch t n = Board.run_batch t.board n

(** Read a MUT register by its original name as one batch lane sees it —
    the per-lane demux of {!read_register}. *)
let read_register_lane t ~lane name =
  Zoomie_synth.Netsim_batch.read_register (batch t) ~lane (mut_reg t name)

(** Overwrite a MUT register in one batch lane only (per-lane state
    injection into the shadow model). *)
let write_register_lane t ~lane name v =
  Zoomie_synth.Netsim_batch.write_register (batch t) ~lane (mut_reg t name) v

(** Read the full contents of a MUT memory by its original name. *)
let read_memory t name =
  Readback.read_memory_indexed t.board t.site_map ~name:(mut_reg t name)

(** Overwrite MUT memory words: [(address, value)] pairs. *)
let write_memory t name updates =
  Readback.inject_memory_indexed t.board t.site_map ~name:(mut_reg t name) updates

(** Snapshot the MUT (registers + memories, as configuration frames). *)
let snapshot t = Readback.take_snapshot t.board t.mut_plan

(** Replay a snapshot: restore frames and state, leaving the rest of the
    design untouched (§3.3 — preserve emulation progress). *)
let restore t snap = Readback.restore_snapshot t.board snap

(** Modeled host-side seconds spent on JTAG so far. *)
let jtag_seconds t = Board.jtag_seconds t.board

(* --- runtime waveform capture --- *)

(** Trace the paused MUT for [cycles] cycles: single-step, read back the
    registers whose original (unprefixed) name satisfies [signals], and
    collect a waveform.  Runtime-chosen probes and window — what the ILA
    flow needs a recompile for.  Each traced cycle costs one step and one
    selective readback of real JTAG traffic. *)
let trace ?(signals = fun _ -> true) t ~cycles =
  let wave = Wave.create ~scope:t.mut_path () in
  let prefix = t.mut_path ^ ".mut." in
  let plen = String.length prefix in
  let sample_now () =
    let regs =
      List.filter_map
        (fun (name, v) ->
          let short = String.sub name plen (String.length name - plen) in
          if signals short then Some (short, v) else None)
        (read_state t)
    in
    Wave.sample wave regs
  in
  sample_now ();
  for _ = 1 to cycles do
    step t 1;
    sample_now ()
  done;
  wave

(* --- state comparison --- *)

(** Registers that differ between two {!read_state} results (or any two
    (name, value) association lists): [(name, before, after)].  Names
    present in only one side pair with [None].  The result is canonical —
    sorted by full register name — regardless of input order or hash-table
    iteration order, because replay-divergence reports and [when-did]
    binary search compare diffs structurally. *)
let diff_states before after =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (n, v) -> Hashtbl.replace tbl n v) before;
  let changed =
    List.filter_map
      (fun (n, v2) ->
        match Hashtbl.find_opt tbl n with
        | Some v1 ->
          Hashtbl.remove tbl n;
          if Bits.equal v1 v2 then None else Some (n, Some v1, Some v2)
        | None -> Some (n, None, Some v2))
      after
  in
  let removed = Hashtbl.fold (fun n v acc -> (n, Some v, None) :: acc) tbl [] in
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (changed @ removed)
