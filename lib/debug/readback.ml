(** State extraction and injection over JTAG (§3.2, §3.3, §4.7).

    Readback plans enumerate exactly the configuration columns that hold
    MUT state; the SLR-aware executor hops the BOUT ring to the owning SLR,
    issues GCAPTURE, reads only those columns and matches the returned bits
    against RTL register names using the toolchain's logic-location
    metadata.  The unoptimized baseline scans entire SLRs — the Table 3
    comparison.

    The host side is built around two indexes so the pause → readback →
    inject loop is lookup-O(1) end to end:

    - {!Frame_index}: the frame response, a hashtable keyed on
      [(slr, row, col, minor)] — replaces the association lists that made
      register extraction O(sites × frames).
    - {!site_map}: the per-design site map, built once from the netlist and
      logic-location map — register name → width and per-bit frame
      coordinates, memory name → placement columns — replacing the
      per-call rescans of every FF site.

    Readback never fabricates state: a selected register whose frames are
    missing from the response raises {!Readback_error} instead of reading
    back as zeros, and injection validates every target name up front.

    Injection is a read-modify-write of the owning frames followed by
    GRESTORE; both paths clear the CTL0 GSR-mask bit first, because partial
    reconfiguration leaves it set and capture would otherwise skip the
    static region (§4.7). *)

open Zoomie_fabric
module Board = Zoomie_bitstream.Board
module Program = Zoomie_bitstream.Program
module Netlist = Zoomie_synth.Netlist
module Obs = Zoomie_obs.Obs

(** Typed failure of the readback/injection engine: unknown register or
    memory names, and plans that do not cover the state they are asked to
    extract. *)
exception Readback_error of string

let readback_error fmt = Printf.ksprintf (fun s -> raise (Readback_error s)) fmt

(* --- the frame response index ---------------------------------------- *)

module Frame_index = struct
  (** (slr, row, col, minor) — the full frame address, across chiplets. *)
  type key = int * int * int * int

  (* [order] keeps insertion order (reversed) so write-back programs and
     snapshot files are emitted deterministically, in request order. *)
  type t = {
    tbl : (key, int array) Hashtbl.t;
    mutable order : key list;
  }

  let create ?(size = 256) () = { tbl = Hashtbl.create size; order = [] }

  let length t = Hashtbl.length t.tbl

  let mem t key = Hashtbl.mem t.tbl key

  let add t key words =
    if not (Hashtbl.mem t.tbl key) then t.order <- key :: t.order;
    Hashtbl.replace t.tbl key words

  let find t key = Hashtbl.find_opt t.tbl key

  (** [Some b] when the frame is present, [None] when the response does not
      cover it — the caller decides whether absence is an error. *)
  let bit t key ~word ~bit =
    match Hashtbl.find_opt t.tbl key with
    | Some words -> Some ((words.(word) lsr bit) land 1 = 1)
    | None -> None

  (** Set one bit in a covered frame; [false] when the frame is absent. *)
  let set_bit t key ~word ~bit v =
    match Hashtbl.find_opt t.tbl key with
    | None -> false
    | Some words ->
      if v then words.(word) <- words.(word) lor (1 lsl bit)
      else words.(word) <- words.(word) land lnot (1 lsl bit);
      true

  (** Iterate frames in insertion order. *)
  let iter f t =
    List.iter (fun k -> f k (Hashtbl.find t.tbl k)) (List.rev t.order)

  let fold f t acc =
    List.fold_left
      (fun acc k -> f k (Hashtbl.find t.tbl k) acc)
      acc (List.rev t.order)

  (** Deep copy (payload arrays are duplicated). *)
  let copy t =
    let c = create ~size:(max 16 (Hashtbl.length t.tbl)) () in
    iter (fun k words -> add c k (Array.copy words)) t;
    c

  (** The distinct SLRs covered, ascending. *)
  let slrs t =
    fold (fun (slr, _, _, _) _ acc -> if List.mem slr acc then acc else slr :: acc) t []
    |> List.sort compare

  (** Per-SLR association-list view [(row, col, minor) -> words], in
      insertion order — the seed representation, kept for differential
      testing and the micro-bench baseline. *)
  let to_assoc t ~slr =
    fold
      (fun (s, row, col, minor) words acc ->
        if s = slr then ((row, col, minor), words) :: acc else acc)
      t []
    |> List.rev
end

type column = { c_slr : int; c_row : int; c_col : int; c_frames : int }

type plan = {
  columns : column list;
  total_frames : int;
  selected : string array option;
      (* register names the plan was derived from (sorted), when known:
         extraction then iterates just these instead of scanning every
         register in the design — the difference between O(selected) and
         O(design) per readback on manycore-scale SoCs *)
}

let frames_in_column device ~slr ~col =
  let s = Device.slr device slr in
  Geometry.frames_per_column s.Device.layout.Geometry.columns.(col)

let plan_of_columns ?selected device cols =
  let columns =
    Hashtbl.fold
      (fun (slr, row, col) () acc ->
        { c_slr = slr; c_row = row; c_col = col;
          c_frames = frames_in_column device ~slr ~col }
        :: acc)
      cols []
    |> List.sort compare
  in
  { columns;
    total_frames = List.fold_left (fun a c -> a + c.c_frames) 0 columns;
    selected }

(* --- the per-design site map ----------------------------------------- *)

(* One register: its width, the frame coordinates of each bit, and the
   columns its FFs occupy (for planning). *)
type reg_entry = {
  re_width : int;
  re_sites : (int * Frame_index.key * int * int) array;
      (* (register bit, frame key, word, bit-in-word) *)
  re_cols : (int * int * int) list;  (* distinct (slr, row, col) *)
}

type site_map = {
  sm_device : Device.t;
  sm_netlist : Netlist.t;
  sm_locmap : Loc.map;
  sm_regs : (string, reg_entry) Hashtbl.t;
  sm_reg_names : string array;  (** all register names, sorted *)
  sm_mems : (string, int) Hashtbl.t;  (** memory name -> netlist index *)
  sm_mem_cols : (int * int * int) list array;
      (** per netlist memory index; [[]] for memories the map leaves out *)
}

(** Build the per-design site map: one linear pass over the logic-location
    metadata, amortized across every subsequent readback/injection.  Only
    registers and memories whose name satisfies [select] (default: all)
    enter the map; every other name is unknown to it. *)
let site_map ?(select = fun _ -> true) device (netlist : Netlist.t) (locmap : Loc.map) =
  let building : (string, int ref * (int * Frame_index.key * int * int) list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  Array.iteri
    (fun i (site : Loc.ff_site) ->
      let name, bit = netlist.Netlist.ff_names.(i) in
      if select name then begin
        let minor, word, fbit = Loc.ff_frame_bit site in
        let key = (site.Loc.f_slr, site.Loc.f_row, site.Loc.f_col, minor) in
        match Hashtbl.find_opt building name with
        | Some (width, sites) ->
          if bit + 1 > !width then width := bit + 1;
          sites := (bit, key, word, fbit) :: !sites
        | None ->
          Hashtbl.add building name (ref (max 1 (bit + 1)), ref [ (bit, key, word, fbit) ])
      end)
    locmap.Loc.ff_sites;
  let sm_regs = Hashtbl.create (Hashtbl.length building) in
  Hashtbl.iter
    (fun name (width, sites) ->
      let cols = Hashtbl.create 4 in
      List.iter
        (fun (_, (slr, row, col, _), _, _) -> Hashtbl.replace cols (slr, row, col) ())
        !sites;
      Hashtbl.add sm_regs name
        {
          re_width = !width;
          re_sites = Array.of_list (List.rev !sites);
          re_cols = Hashtbl.fold (fun c () acc -> c :: acc) cols [];
        })
    building;
  let sm_reg_names =
    let a = Array.make (Hashtbl.length sm_regs) "" in
    let i = ref 0 in
    Hashtbl.iter (fun name _ -> a.(!i) <- name; incr i) sm_regs;
    Array.sort compare a;
    a
  in
  let sm_mems = Hashtbl.create 16 in
  let sm_mem_cols =
    Array.mapi
      (fun mi placement ->
        let name = netlist.Netlist.mems.(mi).Netlist.mem_name in
        if not (select name) then []
        else begin
          Hashtbl.replace sm_mems name mi;
          let cols = Hashtbl.create 4 in
          (match placement with
          | Loc.In_bram sites ->
            Array.iter
              (fun (s : Loc.bram_site) ->
                Hashtbl.replace cols (s.Loc.b_slr, s.Loc.b_row, s.Loc.b_col) ())
              sites
          | Loc.In_lutram sites ->
            Array.iter
              (fun (s : Loc.lut_site) ->
                Hashtbl.replace cols (s.Loc.l_slr, s.Loc.l_row, s.Loc.l_col) ())
              sites);
          Hashtbl.fold (fun c () acc -> c :: acc) cols []
        end)
      locmap.Loc.mem_placements
  in
  { sm_device = device; sm_netlist = netlist; sm_locmap = locmap;
    sm_regs; sm_reg_names; sm_mems; sm_mem_cols }

let register_names sm = Array.to_list sm.sm_reg_names

let register_width sm name =
  Option.map (fun e -> e.re_width) (Hashtbl.find_opt sm.sm_regs name)

let known_register sm name = Hashtbl.mem sm.sm_regs name

let known_memory sm name = Hashtbl.mem sm.sm_mems name

(* --- planning (§4.6) -------------------------------------------------- *)

(** The minimal frame set covering every FF/memory whose name satisfies
    [select] — the SLR-aware plan of Table 3, from the precomputed map. *)
let plan_of_select sm ~select =
  let cols = Hashtbl.create 64 in
  let matched = ref [] in
  Array.iter
    (fun name ->
      if select name then begin
        matched := name :: !matched;
        List.iter
          (fun c -> Hashtbl.replace cols c ())
          (Hashtbl.find sm.sm_regs name).re_cols
      end)
    sm.sm_reg_names;
  Array.iteri
    (fun mi (m : Netlist.mem) ->
      if select m.Netlist.mem_name then
        List.iter (fun c -> Hashtbl.replace cols c ()) sm.sm_mem_cols.(mi))
    sm.sm_netlist.Netlist.mems;
  (* [sm_reg_names] is sorted, so the reversed accumulator is too. *)
  let selected = Array.of_list (List.rev !matched) in
  plan_of_columns ~selected sm.sm_device cols

(** Plan covering exactly the named registers/memories.
    @raise Readback_error when any name is unknown. *)
let plan_of_names sm names =
  let unknown =
    List.filter (fun n -> not (known_register sm n || known_memory sm n)) names
  in
  (match unknown with
  | [] -> ()
  | l ->
    readback_error "unknown register or memory name%s: %s"
      (if List.length l > 1 then "s" else "")
      (String.concat ", " (List.map (Printf.sprintf "%S") l)));
  let cols = Hashtbl.create 16 in
  List.iter
    (fun name ->
      (match Hashtbl.find_opt sm.sm_regs name with
      | Some e -> List.iter (fun c -> Hashtbl.replace cols c ()) e.re_cols
      | None -> ());
      match Hashtbl.find_opt sm.sm_mems name with
      | Some mi -> List.iter (fun c -> Hashtbl.replace cols c ()) sm.sm_mem_cols.(mi)
      | None -> ())
    names;
  let selected =
    Array.of_list (List.sort_uniq compare (List.filter (known_register sm) names))
  in
  plan_of_columns ~selected sm.sm_device cols

(** Union of several plans, deduplicating shared columns — the coalescing
    primitive: k clients' overlapping selections become one sweep whose
    frame count is the size of the union, not the sum.  A column present
    in several plans is kept once with the largest frame count; [selected]
    survives only when every input plan carries it (one anonymous plan
    forces full-design extraction semantics). *)
let merge_plans plans =
  let cols = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun c ->
          let key = (c.c_slr, c.c_row, c.c_col) in
          match Hashtbl.find_opt cols key with
          | Some frames when frames >= c.c_frames -> ()
          | _ -> Hashtbl.replace cols key c.c_frames)
        p.columns)
    plans;
  let columns =
    Hashtbl.fold
      (fun (slr, row, col) frames acc ->
        { c_slr = slr; c_row = row; c_col = col; c_frames = frames } :: acc)
      cols []
    |> List.sort compare
  in
  let selected =
    let rec union acc = function
      | [] -> Some (Array.of_list (List.sort_uniq compare acc))
      | { selected = None; _ } :: _ -> None
      | { selected = Some names; _ } :: rest ->
        union (Array.to_list names @ acc) rest
    in
    union [] plans
  in
  { columns;
    total_frames = List.fold_left (fun a c -> a + c.c_frames) 0 columns;
    selected }

(* Columns containing any FF (or memory site) whose register name passes
   [select] — compatibility entry point; builds a throwaway site map. *)
let plan_for device (netlist : Netlist.t) (locmap : Loc.map) ~select =
  plan_of_select (site_map device netlist locmap) ~select

(** Unoptimized plan: every frame of SLR [slr] (what a naive tool reads). *)
let full_slr_plan device ~slr =
  let s = Device.slr device slr in
  let columns = ref [] in
  for row = s.Device.region_rows - 1 downto 0 do
    for col = Array.length s.Device.layout.Geometry.columns - 1 downto 0 do
      columns :=
        { c_slr = slr; c_row = row; c_col = col;
          c_frames = frames_in_column device ~slr ~col }
        :: !columns
    done
  done;
  {
    columns = !columns;
    total_frames = List.fold_left (fun a c -> a + c.c_frames) 0 !columns;
    selected = None;
  }

let hops_to device slr =
  let n = Device.num_slrs device in
  (slr - device.Device.primary + n) mod n

let plan_slrs plan =
  List.sort_uniq compare (List.map (fun c -> c.c_slr) plan.columns)

(* Clear the CTL0 GSR-mask bit on [slr] (§4.7: partial reconfiguration does
   not restore it; readback must not be restricted to the dynamic region). *)
let emit_clear_mask prog = Program.set_ctl0 prog ~mask:1 ~value:0

(* --- frame transport --------------------------------------------------- *)

(* The word stream the [slr] part of [plan] executes — one sweep: sync,
   hop to the owning SLR, clear the GSR mask, GCAPTURE, a FAR write and
   frame read per column, desync.  Factored out of the executor so the
   pricing path below prices exactly the words the board will see; the
   two can only drift if this function does. *)
let sweep_program device plan ~slr =
  let cols = List.filter (fun c -> c.c_slr = slr) plan.columns in
  if cols = [] then None
  else begin
    let prog = Program.create () in
    Program.sync prog;
    Program.select_slr prog ~hops:(hops_to device slr);
    emit_clear_mask prog;
    Program.gcapture prog;
    List.iter
      (fun c ->
        Program.set_far prog ~row:c.c_row ~col:c.c_col ~minor:0;
        Program.read_frames prog ~words:(c.c_frames * Geometry.words_per_frame))
      cols;
    Program.desync prog;
    Some (cols, Program.words prog)
  end

(** Modeled standalone cost of the [slr] part of [plan]: the exact word
    stream the executor would emit, priced through the transport meter's
    cost function ({!Board.price_stream}).  0 when the plan has no
    columns on [slr]. *)
let slr_sweep_cost board plan ~slr =
  match sweep_program (Board.device board) plan ~slr with
  | None -> 0.0
  | Some (_, words) -> Board.price_stream words

(** Modeled standalone cost of executing [plan] alone: per-SLR sweep
    prices summed in execution order — the same per-transfer batching the
    meter itself accumulates, so this equals the {!Board.jtag_seconds}
    delta a lone execution of the plan produces. *)
let plan_cost board plan =
  List.fold_left
    (fun acc slr -> acc +. slr_sweep_cost board plan ~slr)
    0.0 (plan_slrs plan)

(* Read all frames of the plan's columns on one SLR, capturing live state
   first, and slice the response into [into] keyed by full frame address. *)
let read_slr_frames_into into board plan ~slr =
  match sweep_program (Board.device board) plan ~slr with
  | None -> ()
  | Some (cols, words) ->
    let data =
      Obs.span ~cat:"readback"
        ~mclock:(fun () -> Board.jtag_seconds board)
        (Printf.sprintf "readback.sweep slr%d" slr)
        (fun () -> Board.execute board words)
    in
    (* Slice the response back into frames, in request order. *)
    let pos = ref 0 in
    List.iter
      (fun c ->
        for minor = 0 to c.c_frames - 1 do
          let w = Array.sub data !pos Geometry.words_per_frame in
          pos := !pos + Geometry.words_per_frame;
          Frame_index.add into (slr, c.c_row, c.c_col, minor) w
        done)
      cols

(** Execute the [slr] part of a plan: GCAPTURE, hop to the SLR, read each
    column; returns the indexed frame response. *)
let read_slr_frames board plan ~slr =
  let idx = Frame_index.create () in
  read_slr_frames_into idx board plan ~slr;
  idx

(** Execute a whole plan, SLR by SLR, into one frame index. *)
let read_plan_frames board plan =
  Obs.span ~cat:"readback"
    ~mclock:(fun () -> Board.jtag_seconds board)
    "readback.plan"
    (fun () ->
      let idx = Frame_index.create () in
      List.iter
        (fun slr -> read_slr_frames_into idx board plan ~slr)
        (plan_slrs plan);
      idx)

(* Emit the write-back half of a read-modify-write: address each frame of
   one SLR and push its (modified) words, then GRESTORE. *)
let write_slr_frames board frames ~slr =
  let device = Board.device board in
  let prog = Program.create () in
  Program.sync prog;
  Program.select_slr prog ~hops:(hops_to device slr);
  emit_clear_mask prog;
  Frame_index.iter
    (fun (s, row, col, minor) words ->
      if s = slr then begin
        Program.set_far prog ~row ~col ~minor;
        Program.write_frames prog [ words ]
      end)
    frames;
  Program.grestore prog;
  Program.desync prog;
  ignore (Board.execute board (Program.words prog))

(* --- register extraction ---------------------------------------------- *)

(** Pure host-side parse: reassemble every register satisfying [select]
    from an indexed frame response.  Lookup-O(1) per FF bit.
    @raise Readback_error when a selected register has any bit whose frame
    is absent from the response — partial coverage must never read back as
    silent zeros. *)
(* Consecutive bits of a register usually live in the same frame, so one
   (key -> words) memo per register removes most hashtable traffic. *)
let extract_over names sm frames ~select =
  let out = ref [] in
  Array.iter
    (fun name ->
      if select name then begin
        let e = Hashtbl.find sm.sm_regs name in
        let v = Zoomie_rtl.Bits.zero e.re_width in
        let last_key = ref (-1, -1, -1, -1) in
        let last_words = ref [||] in
        Array.iter
          (fun (bit, key, word, fbit) ->
            if key <> !last_key then begin
              (match Frame_index.find frames key with
              | Some words -> last_words := words
              | None ->
                let slr, row, col, minor = key in
                readback_error
                  "register %S bit %d not covered by the readback plan (frame \
                   slr=%d row=%d col=%d minor=%d missing from the response)"
                  name bit slr row col minor);
              last_key := key
            end;
            if ((!last_words).(word) lsr fbit) land 1 = 1 then
              Zoomie_rtl.Bits.set_inplace v bit true)
          e.re_sites;
        out := (name, v) :: !out
      end)
    names;
  List.rev !out

let extract_registers sm frames ~select = extract_over sm.sm_reg_names sm frames ~select

(** Demultiplex one client's register list out of a (possibly merged)
    frame response: validate the names, then extract exactly those — the
    per-session half of a coalesced sweep.
    @raise Readback_error on an unknown name or a frame the response does
    not cover. *)
let extract_registers_named sm frames ~names =
  (match List.filter (fun n -> not (known_register sm n)) names with
  | [] -> ()
  | bad ->
    readback_error "unknown register%s: %s"
      (if List.length bad > 1 then "s" else "")
      (String.concat ", " (List.map (Printf.sprintf "%S") bad)));
  let ordered = Array.of_list (List.sort_uniq compare names) in
  extract_over ordered sm frames ~select:(fun _ -> true)

(** Execute a readback plan against a prebuilt site map: register name ->
    value for every FF passing [select].  When the plan records the names
    it was derived from ({!plan_of_select}/{!plan_of_names}), only those
    registers are considered — [select] must not widen beyond the plan.
    @raise Readback_error when the plan does not fully cover a selected
    register. *)
let read_registers_indexed board sm plan ~select =
  let names =
    match plan.selected with Some a -> a | None -> sm.sm_reg_names
  in
  extract_over names sm (read_plan_frames board plan) ~select

(** Compatibility entry point (rebuilds the site map each call). *)
let read_registers board (netlist : Netlist.t) (locmap : Loc.map) plan ~select =
  read_registers_indexed board (site_map (Board.device board) netlist locmap) plan ~select

(* --- register injection ------------------------------------------------ *)

(** Inject new values into registers: capture, rewrite the owning frames,
    restore (§3.3).  [updates] maps full hierarchical register names to new
    values.  All names are validated up front:
    @raise Readback_error when any update names an unknown register. *)
let inject_registers_indexed board sm (updates : (string * Zoomie_rtl.Bits.t) list) =
  (match List.filter (fun (n, _) -> not (known_register sm n)) updates with
  | [] -> ()
  | bad ->
    readback_error "inject_registers: unknown register%s %s"
      (if List.length bad > 1 then "s" else "")
      (String.concat ", " (List.map (fun (n, _) -> Printf.sprintf "%S" n) bad)));
  let plan = plan_of_names sm (List.map fst updates) in
  List.iter
    (fun slr ->
      (* Capture + read the affected frames (fresh arrays: safe to edit). *)
      let frames = read_slr_frames board plan ~slr in
      (* Modify the FF bits we own. *)
      List.iter
        (fun (name, v) ->
          let e = Hashtbl.find sm.sm_regs name in
          Array.iter
            (fun (bit, key, word, fbit) ->
              let s, row, col, minor = key in
              if s = slr && bit < Zoomie_rtl.Bits.width v then
                if
                  not
                    (Frame_index.set_bit frames key ~word ~bit:fbit
                       (Zoomie_rtl.Bits.get v bit))
                then
                  readback_error
                    "inject_registers: frame slr=%d row=%d col=%d minor=%d of \
                     register %S missing from the capture response"
                    s row col minor name)
            e.re_sites)
        updates;
      (* Write back and restore. *)
      write_slr_frames board frames ~slr)
    (plan_slrs plan)

(** Compatibility entry point (rebuilds the site map each call). *)
let inject_registers board (netlist : Netlist.t) (locmap : Loc.map) updates =
  inject_registers_indexed board (site_map (Board.device board) netlist locmap) updates

(** Full-state snapshot of the planned columns (registers and memories, as
    raw frames) — replayable later with {!restore_snapshot} (§3.3). *)
type snapshot = {
  snap_frames : Frame_index.t;
  snap_cycle : int;
}

let take_snapshot board plan =
  {
    snap_frames = read_plan_frames board plan;
    snap_cycle = Board.fpga_cycles board;
  }

let restore_snapshot board (snap : snapshot) =
  let device = Board.device board in
  List.iter
    (fun slr ->
      let prog = Program.create () in
      Program.sync prog;
      Program.select_slr prog ~hops:(hops_to device slr);
      emit_clear_mask prog;
      (* Refresh all frames with the current live state first, so the
         GRESTORE below only changes what the snapshot covers — "leaving
         untouched regions intact" (§4.7). *)
      Program.gcapture prog;
      Frame_index.iter
        (fun (s, row, col, minor) words ->
          if s = slr then begin
            Program.set_far prog ~row ~col ~minor;
            Program.write_frames prog [ words ]
          end)
        snap.snap_frames;
      Program.grestore prog;
      Program.desync prog;
      ignore (Board.execute board (Program.words prog)))
    (Frame_index.slrs snap.snap_frames)

(* --- snapshot persistence ------------------------------------------- *)

(* A simple self-describing binary format (magic + version + counted
   sections), so long-running emulation campaigns can bank snapshots on
   disk and replay them later (§3.3's trillions-of-cycles use case).

   v1 stored the cycle counter as a single 32-bit field, which truncated
   campaigns past 2³¹ cycles; v2 stores it as two 32-bit halves.  v1 files
   still load (with the cycle masked to its unsigned 32-bit value). *)

let snapshot_magic = 0x5A4F4F4D (* "ZOOM" *)
let snapshot_version = 2

(** Emit one snapshot onto an (already binary-mode) channel — the
    building block {!save_snapshot} wraps, also used by recorder formats
    that embed checkpoints inline in a larger stream. *)
let output_snapshot oc (snap : snapshot) =
  let w32 v = output_binary_int oc v in
  w32 snapshot_magic;
  w32 snapshot_version;
  (* Cycle counter as (high, low) 32-bit halves: §3.3 campaigns run for
     trillions of cycles, far past what one output_binary_int holds. *)
  w32 ((snap.snap_cycle lsr 32) land 0xFFFFFFFF);
  w32 (snap.snap_cycle land 0xFFFFFFFF);
  let slrs = Frame_index.slrs snap.snap_frames in
  w32 (List.length slrs);
  List.iter
    (fun slr ->
      let frames = Frame_index.to_assoc snap.snap_frames ~slr in
      w32 slr;
      w32 (List.length frames);
      List.iter
        (fun ((row, col, minor), words) ->
          w32 row;
          w32 col;
          w32 minor;
          w32 (Array.length words);
          Array.iter w32 words)
        frames)
    slrs

let save_snapshot (snap : snapshot) path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_snapshot oc snap)

exception Bad_snapshot of string

(** Read one snapshot back off a channel, leaving the channel positioned
    just past it — the inverse of {!output_snapshot}.
    @raise Bad_snapshot on truncation or a bad magic/version. *)
let input_snapshot ic : snapshot =
  let r32 () =
    try input_binary_int ic
    with End_of_file -> raise (Bad_snapshot "truncated snapshot")
  in
  if r32 () <> snapshot_magic then raise (Bad_snapshot "bad magic");
  let version = r32 () in
  let snap_cycle =
    match version with
    | 1 ->
      (* v1: one signed 32-bit field; mask to the unsigned value the
         writer actually recorded. *)
      r32 () land 0xFFFFFFFF
    | 2 ->
      let hi = r32 () land 0xFFFFFFFF in
      let lo = r32 () land 0xFFFFFFFF in
      (hi lsl 32) lor lo
    | _ -> raise (Bad_snapshot "bad version")
  in
  let n_slrs = r32 () in
  let snap_frames = Frame_index.create () in
  for _ = 1 to n_slrs do
    let slr = r32 () in
    let n = r32 () in
    for _ = 1 to n do
      let row = r32 () in
      let col = r32 () in
      let minor = r32 () in
      let len = r32 () in
      Frame_index.add snap_frames (slr, row, col, minor)
        (Array.init len (fun _ -> r32 () land 0xFFFFFFFF))
    done
  done;
  { snap_frames; snap_cycle }

let load_snapshot path : snapshot =
  let ic =
    try open_in_bin path with Sys_error msg -> raise (Bad_snapshot msg)
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_snapshot ic)

(* --- memory contents (3.2/3.3 cover memories, not just registers) ---- *)

(* Frame location of one memory bit, given its placement. *)
let mem_bit_location (m : Netlist.mem) placement ~addr ~bit =
  match placement with
  | Loc.In_bram sites ->
    let width_blocks = (m.Netlist.mem_width + 35) / 36 in
    let brow, bcol, within =
      Loc.bram_bit_position ~depth:m.Netlist.mem_depth ~addr ~bit
    in
    let ordinal = (brow * width_blocks) + bcol in
    if ordinal >= Array.length sites then None
    else begin
      let site = sites.(ordinal) in
      let minor, word, fbit = Geometry.bram_location ~tile:site.Loc.b_tile ~bit:within in
      Some ((site.Loc.b_slr, site.Loc.b_row, site.Loc.b_col, minor), word, fbit)
    end
  | Loc.In_lutram sites ->
    let depth_units = (m.Netlist.mem_depth + 63) / 64 in
    let depth_unit, bitcol, within = Loc.lutram_bit_position ~addr ~bit in
    let ordinal = (bitcol * depth_units) + depth_unit in
    if ordinal >= Array.length sites then None
    else begin
      let site = sites.(ordinal) in
      let minor, word, fbit =
        Geometry.lut_location ~tile:site.Loc.l_tile ~site:site.Loc.l_index
          ~bit:within
      in
      Some ((site.Loc.l_slr, site.Loc.l_row, site.Loc.l_col, minor), word, fbit)
    end

(* Memory lookup by name. @raise Readback_error when unknown. *)
let find_mem_indexed sm name =
  match Hashtbl.find_opt sm.sm_mems name with
  | Some mi -> (mi, sm.sm_netlist.Netlist.mems.(mi))
  | None -> readback_error "unknown memory %S" name

(* Plan covering exactly one placed memory. *)
let mem_plan sm mi =
  let cols = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace cols c ()) sm.sm_mem_cols.(mi);
  plan_of_columns sm.sm_device cols

(** Read the full contents of memory [name] through capture + frame
    readback.  @raise Readback_error when the name is unknown or a frame
    holding memory state is missing from the response. *)
let read_memory_indexed board sm ~name =
  let mi, m = find_mem_indexed sm name in
  let placement = sm.sm_locmap.Loc.mem_placements.(mi) in
  let frames = read_plan_frames board (mem_plan sm mi) in
  Array.init m.Netlist.mem_depth (fun addr ->
      let v = Zoomie_rtl.Bits.zero m.Netlist.mem_width in
      for bit = 0 to m.Netlist.mem_width - 1 do
        match mem_bit_location m placement ~addr ~bit with
        | None -> ()
        | Some (key, word, fbit) -> (
          match Frame_index.bit frames key ~word ~bit:fbit with
          | Some b -> if b then Zoomie_rtl.Bits.set_inplace v bit true
          | None ->
            let slr, row, col, minor = key in
            readback_error
              "memory %S bit (%d,%d) not covered by the readback plan (frame \
               slr=%d row=%d col=%d minor=%d missing from the response)"
              name addr bit slr row col minor)
      done;
      v)

let read_memory board (netlist : Netlist.t) (locmap : Loc.map) ~name =
  read_memory_indexed board (site_map (Board.device board) netlist locmap) ~name

(** Overwrite memory words (capture, rewrite frames, restore).  [updates]
    maps addresses to new values.
    @raise Readback_error when the name is unknown. *)
let inject_memory_indexed board sm ~name (updates : (int * Zoomie_rtl.Bits.t) list) =
  let mi, m = find_mem_indexed sm name in
  let placement = sm.sm_locmap.Loc.mem_placements.(mi) in
  let plan = mem_plan sm mi in
  List.iter
    (fun (addr, _) ->
      if addr < 0 || addr >= m.Netlist.mem_depth then
        invalid_arg "Readback.inject_memory: address out of range")
    updates;
  List.iter
    (fun slr ->
      let frames = read_slr_frames board plan ~slr in
      List.iter
        (fun (addr, value) ->
          for bit = 0 to m.Netlist.mem_width - 1 do
            match mem_bit_location m placement ~addr ~bit with
            | Some (((s, _, _, _) as key), word, fbit) when s = slr ->
              let v =
                bit < Zoomie_rtl.Bits.width value && Zoomie_rtl.Bits.get value bit
              in
              ignore (Frame_index.set_bit frames key ~word ~bit:fbit v)
            | _ -> ()
          done)
        updates;
      write_slr_frames board frames ~slr)
    (plan_slrs plan)

let inject_memory board (netlist : Netlist.t) (locmap : Loc.map) ~name updates =
  inject_memory_indexed board (site_map (Board.device board) netlist locmap) ~name updates
