(** The simulated FPGA board: a chiplet device, one configuration
    microcontroller per SLR connected in a ring, and the currently loaded
    design executing in a netlist simulator.

    The chain dispatcher implements the §4.4 discovery: a run of [k]
    consecutive empty BOUT writes directs subsequent JTAG operations to the
    SLR [k] hops from the primary, until another BOUT run appears.  All JTAG
    traffic is accounted against the {!Jtag} timing model, giving the
    readback measurements of Table 3. *)

open Zoomie_fabric
module Netsim = Zoomie_synth.Netsim
module Netsim_batch = Zoomie_synth.Netsim_batch
module Netlist = Zoomie_synth.Netlist

type payload = {
  netlist : Netlist.t;
  locmap : Loc.map;
  clock_root : string;
  freq_mhz : float;
}

type bitstream = {
  bs_words : int array;
  bs_payload : payload option;
  bs_partial : bool;
  bs_dynamic : Region.t list;  (** regions being reconfigured *)
}

(* One memory's bits resident in one configuration frame: a BRAM block's
   content frame [k], or one LUTRAM site's 64-entry slice.  A segment is
   expanded bit by bit only when a frame is filled or restored (see
   [iter_segment]), so the index costs one entry per site and frame, not
   one per memory bit. *)
type mem_segment =
  | Bram_seg of { mi : int; block_row : int; block_col : int; k : int }
  | Lutram_seg of { mi : int; bit : int; depth_unit : int; tile : int }

(* State bits resident in one configuration frame — the inverse of the
   locmap walks below, precomputed per design so capture/restore touch
   only the frames a readback actually transfers instead of sweeping
   every state bit on the SLR. *)
type frame_bits = {
  fb_ffs : (int * int * int) array;  (* ff index, frame word, frame bit *)
  fb_mems : mem_segment array;
}

type t = {
  device : Device.t;
  ucs : Uc.t array;
  mutable design : (payload * Netsim.t) option;
  mutable batch : Netsim_batch.t option;  (* lazy 63-lane shadow model *)
  mutable dynamic_regions : Region.t list;
  meter : Jtag.Meter.t;
  mutable fpga_cycles : int;
  mutable lease : string option;
  mutable state_index :
    (payload * (int * int * int, frame_bits) Hashtbl.t array) option;
      (* per-SLR frame-key -> state-bits map for the keyed payload *)
  mutable cable_scale : float;
      (* wall seconds slept per modeled cable second during execute;
         0 = pure model (default) *)
  mutable cable_debt : float;
      (* accumulated unslept cable wall time; paid off in >=5ms chunks
         so sub-millisecond transfers don't each eat a scheduler tick *)
}

let device t = t.device
let jtag_seconds t = Jtag.Meter.seconds t.meter
let meter t = t.meter
let fpga_cycles t = t.fpga_cycles

(* Wall-clock cable emulation: when set, every execute sleeps
   [cable_scale] wall seconds per modeled cable second it charged.  The
   transport is the resource a debug farm shards — one cable per board,
   transfers overlapping across boards but serial on each — so a farm
   harness enables this to make cable occupancy real to the scheduler.
   Off (0.0) everywhere else: the model stays purely virtual-time. *)
let set_cable_scale t s = t.cable_scale <- max 0.0 s
let cable_scale t = t.cable_scale

(* --- ownership lease (advisory, for multi-session front-ends) --- *)

let lease_owner t = t.lease

let acquire_lease t ~owner =
  match t.lease with
  | None ->
    t.lease <- Some owner;
    Ok ()
  | Some o when o = owner -> Ok ()
  | Some o -> Error (Printf.sprintf "board leased by %S" o)

let release_lease t ~owner =
  match t.lease with
  | Some o when o = owner -> t.lease <- None
  | _ -> ()

(* --- cable transfer accounting (batched-sweep bookkeeping) --- *)

let transfer_count t = Jtag.Meter.transfers t.meter
let words_transferred t = (Jtag.Meter.counts t.meter).Jtag.Meter.m_words

let netsim t =
  match t.design with
  | Some (_, sim) -> sim
  | None -> invalid_arg "Board: no design loaded"

let payload t =
  match t.design with
  | Some (p, _) -> p
  | None -> invalid_arg "Board: no design loaded"

(* The 63-lane shadow model of the loaded design, compiled lazily on
   first use and dropped whenever (re)configuration replaces the design.
   It runs off-cable: a fuzz farm stepping 63 stimulus scenarios per
   settle against the same netlist the board executes, without charging
   the JTAG meter or the board's cycle clock. *)
let batch_sim t =
  match t.batch with
  | Some b -> b
  | None ->
    let p =
      match t.design with
      | Some (p, _) -> p
      | None -> invalid_arg "Board: no design loaded"
    in
    let b = Netsim_batch.create p.netlist in
    t.batch <- Some b;
    b

let run_batch t cycles =
  let p =
    match t.design with
    | Some (p, _) -> p
    | None -> invalid_arg "Board: no design loaded"
  in
  Netsim_batch.step ~n:cycles (batch_sim t) p.clock_root

let uc t i = t.ucs.(i)

(* Iterate FF cells resident on SLR [slr]; honors the CTL0 GSR/capture
   restriction when set. *)
let iter_slr_ffs t ~slr f =
  match t.design with
  | None -> ()
  | Some (p, sim) ->
    let restricted = Uc.gsr_restricted t.ucs.(slr) in
    Array.iteri
      (fun i (site : Loc.ff_site) ->
        if site.f_slr = slr then
          let visible =
            (not restricted)
            || Region.contains_any t.dynamic_regions ~slr ~row:site.f_row
                 ~col:site.f_col
          in
          if visible then f i site sim)
      p.locmap.Loc.ff_sites

let iter_slr_mem_bits t ~slr f =
  match t.design with
  | None -> ()
  | Some (p, sim) ->
    let restricted = Uc.gsr_restricted t.ucs.(slr) in
    Array.iteri
      (fun mi placement ->
        let m = p.netlist.Netlist.mems.(mi) in
        match placement with
        | Loc.In_bram sites ->
          let width_blocks = (m.Netlist.mem_width + 35) / 36 in
          for addr = 0 to m.Netlist.mem_depth - 1 do
            for bit = 0 to m.Netlist.mem_width - 1 do
              let brow, bcol, within =
                Loc.bram_bit_position ~depth:m.Netlist.mem_depth ~addr ~bit
              in
              let ordinal = (brow * width_blocks) + bcol in
              if ordinal < Array.length sites then begin
                let site = sites.(ordinal) in
                if site.Loc.b_slr = slr then
                  let visible =
                    (not restricted)
                    || Region.contains_any t.dynamic_regions ~slr
                         ~row:site.Loc.b_row ~col:site.Loc.b_col
                  in
                  if visible then
                    let minor, word, fbit =
                      Geometry.bram_location ~tile:site.Loc.b_tile ~bit:within
                    in
                    f ~mi ~addr ~bit
                      ~key:(site.Loc.b_row, site.Loc.b_col, minor)
                      ~word ~fbit sim
              end
            done
          done
        | Loc.In_lutram sites ->
          let depth_units = (m.Netlist.mem_depth + 63) / 64 in
          for addr = 0 to m.Netlist.mem_depth - 1 do
            for bit = 0 to m.Netlist.mem_width - 1 do
              let depth_unit, bitcol, within = Loc.lutram_bit_position ~addr ~bit in
              let ordinal = (bitcol * depth_units) + depth_unit in
              if ordinal < Array.length sites then begin
                let site = sites.(ordinal) in
                if site.Loc.l_slr = slr then
                  let visible =
                    (not restricted)
                    || Region.contains_any t.dynamic_regions ~slr
                         ~row:site.Loc.l_row ~col:site.Loc.l_col
                  in
                  if visible then
                    let minor, word, fbit =
                      Geometry.lut_location ~tile:site.Loc.l_tile
                        ~site:site.Loc.l_index ~bit:within
                    in
                    f ~mi ~addr ~bit
                      ~key:(site.Loc.l_row, site.Loc.l_col, minor)
                      ~word ~fbit sim
              end
            done
          done)
      p.locmap.Loc.mem_placements

(* --- frame-key -> state-bits reverse index ----------------------------- *)

let bram_bits_per_frame = Geometry.words_per_frame * 32

(* The LUTRAM word path: a [Lutram_seg]'s 64 entries are two 32-entry
   halves, frame words [2*tile] and [2*tile + 1], entry [addr0 + a] at
   frame bit [a].  [f mi bit word addr0 mask] runs once per half holding
   at least one entry; [mask] covers the entries inside the depth. *)
let iter_lutram_halves (mems : Netlist.mem array) ~mi ~bit ~depth_unit ~tile f =
  let m = mems.(mi) in
  if bit < m.Netlist.mem_width then
    for h = 0 to 1 do
      let addr0 = (depth_unit * 64) + (h * 32) in
      let n = min 32 (m.Netlist.mem_depth - addr0) in
      if n > 0 then f mi bit ((2 * tile) + h) addr0 ((1 lsl n) - 1)
    done

(* The closed-form inverse of [Loc.bram_bit_position]/[Geometry.bram_location]
   and [Loc.lutram_bit_position]/[Geometry.lut_location]: call
   [f mi addr bit word fbit] for every bit of the segment that lies inside
   the memory's depth and width.  BRAM frame [k] of a block holds content
   bits [w] in [k*4096, (k+1)*4096); [w] is entry [w/36], bit [w mod 36]
   of the block, walked here row by row so no bit pays a division. *)
let iter_segment (mems : Netlist.mem array) seg f =
  match seg with
  | Bram_seg { mi; block_row; block_col; k } ->
    let m = mems.(mi) in
    let rows = min 1024 (m.Netlist.mem_depth - (block_row * 1024)) in
    let cols = min 36 (m.Netlist.mem_width - (block_col * 36)) in
    let addr0 = block_row * 1024 and bit0 = block_col * 36 in
    let w0 = k * bram_bits_per_frame in
    let w_last = w0 + bram_bits_per_frame - 1 in
    for r = w0 / 36 to min (rows - 1) (w_last / 36) do
      let base = r * 36 in
      for c = max 0 (w0 - base) to min (cols - 1) (w_last - base) do
        let off = base + c - w0 in
        f mi (addr0 + r) (bit0 + c) (off lsr 5) (off land 31)
      done
    done
  | Lutram_seg { mi; bit; depth_unit; tile } ->
    iter_lutram_halves mems ~mi ~bit ~depth_unit ~tile (fun mi bit word addr0 mask ->
        for a = 0 to 31 do
          if (mask lsr a) land 1 = 1 then f mi (addr0 + a) bit word a
        done)

let segment_nonempty mems seg =
  match iter_segment mems seg (fun _ _ _ _ _ -> raise_notrace Exit) with
  | () -> false
  | exception Exit -> true

(* One walk over the whole design (all SLRs at once), covering the bits
   of [iter_slr_ffs]/[iter_slr_mem_bits] exactly: FFs one by one,
   memories one segment per (site, frame) holding at least one bit.
   Visibility (GSR restriction + dynamic regions) is NOT baked in: it
   depends on runtime CTL0 state, and every site in a frame shares the
   frame key's (row, col), so the filter collapses to one check per frame
   at use time. *)
let build_state_index t (p : payload) =
  let n = Array.length t.ucs in
  let tmp = Array.init n (fun _ -> Hashtbl.create 1024) in
  let cell slr key =
    let tbl = tmp.(slr) in
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
      let c = (ref [], ref []) in
      Hashtbl.add tbl key c;
      c
  in
  Array.iteri
    (fun i (site : Loc.ff_site) ->
      let minor, word, bit = Loc.ff_frame_bit site in
      let ffs, _ = cell site.Loc.f_slr (site.Loc.f_row, site.Loc.f_col, minor) in
      ffs := (i, word, bit) :: !ffs)
    p.locmap.Loc.ff_sites;
  let mems = p.netlist.Netlist.mems in
  let add slr key seg =
    if segment_nonempty mems seg then begin
      let _, segs = cell slr key in
      segs := seg :: !segs
    end
  in
  Array.iteri
    (fun mi placement ->
      let m = mems.(mi) in
      match placement with
      | Loc.In_bram sites ->
        let width_blocks = (m.Netlist.mem_width + 35) / 36 in
        if width_blocks > 0 then
          Array.iteri
            (fun ordinal (site : Loc.bram_site) ->
              let block_row = ordinal / width_blocks in
              let block_col = ordinal mod width_blocks in
              for k = 0 to Geometry.bram_content_frames_per_tile - 1 do
                let minor, _, _ =
                  Geometry.bram_location ~tile:site.Loc.b_tile
                    ~bit:(k * bram_bits_per_frame)
                in
                add site.Loc.b_slr
                  (site.Loc.b_row, site.Loc.b_col, minor)
                  (Bram_seg { mi; block_row; block_col; k })
              done)
            sites
      | Loc.In_lutram sites ->
        let depth_units = (m.Netlist.mem_depth + 63) / 64 in
        if depth_units > 0 then
          Array.iteri
            (fun ordinal (site : Loc.lut_site) ->
              let minor, _, _ =
                Geometry.lut_location ~tile:site.Loc.l_tile
                  ~site:site.Loc.l_index ~bit:0
              in
              add site.Loc.l_slr
                (site.Loc.l_row, site.Loc.l_col, minor)
                (Lutram_seg
                   {
                     mi;
                     bit = ordinal / depth_units;
                     depth_unit = ordinal mod depth_units;
                     tile = site.Loc.l_tile;
                   }))
            sites)
    p.locmap.Loc.mem_placements;
  Array.map
    (fun tbl ->
      let out = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
      Hashtbl.iter
        (fun key (ffs, segs) ->
          Hashtbl.add out key
            {
              fb_ffs = Array.of_list (List.rev !ffs);
              fb_mems = Array.of_list (List.rev !segs);
            })
        tbl;
      out)
    tmp

(* Keyed on the payload's physical identity: (re)configuration installs a
   fresh payload, which invalidates the cache by construction. *)
let state_index t (p : payload) =
  match t.state_index with
  | Some (p', idx) when p' == p -> idx
  | _ ->
    let idx = build_state_index t p in
    t.state_index <- Some (p, idx);
    idx

let frame_index t = state_index t (payload t)

(* Every site in a frame shares the key's (row, col), so the GSR
   restriction check of [iter_slr_ffs]/[iter_slr_mem_bits] is one test
   per frame here. *)
let frame_visible t ~slr key =
  (not (Uc.gsr_restricted t.ucs.(slr)))
  ||
  let row, col, _ = key in
  Region.contains_any t.dynamic_regions ~slr ~row ~col

let put_bit (frame : int array) word bit v =
  let m = 1 lsl bit in
  frame.(word) <- (if v then frame.(word) lor m else frame.(word) land lnot m)

let get_bit (frame : int array) word bit = (frame.(word) lsr bit) land 1 = 1

(* Entries [addr0 + a] (bit [a] of [mask]) of data bit [bit] of memory
   [mi], as one frame word. *)
let lutram_word sim mi bit addr0 mask =
  let w = ref 0 in
  for a = 0 to 31 do
    if (mask lsr a) land 1 = 1 && Netsim.mem_bit sim mi ~addr:(addr0 + a) ~bit then
      w := !w lor (1 lsl a)
  done;
  !w

(* A frame's memory segments: block RAM bit by bit, LUTRAM a half-word
   at a time. *)
let iter_mem_segments mems segs per_bit per_half =
  Array.iter
    (function
      | Bram_seg _ as seg -> iter_segment mems seg per_bit
      | Lutram_seg { mi; bit; depth_unit; tile } ->
        iter_lutram_halves mems ~mi ~bit ~depth_unit ~tile per_half)
    segs

(* The lazy half of GCAPTURE: refresh the state bits of one frame from
   the live design, at FDRO read time. *)
let fill_frame t slr key =
  match t.design with
  | None -> ()
  | Some (p, sim) -> (
    match Hashtbl.find_opt (state_index t p).(slr) key with
    | Some fb when frame_visible t ~slr key ->
      let frame = Frames.frame t.ucs.(slr).Uc.frames key in
      Array.iter
        (fun (i, word, bit) -> put_bit frame word bit (Netsim.ff_value sim i))
        fb.fb_ffs;
      let fill mi addr bit word fbit =
        put_bit frame word fbit (Netsim.mem_bit sim mi ~addr ~bit)
      in
      let fill_half mi bit word addr0 mask =
        frame.(word) <- frame.(word) land lnot mask lor lutram_word sim mi bit addr0 mask
      in
      iter_mem_segments p.netlist.Netlist.mems fb.fb_mems fill fill_half
    | _ -> ())

(* GCAPTURE, eagerly: arm the µc and materialize every state frame of
   SLR [slr].  The packet-stream path never calls this — FDRO reads
   materialize lazily via [fill_frame] — but the exported entry point
   keeps the "snapshot now" contract for direct frame inspection. *)
let capture_slr t slr =
  Uc.arm_capture t.ucs.(slr);
  match t.design with
  | None -> ()
  | Some (p, _) ->
    Hashtbl.iter (fun key _ -> fill_frame t slr key) (state_index t p).(slr)

(* GRESTORE: drive the frames written since the last GCAPTURE back into
   live state.  Clean frames either mirror the fabric already (captured)
   or predate the capture that superseded them — either way the full-SLR
   sweep they used to get was a no-op. *)
let restore_slr t slr =
  match t.design with
  | None -> ()
  | Some (p, sim) ->
    let u = t.ucs.(slr) in
    let idx = (state_index t p).(slr) in
    let mems = p.netlist.Netlist.mems in
    let applied = ref false in
    List.iter
      (fun key ->
        match Hashtbl.find_opt idx key with
        | Some fb when frame_visible t ~slr key ->
          applied := true;
          Uc.mark_clean u key;
          let frame = Frames.frame u.Uc.frames key in
          Array.iter
            (fun (i, word, bit) -> Netsim.set_ff sim i (get_bit frame word bit))
            fb.fb_ffs;
          let restore mi addr bit word fbit =
            Netsim.set_mem_bit sim mi ~addr ~bit (get_bit frame word fbit)
          in
          (* Only the entries whose bit differs are written, exactly the
             ones [Netsim.set_mem_bit] would have changed bit by bit. *)
          let restore_half mi bit word addr0 mask =
            let diff = (frame.(word) lxor lutram_word sim mi bit addr0 mask) land mask in
            if diff <> 0 then
              for a = 0 to 31 do
                if (diff lsr a) land 1 = 1 then
                  Netsim.set_mem_bit sim mi ~addr:(addr0 + a) ~bit (get_bit frame word a)
              done
          in
          iter_mem_segments mems fb.fb_mems restore restore_half
        | _ -> ())
      (Uc.dirty_keys u);
    if !applied then Netsim.eval_comb sim

(* START: pulse GSR — FFs (within the restriction) take their init value. *)
let start_slr t slr =
  iter_slr_ffs t ~slr (fun i _site sim ->
      Netsim.set_ff sim i (payload t).netlist.Netlist.ffs.(i).Netlist.init)

let create device =
  let t =
    {
      device;
      ucs = Array.init (Device.num_slrs device) (fun i -> Uc.create ~device ~slr_index:i);
      design = None;
      batch = None;
      dynamic_regions = [];
      meter = Jtag.Meter.create ();
      fpga_cycles = 0;
      lease = None;
      state_index = None;
      cable_scale = 0.0;
      cable_debt = 0.0;
    }
  in
  Array.iteri
    (fun i u ->
      Uc.set_hooks u
        {
          (* GCAPTURE itself is bookkeeping only (the µc arms lazy
             readout); frames materialize per-key as FDRO serves them. *)
          Uc.on_gcapture = (fun () -> ());
          on_grestore = (fun () -> restore_slr t i);
          on_start = (fun () -> start_slr t i);
          on_frame_read = (fun key -> fill_frame t i key);
        })
    t.ucs;
  t

(** Execute a JTAG word stream through the chain dispatcher.  Returns read
    data (FDRO responses etc.) and charges transfer time. *)
let execute t (stream : int array) =
  let n_slrs = Device.num_slrs t.device in
  let primary = t.device.Device.primary in
  let target = ref primary in
  let bout_run = ref 0 in
  let out = ref [] in
  let out_words = ref 0 in
  let i = ref 0 in
  let n = Array.length stream in
  let take count =
    let data = Array.sub stream (!i) (min count (n - !i)) in
    i := !i + Array.length data;
    data
  in
  let syncs = ref 0 in
  let hops = ref 0 in
  let gcaptures = ref 0 in
  let grestores = ref 0 in
  let pending_op = ref None in
  while !i < n do
    let w = stream.(!i) in
    incr i;
    match Packet.decode w with
    | Packet.Sync ->
      incr syncs;
      target := primary;
      bout_run := 0
    | Packet.Dummy -> ()
    | Packet.Type1 { op = Packet.Op_write; reg; count } -> (
      match Packet.reg_of_addr reg with
      | Some Packet.Bout when count = 0 ->
        (* Consecutive-run semantics: k empty BOUT writes select primary+k. *)
        incr bout_run;
        target := (primary + !bout_run) mod n_slrs;
        incr hops
      | Some r ->
        bout_run := 0;
        let data = take count in
        (match r with
        | Packet.Cmd ->
          Array.iter
            (fun v ->
              match Packet.command_of_code v with
              | Some Packet.Cmd_gcapture -> incr gcaptures
              | Some Packet.Cmd_grestore -> incr grestores
              | _ -> ())
            data
        | _ -> ());
        if count = 0 && r = Packet.Fdri then pending_op := Some (`Write, r)
        else Uc.write_reg t.ucs.(!target) r data
      | None ->
        bout_run := 0;
        ignore (take count))
    | Packet.Type1 { op = Packet.Op_read; reg; count } -> (
      bout_run := 0;
      match Packet.reg_of_addr reg with
      | Some r ->
        if count = 0 then pending_op := Some (`Read, r)
        else begin
          let data = Uc.read_reg t.ucs.(!target) r ~count in
          out := data :: !out;
          out_words := !out_words + Array.length data
        end
      | None -> ())
    | Packet.Type2 { op; count } -> (
      bout_run := 0;
      match (!pending_op, op) with
      | Some (`Write, r), Packet.Op_write ->
        pending_op := None;
        let data = take count in
        Uc.write_reg t.ucs.(!target) r data
      | Some (`Read, r), Packet.Op_read ->
        pending_op := None;
        let data = Uc.read_reg t.ucs.(!target) r ~count in
        out := data :: !out;
        out_words := !out_words + Array.length data
      | _ -> ignore (take (match op with Packet.Op_write -> count | _ -> 0)))
    | Packet.Type1 { op = Packet.Op_nop; _ } | Packet.Raw _ -> bout_run := 0
  done;
  let before = Jtag.Meter.seconds t.meter in
  Jtag.Meter.charge t.meter
    {
      Jtag.Meter.m_words = n + !out_words;
      m_syncs = !syncs;
      m_hops = !hops;
      m_gcaptures = !gcaptures;
      m_grestores = !grestores;
    };
  if t.cable_scale > 0.0 then begin
    (* occupy the cable in wall time (scaled); the executing domain
       blocks exactly as a thread driving a real JTAG adapter would,
       letting other boards' cables run concurrently.  Debt below 5ms
       carries over — sleeping it immediately would round every tiny
       transfer up to a whole scheduler tick and inflate the total far
       beyond [cable_scale]'s compression factor. *)
    t.cable_debt <-
      t.cable_debt +. (t.cable_scale *. (Jtag.Meter.seconds t.meter -. before));
    if t.cable_debt >= 0.005 then begin
      let d = t.cable_debt in
      t.cable_debt <- 0.0;
      Unix.sleepf d
    end
  end;
  Array.concat (List.rev !out)

(** Pure pricing scan: the {!Jtag.Meter.counts} an {!execute} of [stream]
    would charge, without touching board or uc state.  The response word
    total is derivable from the stream alone because the ucs answer every
    read with exactly the requested count.  [price_stream] is the modeled
    standalone cost of the transfer — what a scheduler uses to price
    hypothetical traffic through the same {!Jtag.Meter.price} the
    executor charges with. *)
let stream_counts (stream : int array) =
  let i = ref 0 in
  let n = Array.length stream in
  let out_words = ref 0 in
  let syncs = ref 0 in
  let hops = ref 0 in
  let gcaptures = ref 0 in
  let grestores = ref 0 in
  let pending_op = ref None in
  let skip count = i := min n (!i + count) in
  while !i < n do
    let w = stream.(!i) in
    incr i;
    match Packet.decode w with
    | Packet.Sync -> incr syncs
    | Packet.Dummy -> ()
    | Packet.Type1 { op = Packet.Op_write; reg; count } -> (
      match Packet.reg_of_addr reg with
      | Some Packet.Bout when count = 0 -> incr hops
      | Some r ->
        (match r with
        | Packet.Cmd ->
          for k = 0 to min count (n - !i) - 1 do
            match Packet.command_of_code stream.(!i + k) with
            | Some Packet.Cmd_gcapture -> incr gcaptures
            | Some Packet.Cmd_grestore -> incr grestores
            | _ -> ()
          done
        | _ -> ());
        skip count;
        if count = 0 && r = Packet.Fdri then pending_op := Some `Write
      | None -> skip count)
    | Packet.Type1 { op = Packet.Op_read; reg; count } -> (
      match Packet.reg_of_addr reg with
      | Some _ ->
        if count = 0 then pending_op := Some `Read
        else out_words := !out_words + count
      | None -> ())
    | Packet.Type2 { op; count } -> (
      match (!pending_op, op) with
      | Some `Write, Packet.Op_write ->
        pending_op := None;
        skip count
      | Some `Read, Packet.Op_read ->
        pending_op := None;
        out_words := !out_words + count
      | _ -> skip (match op with Packet.Op_write -> count | _ -> 0))
    | Packet.Type1 { op = Packet.Op_nop; _ } | Packet.Raw _ -> ()
  done;
  {
    Jtag.Meter.m_words = n + !out_words;
    m_syncs = !syncs;
    m_hops = !hops;
    m_gcaptures = !gcaptures;
    m_grestores = !grestores;
  }

let price_stream stream = Jtag.Meter.price (stream_counts stream)

(* Carry live state across a partial reconfiguration: FFs and memories
   outside the dynamic regions keep their values (matched by RTL name);
   inside, GSR re-initializes.

   FF names are unique within a netlist, so an FF whose (name, bit) sits
   at the same index in both arrays, or at the same distance from their
   ends, is the by-name match without a lookup.  A VTI relink splices
   the new stamp into the previous [ff_names] with blits, so everything
   outside the stamp aligns this way (usually the same tuple, shared);
   only the unaligned middle goes through a by-name table.  Two
   netlists with nothing in common degrade to one table over all. *)
let carry_over_state t (fresh : Netsim.t) (p : payload) ~dynamic =
  match t.design with
  | None -> ()
  | Some (old_p, old_sim) ->
    let old_names = old_p.netlist.Netlist.ff_names in
    let new_names = p.netlist.Netlist.ff_names in
    let old_n = Array.length old_names and new_n = Array.length new_names in
    let same ((n1, b1) as k1) ((n2, b2) as k2) =
      k1 == k2 || (b1 = b2 && String.equal n1 n2)
    in
    let common = min old_n new_n in
    let pre = ref 0 in
    while !pre < common && same old_names.(!pre) new_names.(!pre) do
      incr pre
    done;
    let pre = !pre in
    let suf = ref 0 in
    while
      pre + !suf < common
      && same old_names.(old_n - 1 - !suf) new_names.(new_n - 1 - !suf)
    do
      incr suf
    done;
    let suf_start = new_n - !suf and shift = old_n - new_n in
    let middle = Hashtbl.create (max 16 (old_n - pre - !suf)) in
    for j = pre to old_n - !suf - 1 do
      Hashtbl.replace middle old_names.(j) j
    done;
    Array.iteri
      (fun i key ->
        let site = p.locmap.Loc.ff_sites.(i) in
        let in_dynamic =
          Region.contains_any dynamic ~slr:site.Loc.f_slr ~row:site.Loc.f_row
            ~col:site.Loc.f_col
        in
        if not in_dynamic then
          let src =
            if i < pre then Some i
            else if i >= suf_start then Some (i + shift)
            else Hashtbl.find_opt middle key
          in
          match src with
          | Some j -> Netsim.set_ff fresh i (Netsim.ff_value old_sim j)
          | None -> ())
      new_names;
    (* Memories: carry whole arrays by name when static. *)
    let old_mem_index = Hashtbl.create 16 in
    Array.iteri
      (fun mi (m : Netlist.mem) -> Hashtbl.replace old_mem_index m.Netlist.mem_name mi)
      old_p.netlist.Netlist.mems;
    Array.iteri
      (fun mi (m : Netlist.mem) ->
        let in_dynamic =
          match p.locmap.Loc.mem_placements.(mi) with
          | Loc.In_bram sites ->
            Array.exists
              (fun (s : Loc.bram_site) ->
                Region.contains_any dynamic ~slr:s.Loc.b_slr ~row:s.Loc.b_row
                  ~col:s.Loc.b_col)
              sites
          | Loc.In_lutram sites ->
            Array.exists
              (fun (s : Loc.lut_site) ->
                Region.contains_any dynamic ~slr:s.Loc.l_slr ~row:s.Loc.l_row
                  ~col:s.Loc.l_col)
              sites
        in
        if not in_dynamic then
          match Hashtbl.find_opt old_mem_index m.Netlist.mem_name with
          | Some old_mi when
              old_p.netlist.Netlist.mems.(old_mi).Netlist.mem_width = m.Netlist.mem_width
              && old_p.netlist.Netlist.mems.(old_mi).Netlist.mem_depth = m.Netlist.mem_depth ->
            Netsim.copy_mem fresh mi ~src:old_sim ~src_mi:old_mi
          | _ -> ())
      p.netlist.Netlist.mems

(** Program the board.  Full bitstreams replace the design; partial
    bitstreams swap the dynamic regions while static state carries over.
    Note: partial reconfiguration leaves each target SLR's CTL0 GSR-mask
    bit set — the quirk Zoomie must handle before readback (§4.7). *)
let load t (bs : bitstream) =
  let (_ : int array) = execute t bs.bs_words in
  (match bs.bs_payload with
  | Some p ->
    let fresh = Netsim.create p.netlist in
    if bs.bs_partial then begin
      t.dynamic_regions <- bs.bs_dynamic;
      carry_over_state t fresh p ~dynamic:bs.bs_dynamic
    end;
    (* Board pins are driven by the environment: their values persist
       across (re)configuration. *)
    (match t.design with
    | Some (old_p, old_sim) ->
      let old_inputs = Hashtbl.create 16 in
      Array.iter
        (fun (io : Netlist.io) ->
          Hashtbl.replace old_inputs
            (io.Netlist.io_name, io.Netlist.io_bit)
            (Netsim.get old_sim io.Netlist.io_net))
        old_p.netlist.Netlist.inputs;
      Array.iter
        (fun (io : Netlist.io) ->
          match Hashtbl.find_opt old_inputs (io.Netlist.io_name, io.Netlist.io_bit) with
          | Some v -> Netsim.set fresh io.Netlist.io_net v
          | None -> ())
        p.netlist.Netlist.inputs
    | None -> ());
    t.design <- Some (p, fresh);
    t.batch <- None;
    t.state_index <- None;
    Netsim.eval_comb fresh
  | None -> ());
  (* The primary µc rejects the whole configuration on IDCODE mismatch. *)
  if (uc t t.device.Device.primary).Uc.idcode_error then
    invalid_arg "Board.load: IDCODE verification failed on primary SLR"

(** Advance the free-running root clock of the loaded design. *)
let run t cycles =
  let p, sim = (payload t, netsim t) in
  Netsim.step ~n:cycles sim p.clock_root;
  t.fpga_cycles <- t.fpga_cycles + cycles

(** Advance up to [cycles], stopping early once net [stop_net] settles
    high after an edge (the debug controller's stop latch, resolved by
    the host at attach).  Returns the cycles actually run — the clock
    keeps real-time accounting exact even on early stop. *)
let run_until t ~stop_net cycles =
  let p, sim = (payload t, netsim t) in
  let ran = Netsim.run_until sim p.clock_root ~stop_net ~max_cycles:cycles in
  t.fpga_cycles <- t.fpga_cycles + ran;
  ran

(** FPGA wall-clock seconds elapsed so far at the design frequency. *)
let fpga_seconds t =
  match t.design with
  | Some (p, _) -> float_of_int t.fpga_cycles /. (p.freq_mhz *. 1.0e6)
  | None -> 0.0
