(** Per-SLR configuration microcontroller.

    Each SLR is "a complete FPGA on a chiplet" (§4.4): it owns its frame
    memory and interprets the same command set.  State capture/restore and
    clock/reset actions are delegated to board-level hooks because they
    touch the executing design. *)

open Zoomie_fabric

type mode = Mode_idle | Mode_wcfg | Mode_rcfg

type hooks = {
  on_gcapture : unit -> unit;
      (** a GCAPTURE was issued (capture itself is lazy — see
          [on_frame_read]) *)
  on_grestore : unit -> unit;
      (** load FF/BRAM state of this SLR from its dirty frames *)
  on_start : unit -> unit;  (** start clocks / pulse GSR *)
  on_frame_read : int * int * int -> unit;
      (** refresh the live state bits of one frame before FDRO serves
          it — the lazy half of GCAPTURE.  Called only for armed,
          non-dirty frames. *)
}

let null_hooks =
  {
    on_gcapture = (fun () -> ());
    on_grestore = (fun () -> ());
    on_start = (fun () -> ());
    on_frame_read = (fun _ -> ());
  }

type t = {
  slr_index : int;
  is_primary : bool;
  expected_idcode : int;
  layout : Geometry.region_layout;
  region_rows : int;
  frames : Frames.t;
  mutable far : int * int * int;  (* row, col, minor *)
  mutable mode : mode;
  mutable mask : int;
  mutable ctl0 : int;
  mutable hooks : hooks;
  mutable idcode_writes : int list;  (* §4.5 observability *)
  mutable idcode_error : bool;
  mutable synced : bool;
  dirty : (int * int * int, unit) Hashtbl.t;
      (* frames written via FDRI since the last GCAPTURE: exactly the set
         a GRESTORE must drive back into the fabric, and the set whose
         written content must win over a lazy capture refresh *)
  mutable captured : bool;  (* a GCAPTURE has armed lazy state readout *)
}

let create ~device ~slr_index =
  let slr = Device.slr device slr_index in
  {
    slr_index;
    is_primary = slr_index = device.Device.primary;
    expected_idcode = Int32.to_int device.Device.idcode;
    layout = slr.Device.layout;
    region_rows = slr.Device.region_rows;
    frames = Frames.create ();
    far = (0, 0, 0);
    mode = Mode_idle;
    mask = 0;
    ctl0 = 0;
    hooks = null_hooks;
    idcode_writes = [];
    idcode_error = false;
    synced = false;
    dirty = Hashtbl.create 64;
    captured = false;
  }

let set_hooks t hooks = t.hooks <- hooks

(* --- dirty-frame bookkeeping for lazy capture/restore ----------------- *)

(* GCAPTURE supersedes earlier FDRI writes: from here on the fabric is
   the source of truth for every state bit, so the dirty set resets. *)
let arm_capture t =
  Hashtbl.reset t.dirty;
  t.captured <- true

let capture_armed t = t.captured

let mark_dirty t key = Hashtbl.replace t.dirty key ()

let frame_dirty t key = Hashtbl.mem t.dirty key

let mark_clean t key = Hashtbl.remove t.dirty key

let dirty_keys t = Hashtbl.fold (fun k () l -> k :: l) t.dirty []

(** Is GSR / capture currently restricted to the dynamic region?  CTL0 bit 0,
    left set by partial reconfiguration unless explicitly cleared (§4.7). *)
let gsr_restricted t = t.ctl0 land 1 = 1

let num_columns t = Array.length t.layout.Geometry.columns

let advance_far t =
  let row, col, minor = t.far in
  let fpc = Geometry.frames_per_column t.layout.Geometry.columns.(col) in
  if minor + 1 < fpc then t.far <- (row, col, minor + 1)
  else if col + 1 < num_columns t then t.far <- (row, col + 1, 0)
  else t.far <- (row + 1, 0, 0)

let far_valid t =
  let row, col, _ = t.far in
  row < t.region_rows && col < num_columns t

(* Streaming FDRI: words accumulate into the frame at FAR; FAR advances per
   completed frame.  Each frame is resolved once and filled in one loop. *)
let write_fdri_words t data =
  let wpf = Geometry.words_per_frame in
  let i = ref 0 in
  let n = Array.length data in
  while !i < n do
    if far_valid t then begin
      let frame = Frames.frame t.frames t.far in
      let take = min wpf (n - !i) in
      let base = !i in
      for k = 0 to take - 1 do
        frame.(k) <- data.(base + k) land 0xFFFFFFFF
      done;
      mark_dirty t t.far;
      i := !i + take;
      advance_far t
    end
    else i := n
  done

let read_fdro_words t ~count =
  let wpf = Geometry.words_per_frame in
  let out = Array.make count 0 in
  let i = ref 0 in
  while !i < count do
    if far_valid t then begin
      (* Lazy GCAPTURE: materialize this frame's state bits only now that
         someone reads them.  Dirty frames keep their written content. *)
      if t.captured && not (frame_dirty t t.far) then
        t.hooks.on_frame_read t.far;
      let take = min wpf (count - !i) in
      Array.blit (Frames.peek t.frames t.far) 0 out !i take;
      i := !i + take;
      advance_far t
    end
    else i := count
  done;
  out

(** Handle a register write directed at this SLR. *)
let write_reg t (reg : Packet.reg) (values : int array) =
  match reg with
  | Packet.Far ->
    if Array.length values > 0 then t.far <- Packet.far_decode values.(0)
  | Packet.Fdri -> write_fdri_words t values
  | Packet.Cmd ->
    Array.iter
      (fun v ->
        match Packet.command_of_code v with
        | Some Packet.Cmd_wcfg -> t.mode <- Mode_wcfg
        | Some Packet.Cmd_rcfg -> t.mode <- Mode_rcfg
        | Some Packet.Cmd_gcapture ->
          arm_capture t;
          t.hooks.on_gcapture ()
        | Some Packet.Cmd_grestore -> t.hooks.on_grestore ()
        | Some Packet.Cmd_start -> t.hooks.on_start ()
        | Some Packet.Cmd_desync -> t.synced <- false
        | Some (Packet.Cmd_null | Packet.Cmd_rcrc | Packet.Cmd_shutdown) | None -> ())
      values
  | Packet.Mask -> if Array.length values > 0 then t.mask <- values.(0)
  | Packet.Ctl0 ->
    if Array.length values > 0 then begin
      (* Only bits enabled in MASK are updated — the mechanism §4.7 exploits. *)
      let v = values.(0) in
      t.ctl0 <- t.ctl0 land lnot t.mask lor (v land t.mask)
    end
  | Packet.Idcode ->
    Array.iter
      (fun v ->
        t.idcode_writes <- v :: t.idcode_writes;
        (* Only the primary SLR verifies the IDCODE (§4.5): writing a wrong
           ID to a secondary has no effect. *)
        if t.is_primary && v <> t.expected_idcode then t.idcode_error <- true)
      values
  | Packet.Bout ->
    (* Handled by the chain dispatcher at board level; reaching here means a
       BOUT write with payload, which real hardware ignores. *)
    ()
  | Packet.Crc | Packet.Stat | Packet.Fdro -> ()

(** Handle a register read directed at this SLR; only FDRO returns data. *)
let read_reg t (reg : Packet.reg) ~count =
  match reg with
  | Packet.Fdro -> read_fdro_words t ~count
  | Packet.Stat ->
    Array.make count ((if t.idcode_error then 1 else 0) lor (t.ctl0 lsl 1))
  | _ -> Array.make count 0
