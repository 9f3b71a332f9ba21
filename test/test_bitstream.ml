(* Bitstream/configuration tests, including reproductions of the §4.4-4.5
   reverse-engineering experiments: the BOUT ring-hop selection, IDCODE
   irrelevance on secondary SLRs, the U250 repetition pattern, and the
   GSR-mask quirk of partial reconfiguration (§4.7). *)

open Zoomie_rtl
module Packet = Zoomie_bitstream.Packet
module Program = Zoomie_bitstream.Program
module Board = Zoomie_bitstream.Board
module Uc = Zoomie_bitstream.Uc
module Device = Zoomie_fabric.Device
module Geometry = Zoomie_fabric.Geometry

let bits = Bits.of_int

(* --- packet codec --- *)

let test_packet_roundtrip () =
  let h = Packet.type1 ~op:Packet.Op_write ~reg:(Packet.reg_addr Packet.Far) ~count:1 in
  (match Packet.decode h with
  | Packet.Type1 { op = Packet.Op_write; reg; count = 1 }
    when reg = Packet.reg_addr Packet.Far ->
    ()
  | _ -> Alcotest.fail "type1 roundtrip");
  let h2 = Packet.type2 ~op:Packet.Op_read ~count:123456 in
  (match Packet.decode h2 with
  | Packet.Type2 { op = Packet.Op_read; count = 123456 } -> ()
  | _ -> Alcotest.fail "type2 roundtrip");
  Alcotest.(check bool) "sync" true (Packet.decode Packet.sync_word = Packet.Sync);
  Alcotest.(check bool) "dummy" true (Packet.decode Packet.nop_word = Packet.Dummy)

let test_far_roundtrip () =
  let w = Packet.far_encode ~row:3 ~col:187 ~minor:14 in
  Alcotest.(check (triple int int int)) "far" (3, 187, 14) (Packet.far_decode w)

let prop_packet_roundtrip =
  QCheck2.Test.make ~name:"packet header roundtrip" ~count:200 QCheck2.Gen.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let op = List.nth [ Packet.Op_nop; Packet.Op_read; Packet.Op_write ] (Random.State.int st 3) in
      let reg = Random.State.int st 30 in
      let count = Random.State.int st 2000 in
      if count <= 0x7FF then
        match Packet.decode (Packet.type1 ~op ~reg ~count) with
        | Packet.Type1 { op = o; reg = r; count = c } -> o = op && r = reg && c = count
        | _ -> false
      else true)

(* --- the §4.5 experiment: three constant registers, one per SLR --- *)

(* A board whose frames are written directly (no design): we imitate the
   experiment by writing distinct constants into the same frame address of
   each SLR, then reading back with and without BOUT hops. *)
let experiment_board () =
  let device = Device.u200 () in
  let board = Board.create device in
  (* Write constant i into SLR i's frame (0,0,0) word 0, with a chunked
     bitstream exactly like the §4.4 layout. *)
  let prog = Program.create () in
  List.iteri
    (fun k slr ->
      ignore slr;
      Program.sync prog;
      Program.select_slr prog ~hops:k;
      Program.write_idcode prog (Int32.to_int device.Device.idcode);
      Program.set_far prog ~row:0 ~col:0 ~minor:0;
      Program.write_frames prog
        [ Array.init Geometry.words_per_frame (fun w -> if w = 0 then 0x1000 + ((device.Device.primary + k) mod 3) else 0) ])
    [ 0; 1; 2 ];
  Program.desync prog;
  let (_ : int array) = Board.execute board (Program.words prog) in
  (device, board)

let readback_word0 board ~hops =
  let prog = Program.create () in
  Program.sync prog;
  Program.select_slr prog ~hops;
  Program.set_far prog ~row:0 ~col:0 ~minor:0;
  Program.read_frames prog ~words:Geometry.words_per_frame;
  Program.desync prog;
  let data = Board.execute board (Program.words prog) in
  data.(0)

let test_bout_selects_slr () =
  let device, board = experiment_board () in
  let primary = device.Device.primary in
  (* No hops: always the primary SLR's value — the Bitfiltrator trap. *)
  Alcotest.(check int) "no hops -> primary" (0x1000 + primary)
    (readback_word0 board ~hops:0);
  (* k hops -> primary + k. *)
  Alcotest.(check int) "1 hop" (0x1000 + ((primary + 1) mod 3)) (readback_word0 board ~hops:1);
  Alcotest.(check int) "2 hops" (0x1000 + ((primary + 2) mod 3)) (readback_word0 board ~hops:2)

let test_idcode_ignored_on_secondaries () =
  (* Mutating the IDCODE written to a secondary SLR has no effect (§4.5);
     a wrong IDCODE on the primary aborts configuration. *)
  let device = Device.u200 () in
  let board = Board.create device in
  let prog = Program.create () in
  Program.sync prog;
  Program.select_slr prog ~hops:1;
  Program.write_idcode prog 0xDEADBEE;  (* garbage, secondary: ignored *)
  Program.set_far prog ~row:0 ~col:0 ~minor:0;
  Program.write_frames prog [ Array.init Geometry.words_per_frame (fun w -> if w = 0 then 77 else 0) ];
  Program.desync prog;
  let (_ : int array) = Board.execute board (Program.words prog) in
  Alcotest.(check int) "secondary configured despite bad idcode" 77
    (readback_word0 board ~hops:1);
  (* Primary checks: wrong idcode flags an error. *)
  let prog2 = Program.create () in
  Program.sync prog2;
  Program.write_idcode prog2 0xBAD;
  Program.desync prog2;
  let (_ : int array) = Board.execute board (Program.words prog2) in
  Alcotest.(check bool) "primary flags idcode error" true
    (Board.uc board device.Device.primary).Uc.idcode_error

let test_u250_repetition_pattern () =
  (* §4.5: on a 4-SLR U250 the final SLR is reached with 3 BOUT pulses. *)
  let device = Device.u250 () in
  let board = Board.create device in
  let prog = Program.create () in
  List.iter
    (fun k ->
      Program.sync prog;
      Program.select_slr prog ~hops:k;
      Program.set_far prog ~row:0 ~col:0 ~minor:0;
      Program.write_frames prog
        [ Array.init Geometry.words_per_frame (fun w -> if w = 0 then 0x2000 + k else 0) ])
    [ 0; 1; 2; 3 ];
  Program.desync prog;
  let (_ : int array) = Board.execute board (Program.words prog) in
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "%d hops" k)
        (0x2000 + k) (readback_word0 board ~hops:k))
    [ 0; 1; 2; 3 ]

let test_sync_resets_target () =
  (* After SYNC the chain targets the primary again. *)
  let _device, board = experiment_board () in
  let prog = Program.create () in
  Program.sync prog;
  Program.select_slr prog ~hops:2;
  Program.sync prog; (* reset *)
  Program.set_far prog ~row:0 ~col:0 ~minor:0;
  Program.read_frames prog ~words:Geometry.words_per_frame;
  Program.desync prog;
  let data = Board.execute board (Program.words prog) in
  Alcotest.(check int) "back to primary" 0x1001 data.(0)

let test_ctl0_mask_gating () =
  (* CTL0 writes only take effect through MASK-enabled bits. *)
  let device = Device.u200 () in
  let board = Board.create device in
  let uc = Board.uc board device.Device.primary in
  let prog = Program.create () in
  Program.sync prog;
  Program.write_reg prog Packet.Mask [ 0x0 ];
  Program.write_reg prog Packet.Ctl0 [ 0x1 ];
  Program.desync prog;
  let (_ : int array) = Board.execute board (Program.words prog) in
  Alcotest.(check bool) "masked write ignored" false (Uc.gsr_restricted uc);
  let prog2 = Program.create () in
  Program.sync prog2;
  Program.set_ctl0 prog2 ~mask:1 ~value:1;
  Program.desync prog2;
  let (_ : int array) = Board.execute board (Program.words prog2) in
  Alcotest.(check bool) "unmasked write applies" true (Uc.gsr_restricted uc)

let test_jtag_accounting_scales () =
  let _device, board = experiment_board () in
  let t0 = Board.jtag_seconds board in
  let (_ : int) = readback_word0 board ~hops:0 in
  let t1 = Board.jtag_seconds board in
  let (_ : int) = readback_word0 board ~hops:2 in
  let t2 = Board.jtag_seconds board in
  Alcotest.(check bool) "time accrues" true (t1 > t0);
  (* Two hops cost more than zero hops. *)
  Alcotest.(check bool) "hops cost" true (t2 -. t1 > t1 -. t0)

let test_frame_store () =
  let f = Zoomie_bitstream.Frames.create () in
  Zoomie_bitstream.Frames.set_bit f (1, 2, 3) ~word:5 ~bit:17 true;
  Alcotest.(check bool) "bit set" true
    (Zoomie_bitstream.Frames.get_bit f (1, 2, 3) ~word:5 ~bit:17);
  Alcotest.(check bool) "other bit clear" false
    (Zoomie_bitstream.Frames.get_bit f (1, 2, 3) ~word:5 ~bit:16);
  Alcotest.(check int) "unconfigured frame reads zero" 0
    (Zoomie_bitstream.Frames.read_word f (9, 9, 9) 0)

let suite =
  [
    Alcotest.test_case "packet roundtrip" `Quick test_packet_roundtrip;
    Alcotest.test_case "FAR roundtrip" `Quick test_far_roundtrip;
    QCheck_alcotest.to_alcotest prop_packet_roundtrip;
    Alcotest.test_case "BOUT selects SLR (4.4)" `Quick test_bout_selects_slr;
    Alcotest.test_case "IDCODE ignored on secondaries (4.5)" `Quick
      test_idcode_ignored_on_secondaries;
    Alcotest.test_case "U250 repetition pattern (4.5)" `Quick test_u250_repetition_pattern;
    Alcotest.test_case "SYNC resets chain target" `Quick test_sync_resets_target;
    Alcotest.test_case "CTL0 mask gating" `Quick test_ctl0_mask_gating;
    Alcotest.test_case "JTAG accounting" `Quick test_jtag_accounting_scales;
    Alcotest.test_case "frame store" `Quick test_frame_store;
  ]

(* Robustness: arbitrary word streams never crash the configuration engine
   (corrupt bitstreams must fail safe, §4.1's µc is a real interpreter). *)
let prop_executor_total =
  QCheck2.Test.make ~name:"executor survives random streams" ~count:60
    QCheck2.Gen.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let board = Board.create (Device.u200 ()) in
      let n = Random.State.int st 300 in
      let words =
        Array.init n (fun _ ->
            match Random.State.int st 6 with
            | 0 -> Packet.sync_word
            | 1 -> Packet.nop_word
            | 2 ->
              Packet.type1
                ~op:(List.nth [ Packet.Op_nop; Packet.Op_read; Packet.Op_write ]
                       (Random.State.int st 3))
                ~reg:(Random.State.int st 30)
                ~count:(Random.State.int st 20)
            | 3 -> Packet.type2 ~op:Packet.Op_write ~count:(Random.State.int st 50)
            | _ ->
              Random.State.int st 65536 lor (Random.State.int st 65536 lsl 16))
      in
      match Board.execute board words with
      | (_ : int array) -> true
      | exception Invalid_argument _ -> true (* explicit rejection is fine *))

(* Property: frames written through FDRI read back identically via FDRO
   (per SLR, arbitrary addresses). *)
let prop_frame_write_read =
  QCheck2.Test.make ~name:"FDRI/FDRO roundtrip" ~count:40 QCheck2.Gen.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let device = Device.u200 () in
      let board = Board.create device in
      let slr = Random.State.int st 3 in
      let row = Random.State.int st 5 in
      let col = Random.State.int st 100 in
      let data =
        Array.init Geometry.words_per_frame (fun _ ->
            Random.State.int st 65536 lor (Random.State.int st 65536 lsl 16))
      in
      let hops = (slr - device.Device.primary + 3) mod 3 in
      let prog = Program.create () in
      Program.sync prog;
      Program.select_slr prog ~hops;
      Program.set_far prog ~row ~col ~minor:2;
      Program.write_frames prog [ data ];
      Program.set_far prog ~row ~col ~minor:2;
      Program.read_frames prog ~words:Geometry.words_per_frame;
      Program.desync prog;
      let out = Board.execute board (Program.words prog) in
      Array.length out = Geometry.words_per_frame && out = data)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_executor_total;
      QCheck_alcotest.to_alcotest prop_frame_write_read;
    ]

(* --- the µc frame path vs a per-word reference model ---

   The µc resolves the frame at FAR once per frame and copies its words
   in one loop (FDRI) or one blit (FDRO).  The model here is the per-word
   definition: every word goes through [Frames.write_word] /
   [Frames.read_word] at the current FAR, FAR advances after a frame's
   last word or the burst's last word, and words past the SLR's last row
   are dropped (FDRO answers them with zeros).  Reads of a never-written
   frame allocate nothing on either side, so the allocation counts
   compare the frames written.  Random bursts through [Board.execute]
   must leave the same frames and return the same FDRO responses as the
   model. *)

module Frames = Zoomie_bitstream.Frames

type ref_uc = {
  r_frames : Frames.t;
  mutable r_far : int * int * int;
  r_columns : Geometry.column_kind array;
  r_rows : int;
  r_keys : (Frames.key, unit) Hashtbl.t;  (* every frame the model touched *)
}

let ref_uc (slr : Device.slr) =
  {
    r_frames = Frames.create ();
    r_far = (0, 0, 0);
    r_columns = slr.Device.layout.Geometry.columns;
    r_rows = slr.Device.region_rows;
    r_keys = Hashtbl.create 64;
  }

let ref_advance m =
  let row, col, minor = m.r_far in
  if minor + 1 < Geometry.frames_per_column m.r_columns.(col) then
    m.r_far <- (row, col, minor + 1)
  else if col + 1 < Array.length m.r_columns then m.r_far <- (row, col + 1, 0)
  else m.r_far <- (row + 1, 0, 0)

(* The planted fault: FAR stays in a column one frame too long. *)
let ref_advance_off_by_one m =
  let row, col, minor = m.r_far in
  if minor + 1 <= Geometry.frames_per_column m.r_columns.(col) then
    m.r_far <- (row, col, minor + 1)
  else if col + 1 < Array.length m.r_columns then m.r_far <- (row, col + 1, 0)
  else m.r_far <- (row + 1, 0, 0)

(* Word [i] of an [n]-word burst lands on word [i mod wpf] of the frame
   at FAR. *)
let ref_burst ~advance m n f =
  let wpf = Geometry.words_per_frame in
  let valid () =
    let row, col, _ = m.r_far in
    row < m.r_rows && col < Array.length m.r_columns
  in
  let i = ref 0 in
  while !i < n && valid () do
    Hashtbl.replace m.r_keys m.r_far ();
    f m.r_far (!i mod wpf) !i;
    if !i mod wpf = wpf - 1 || !i = n - 1 then advance m;
    incr i
  done

type burst = { b_slr : int; b_far : int * int * int; b_write : int array option; b_len : int }

(* FARs start mid-column, often near the end of a column, of the last
   column or of the last row, so bursts cross column and row boundaries
   and run past the last row; lengths are mostly not whole frames. *)
let random_burst st (device : Device.t) =
  let wpf = Geometry.words_per_frame in
  let b_slr = Random.State.int st (Device.num_slrs device) in
  let slr = Device.slr device b_slr in
  let columns = slr.Device.layout.Geometry.columns in
  let ncols = Array.length columns in
  let rows = slr.Device.region_rows in
  let row = if Random.State.int st 3 = 0 then rows - 1 else Random.State.int st rows in
  let col =
    if Random.State.bool st then ncols - 1 - Random.State.int st 2
    else Random.State.int st ncols
  in
  let fpc = Geometry.frames_per_column columns.(col) in
  let minor =
    if Random.State.bool st then max 0 (fpc - 1 - Random.State.int st 3)
    else Random.State.int st fpc
  in
  let b_len = 1 + Random.State.int st (4 * wpf) in
  let b_write =
    if Random.State.int st 3 = 0 then None
    else
      Some
        (Array.init b_len (fun _ ->
             Random.State.int st 65536 lor (Random.State.int st 65536 lsl 16)))
  in
  { b_slr; b_far = (row, col, minor); b_write; b_len }

(* Run [bursts] on a blank board and on the model; [true] when every FDRO
   response, every frame the model touched and the number of frames each
   side allocated agree. *)
let uc_agrees ~advance (device : Device.t) bursts =
  let board = Board.create device in
  let n = Device.num_slrs device in
  let models = Array.init n (fun i -> ref_uc (Device.slr device i)) in
  let responses_agree =
    List.for_all
      (fun b ->
        let row, col, minor = b.b_far in
        let prog = Program.create () in
        Program.sync prog;
        Program.select_slr prog ~hops:((b.b_slr - device.Device.primary + n) mod n);
        Program.set_far prog ~row ~col ~minor;
        (match b.b_write with
        | Some data -> Program.write_frames prog [ data ]
        | None -> Program.read_frames prog ~words:b.b_len);
        Program.desync prog;
        let got = Board.execute board (Program.words prog) in
        let m = models.(b.b_slr) in
        m.r_far <- b.b_far;
        match b.b_write with
        | Some data ->
          ref_burst ~advance m b.b_len (fun key k i ->
              Frames.write_word m.r_frames key k data.(i));
          got = [||]
        | None ->
          let expected = Array.make b.b_len 0 in
          ref_burst ~advance m b.b_len (fun key k i ->
              expected.(i) <- Frames.read_word m.r_frames key k);
          got = expected)
      bursts
  in
  responses_agree
  && List.for_all
       (fun slr ->
         let frames = (Board.uc board slr).Uc.frames and m = models.(slr) in
         Frames.allocated frames = Frames.allocated m.r_frames
         && Hashtbl.fold
              (fun key () ok ->
                ok && Frames.read_frame frames key = Frames.read_frame m.r_frames key)
              m.r_keys true)
       (List.init n Fun.id)

let test_uc_frame_path_vs_per_word () =
  let device = Device.u200 () in
  let st = Random.State.make [| 2024 |] in
  let bursts = List.init 300 (fun _ -> random_burst st device) in
  (* The bursts reach every boundary case the frame path special-cases. *)
  let wpf = Geometry.words_per_frame in
  let counts = Array.make 4 0 in
  List.iter
    (fun b ->
      let m = ref_uc (Device.slr device b.b_slr) in
      m.r_far <- b.b_far;
      let touched = ref [] and served = ref 0 in
      ref_burst ~advance:ref_advance m b.b_len (fun (row, col, _) _ _ ->
          touched := (row, col) :: !touched;
          incr served);
      let columns = List.sort_uniq compare !touched in
      let rows = List.sort_uniq compare (List.map fst columns) in
      let bump i c = if c then counts.(i) <- counts.(i) + 1 in
      bump 0 (b.b_len mod wpf <> 0);
      bump 1 (List.length columns > List.length rows);
      bump 2 (List.length rows > 1);
      bump 3 (!served < b.b_len && !served > 0))
    bursts;
  Array.iteri
    (fun i what ->
      if counts.(i) = 0 then Alcotest.failf "no burst %s" what)
    [|
      "with a partial last frame";
      "crossing a column boundary";
      "crossing a row boundary";
      "running past the last row";
    |];
  Alcotest.(check bool) "frame path == per-word model" true
    (uc_agrees ~advance:ref_advance device bursts);
  Alcotest.(check bool) "twin: off-by-one FAR advance rejected" false
    (uc_agrees ~advance:ref_advance_off_by_one device bursts)

(* Reading a never-written frame sees zeros and stores nothing: a
   full-SLR FDRO sweep of a blank board leaves every frame store empty,
   and so do the store's own read accessors. *)
let test_blank_reads_allocate_nothing () =
  let device = Device.u200 () in
  let board = Board.create device in
  let n = Device.num_slrs device in
  for slr = 0 to n - 1 do
    let words = Device.frames_per_slr device slr * Geometry.words_per_frame in
    let prog = Program.create () in
    Program.sync prog;
    Program.select_slr prog ~hops:((slr - device.Device.primary + n) mod n);
    Program.set_far prog ~row:0 ~col:0 ~minor:0;
    Program.read_frames prog ~words;
    Program.desync prog;
    let got = Board.execute board (Program.words prog) in
    Alcotest.(check int) (Printf.sprintf "SLR %d: whole SLR read" slr) words (Array.length got);
    Alcotest.(check bool) (Printf.sprintf "SLR %d: reads zeros" slr) true
      (Array.for_all (( = ) 0) got);
    Alcotest.(check int) (Printf.sprintf "SLR %d: nothing allocated" slr) 0
      (Frames.allocated (Board.uc board slr).Uc.frames)
  done;
  let f = Frames.create () in
  ignore (Frames.read_word f (1, 2, 3) 4 : int);
  ignore (Frames.get_bit f (1, 2, 3) ~word:4 ~bit:5 : bool);
  Alcotest.(check (array int)) "read_frame of a blank frame is zeros"
    (Array.make Geometry.words_per_frame 0) (Frames.read_frame f (1, 2, 3));
  Alcotest.(check int) "store reads allocate nothing" 0 (Frames.allocated f);
  Frames.write_word f (1, 2, 3) 4 7;
  Alcotest.(check int) "a write allocates its frame" 1 (Frames.allocated f);
  Alcotest.(check int) "other frames still read zero" 0 (Frames.read_word f (3, 2, 1) 4)

(* After GCAPTURE the µc serves a frame's state bits from the live design
   at FDRO time — unless FDRI wrote that frame since: then the written
   content wins until the next GCAPTURE. *)
let test_dirty_frame_survives_lazy_capture () =
  let board, _host = Test_debug.session () in
  let device = Board.device board in
  let n = Device.num_slrs device in
  let sim = Board.netsim board in
  let slr, key, (fb : Board.frame_bits) =
    let found = ref None in
    Array.iteri
      (fun slr idx ->
        Hashtbl.iter
          (fun key (fb : Board.frame_bits) ->
            if !found = None && Array.length fb.Board.fb_ffs > 0 then
              found := Some (slr, key, fb))
          idx)
      (Board.frame_index board);
    Option.get !found
  in
  let row, col, minor = key in
  let wpf = Geometry.words_per_frame in
  let exec ?write () =
    let prog = Program.create () in
    Program.sync prog;
    Program.select_slr prog ~hops:((slr - device.Device.primary + n) mod n);
    Program.gcapture prog;
    (match write with
    | Some data ->
      Program.set_far prog ~row ~col ~minor;
      Program.write_frames prog [ data ]
    | None -> ());
    Program.set_far prog ~row ~col ~minor;
    Program.read_frames prog ~words:wpf;
    Program.desync prog;
    Board.execute board (Program.words prog)
  in
  let ffs_match frame =
    Array.for_all
      (fun (i, word, bit) ->
        (frame.(word) lsr bit) land 1 = 1 = Zoomie_synth.Netsim.ff_value sim i)
      fb.Board.fb_ffs
  in
  let live = exec () in
  Alcotest.(check bool) "captured frame holds the live FFs" true (ffs_match live);
  let written = Array.map (fun w -> lnot w land 0xFFFFFFFF) live in
  Alcotest.(check (array int)) "dirty frame keeps its written content" written
    (exec ~write:written ());
  Alcotest.(check bool) "the next GCAPTURE serves the live FFs again" true
    (ffs_match (exec ()))

let suite =
  suite
  @ [
      Alcotest.test_case "µc frame path == per-word model" `Quick
        test_uc_frame_path_vs_per_word;
      Alcotest.test_case "dirty frame survives lazy capture" `Quick
        test_dirty_frame_survives_lazy_capture;
      Alcotest.test_case "blank frame reads allocate nothing" `Quick
        test_blank_reads_allocate_nothing;
    ]
