(* The indexed frame-readback engine: coverage semantics (no silent-zero
   readback), up-front injection validation, snapshot format v2 (64-bit
   cycle counters) with v1 compatibility, and a differential property
   check of the indexed extractor against the original association-list
   implementation. *)

open Zoomie_rtl
module Board = Zoomie_bitstream.Board
module Host = Zoomie_debug.Host
module Readback = Zoomie_debug.Readback
module Baseline = Zoomie_debug.Readback_baseline
module Frame_index = Readback.Frame_index

(* One debug session over the counter MUT of the debug suite. *)
let session () = Test_debug.session ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let site_map_of board =
  let p = Board.payload board in
  Readback.site_map (Board.device board) p.Board.netlist p.Board.locmap

(* --- snapshot persistence: v2 64-bit cycles, v1 compatibility --------- *)

let sample_frames () =
  let idx = Frame_index.create () in
  Frame_index.add idx (0, 1, 2, 3) [| 0xDEAD; 0xBEEF; 7 |];
  Frame_index.add idx (1, 0, 4, 0) [| 42 |];
  Frame_index.add idx (0, 1, 2, 4) [| 0; 0xFFFFFFFF |];
  idx

let check_frames_equal a b =
  Alcotest.(check int) "frame count" (Frame_index.length a) (Frame_index.length b);
  Frame_index.iter
    (fun key words ->
      match Frame_index.find b key with
      | None -> Alcotest.fail "frame missing after roundtrip"
      | Some words' ->
        Alcotest.(check (array int)) "frame words" words words')
    a

(* A §3.3-scale campaign: the cycle counter is far past 2^31 and must
   round-trip exactly (v1 truncated it to one output_binary_int). *)
let test_snapshot_cycle_past_2_31 () =
  let cycle = (1 lsl 40) + 0x9ABCDEF1 in
  let snap = { Readback.snap_frames = sample_frames (); snap_cycle = cycle } in
  let path = Filename.temp_file "zoomie_v2" ".snap" in
  Readback.save_snapshot snap path;
  let snap' = Readback.load_snapshot path in
  Sys.remove path;
  Alcotest.(check int) "cycle exact past 2^31" cycle snap'.Readback.snap_cycle;
  check_frames_equal snap.Readback.snap_frames snap'.Readback.snap_frames

let test_snapshot_version_is_2 () =
  Alcotest.(check int) "format version" 2 Readback.snapshot_version

(* Hand-write a v1 file (single 32-bit cycle field): it must still load,
   with the cycle masked to the unsigned value the writer recorded — not
   sign-extended into a negative count. *)
let test_snapshot_v1_still_loads () =
  let path = Filename.temp_file "zoomie_v1" ".snap" in
  let oc = open_out_bin path in
  output_binary_int oc Readback.snapshot_magic;
  output_binary_int oc 1;
  (* A cycle count with the sign bit set: output_binary_int keeps the low
     32 bits; a v1 reader handed back a negative number. *)
  output_binary_int oc 0x9ABCDEF1;
  (* one SLR, one frame *)
  output_binary_int oc 1;
  output_binary_int oc 0;
  output_binary_int oc 1;
  List.iter (output_binary_int oc) [ 3; 1; 4; 2; 0xAB; 0xCD ];
  close_out oc;
  let snap = Readback.load_snapshot path in
  Sys.remove path;
  Alcotest.(check int) "v1 cycle masked, not negative" 0x9ABCDEF1
    snap.Readback.snap_cycle;
  Alcotest.(check bool) "v1 cycle non-negative" true (snap.Readback.snap_cycle >= 0);
  (match Frame_index.find snap.Readback.snap_frames (0, 3, 1, 4) with
  | Some words -> Alcotest.(check (array int)) "v1 frame words" [| 0xAB; 0xCD |] words
  | None -> Alcotest.fail "v1 frame lost");
  (* Unknown versions are still rejected. *)
  let oc = open_out_bin path in
  output_binary_int oc Readback.snapshot_magic;
  output_binary_int oc 3;
  close_out oc;
  (match Readback.load_snapshot path with
  | _ -> Alcotest.fail "future version accepted"
  | exception Readback.Bad_snapshot _ -> ());
  Sys.remove path

(* A live snapshot taken through the board survives the v2 disk format. *)
let test_snapshot_live_roundtrip () =
  let board, host = session () in
  Board.run board 13;
  Host.pause host;
  let snap = Host.snapshot host in
  let path = Filename.temp_file "zoomie_live" ".snap" in
  Readback.save_snapshot snap path;
  let snap' = Readback.load_snapshot path in
  Sys.remove path;
  Alcotest.(check int) "cycle preserved" snap.Readback.snap_cycle
    snap'.Readback.snap_cycle;
  check_frames_equal snap.Readback.snap_frames snap'.Readback.snap_frames

(* A v1 file is not merely parseable — it still drives the full
   load -> checkpoint -> restore path the flight recorder rides on.
   Take a live snapshot, re-frame it on disk as v1 (the frame payload
   layout never changed; only the cycle field widened in v2), reload,
   and restore onto the advanced, clobbered board: the MUT state must
   come back bit-for-bit. *)
let test_snapshot_v1_restore_roundtrip () =
  let board, host = session () in
  Board.run board 23;
  Host.pause host;
  Host.write_register host "count" (Bits.of_int ~width:16 777);
  let snap = Host.snapshot host in
  let state0 = Host.read_state host in
  let path = Filename.temp_file "zoomie_v2src" ".snap" in
  Readback.save_snapshot snap path;
  let ic = open_in_bin path in
  let v2 = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* v2 header: magic, version, cycle hi, cycle lo.  v1: magic, version,
     one 32-bit cycle.  The body after the header is identical. *)
  let path_v1 = Filename.temp_file "zoomie_v1rt" ".snap" in
  let oc = open_out_bin path_v1 in
  output_string oc (String.sub v2 0 4);
  output_binary_int oc 1;
  output_string oc (String.sub v2 12 4);
  output_string oc (String.sub v2 16 (String.length v2 - 16));
  close_out oc;
  (* Advance and clobber the board, then restore from the v1 file. *)
  Board.run board 50;
  Host.pause host;
  Host.write_register host "count" (Bits.of_int ~width:16 1);
  let loaded = Readback.load_snapshot path_v1 in
  Sys.remove path;
  Sys.remove path_v1;
  Alcotest.(check int) "v1 cycle preserved" snap.Readback.snap_cycle
    loaded.Readback.snap_cycle;
  Host.restore host loaded;
  let state1 = Host.read_state host in
  Alcotest.(check int) "same register count" (List.length state0)
    (List.length state1);
  List.iter2
    (fun (n0, v0) (n1, v1) ->
      Alcotest.(check string) "same register" n0 n1;
      Alcotest.(check bool) (n0 ^ " restored bit-for-bit") true
        (Bits.equal v0 v1))
    state0 state1;
  Alcotest.(check int) "injected value back" 777
    (Bits.to_int (Host.read_register host "count"))

(* --- coverage: a plan that misses frames must raise, never read zeros -- *)

let test_uncovered_readback_raises () =
  let board, host = session () in
  Board.run board 37;
  Host.pause host;
  let sm = site_map_of board in
  let name = "dut.mut.count" in
  (* Reference value through the normal, fully-covered path. *)
  let v = Host.read_register host "count" in
  Alcotest.(check bool) "counter has advanced" true (Bits.to_int v > 0);
  let plan = Readback.plan_of_names sm [ name ] in
  let frames = Readback.read_plan_frames board plan in
  Alcotest.(check bool) "plan reads at least two frames" true
    (Frame_index.length frames >= 2);
  (* Full coverage: the pure extractor agrees with the session read. *)
  (match Readback.extract_registers sm frames ~select:(fun n -> n = name) with
  | [ (_, v') ] -> Alcotest.(check bool) "covered value correct" true (Bits.equal v v')
  | _ -> Alcotest.fail "expected exactly one register");
  (* Partial coverage: drop one frame at a time from the response.  A plan
     covers whole columns, so some frames hold no bit of the register —
     dropping those must leave the value intact — but dropping a frame
     that does hold one of its FFs must raise the typed error.  The seed
     implementation silently read the missing bits back as zeros. *)
  let keys = Frame_index.fold (fun k _ acc -> k :: acc) frames [] in
  let raised = ref 0 in
  List.iter
    (fun dropped ->
      let partial = Frame_index.create () in
      Frame_index.iter
        (fun k words -> if k <> dropped then Frame_index.add partial k words)
        frames;
      match Readback.extract_registers sm partial ~select:(fun n -> n = name) with
      | [ (_, v') ] ->
        Alcotest.(check bool) "unrelated frame dropped: value intact" true
          (Bits.equal v v')
      | _ -> Alcotest.fail "expected exactly one register"
      | exception Readback.Readback_error msg ->
        incr raised;
        Alcotest.(check bool) "error names the register" true
          (contains ~sub:"dut.mut.count" msg))
    keys;
  Alcotest.(check bool) "dropping an owning frame raises" true (!raised >= 1);
  (* Empty coverage: an empty plan is equally an error, not an empty or
     zero-filled result. *)
  (match
     Readback.read_registers_indexed board sm
       { Readback.columns = []; total_frames = 0; selected = None }
       ~select:(fun n -> n = name)
   with
  | _ -> Alcotest.fail "uncovered register must not read back"
  | exception Readback.Readback_error _ -> ())

(* --- injection validation: unknown names are typed errors ------------- *)

let test_unknown_injection_raises () =
  let board, host = session () in
  Host.pause host;
  (* Direct engine call. *)
  let sm = site_map_of board in
  (match
     Readback.inject_registers_indexed board sm
       [ ("no.such.register", Bits.of_int ~width:8 1) ]
   with
  | () -> Alcotest.fail "unknown register injection must raise"
  | exception Readback.Readback_error msg ->
    Alcotest.(check bool) "error names the register" true
      (contains ~sub:"no.such.register" msg));
  (* Through the host API. *)
  (match Host.write_register host "definitely_missing" (Bits.of_int ~width:4 3) with
  | () -> Alcotest.fail "host injection of unknown register must raise"
  | exception Readback.Readback_error _ -> ());
  (* A mixed batch is rejected up front: the known register is untouched. *)
  let before = Host.read_register host "count" in
  (match
     Readback.inject_registers_indexed board sm
       [
         ("dut.mut.count", Bits.of_int ~width:16 9999);
         ("also.missing", Bits.of_int ~width:1 1);
       ]
   with
  | () -> Alcotest.fail "mixed batch must raise"
  | exception Readback.Readback_error _ -> ());
  Alcotest.(check bool) "known register untouched by rejected batch" true
    (Bits.equal before (Host.read_register host "count"));
  (* Unknown memories give the same typed error. *)
  (match Host.read_memory host "not_a_memory" with
  | _ -> Alcotest.fail "unknown memory must raise"
  | exception Readback.Readback_error _ -> ());
  (* Valid injection still works after all the failed attempts. *)
  Host.write_register host "count" (Bits.of_int ~width:16 321);
  Alcotest.(check int) "valid injection lands" 321
    (Bits.to_int (Host.read_register host "count"))

(* plan_of_names validates every name up front. *)
let test_plan_of_names_validates () =
  let board, _host = session () in
  let sm = site_map_of board in
  (match Readback.plan_of_names sm [ "dut.mut.count"; "ghost1"; "ghost2" ] with
  | _ -> Alcotest.fail "plan over unknown names must raise"
  | exception Readback.Readback_error msg ->
    Alcotest.(check bool) "lists every unknown name" true
      (contains ~sub:"ghost1" msg
      && contains ~sub:"ghost2" msg));
  let plan = Readback.plan_of_names sm [ "dut.mut.count" ] in
  Alcotest.(check bool) "valid plan non-empty" true (plan.Readback.columns <> [])

(* --- differential property: indexed engine == seed implementation ----- *)

(* The comparator: same registers, same order, same values. *)
let same_registers indexed baseline =
  List.length indexed = List.length baseline
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && Bits.equal v1 v2)
       indexed baseline

(* Random MUT state (injected through the real frame machinery), then both
   extractors parse the same kind of response; they must agree exactly. *)
let prop_indexed_matches_baseline =
  QCheck2.Test.make ~name:"indexed extraction == assoc-list baseline" ~count:12
    QCheck2.Gen.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let board, host = session () in
      Board.run board (Random.State.int st 50);
      Host.pause host;
      (* Randomize the MUT registers. *)
      List.iter
        (fun (name, width) ->
          Host.write_register host name (Bits.random ~width st))
        [ ("count", 16); ("ev_data_r", 16); ("pending", 1) ];
      let p = Board.payload board in
      let netlist = p.Board.netlist in
      let locmap = p.Board.locmap in
      let sm = site_map_of board in
      (* Sweep several plan/select shapes, including the full-SLR baseline
         plan of Table 3. *)
      let prefix = "dut." in
      let selects =
        [
          (fun n -> String.starts_with ~prefix n);
          (fun n -> n = "dut.mut.count");
          (fun n -> String.starts_with ~prefix:"dut.mut." n);
        ]
      in
      List.for_all
        (fun select ->
          let plan = Readback.plan_of_select sm ~select in
          let indexed = Readback.read_registers_indexed board sm plan ~select in
          let baseline = Baseline.read_registers board netlist locmap plan ~select in
          same_registers indexed baseline)
        selects)

(* Planted faults for the property's comparator: the indexed extractor
   fed a doctored copy of one sweep's response — one FF bit of a
   selected register flipped, or the frame holding it dropped — must not
   agree with the baseline fed the true response.  An extraction that
   refuses the response (an uncovered frame) counts as disagreement. *)
let test_indexed_vs_baseline_twins () =
  let board, host = session () in
  Board.run board 21;
  Host.pause host;
  Host.write_register host "count" (Bits.of_int ~width:16 0xFFFF);
  let p = Board.payload board in
  let sm = site_map_of board in
  let select n = String.starts_with ~prefix:"dut.mut." n in
  let response = Readback.read_plan_frames board (Readback.plan_of_select sm ~select) in
  let agree doctored =
    match Readback.extract_registers sm doctored ~select with
    | exception Readback.Readback_error _ -> false
    | indexed ->
      same_registers indexed
        (Baseline.extract_registers p.Board.netlist p.Board.locmap
           (List.map
              (fun slr -> (slr, Frame_index.to_assoc response ~slr))
              (Frame_index.slrs response))
           ~select)
  in
  Alcotest.(check bool) "true response agrees" true (agree response);
  (* bit 0 of dut.mut.count, a 1 *)
  let key, word, bit =
    let module Loc = Zoomie_fabric.Loc in
    let i = ref (-1) in
    Array.iteri
      (fun j nb -> if nb = ("dut.mut.count", 0) then i := j)
      p.Board.netlist.Zoomie_synth.Netlist.ff_names;
    let site = p.Board.locmap.Loc.ff_sites.(!i) in
    let minor, word, bit = Loc.ff_frame_bit site in
    ((site.Loc.f_slr, site.Loc.f_row, site.Loc.f_col, minor), word, bit)
  in
  let flipped = Frame_index.copy response in
  let old = Option.get (Frame_index.bit flipped key ~word ~bit) in
  Alcotest.(check bool) "planted bit is a 1" true old;
  ignore (Frame_index.set_bit flipped key ~word ~bit (not old) : bool);
  Alcotest.(check bool) "twin: flipped FF bit rejected" false (agree flipped);
  let dropped = Frame_index.create () in
  Frame_index.iter
    (fun k words -> if k <> key then Frame_index.add dropped k words)
    response;
  Alcotest.(check int) "one frame dropped" (Frame_index.length response - 1)
    (Frame_index.length dropped);
  Alcotest.(check bool) "twin: dropped frame rejected" false (agree dropped)

(* The pure extractor and the baseline also agree frame-for-frame when fed
   the identical response object. *)
let test_extractors_agree_on_shared_response () =
  let board, host = session () in
  Board.run board 100;
  Host.pause host;
  let p = Board.payload board in
  let sm = site_map_of board in
  let select n = String.starts_with ~prefix:"dut." n in
  let plan = Readback.plan_of_select sm ~select in
  let frames = Readback.read_plan_frames board plan in
  let per_slr =
    List.map
      (fun slr -> (slr, Frame_index.to_assoc frames ~slr))
      (Frame_index.slrs frames)
  in
  let indexed = Readback.extract_registers sm frames ~select in
  let baseline =
    Baseline.extract_registers p.Board.netlist p.Board.locmap per_slr ~select
  in
  Alcotest.(check int) "same register count" (List.length baseline)
    (List.length indexed);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "same name order" n1 n2;
      Alcotest.(check bool) (n1 ^ " same value") true (Bits.equal v1 v2))
    baseline indexed

(* Frame_index bookkeeping: insertion order, per-SLR views, deep copy. *)
let test_frame_index_basics () =
  let idx = sample_frames () in
  Alcotest.(check int) "length" 3 (Frame_index.length idx);
  Alcotest.(check (list int)) "slrs ascending" [ 0; 1 ] (Frame_index.slrs idx);
  let order = ref [] in
  Frame_index.iter (fun k _ -> order := k :: !order) idx;
  Alcotest.(check bool) "insertion order preserved" true
    (List.rev !order = [ (0, 1, 2, 3); (1, 0, 4, 0); (0, 1, 2, 4) ]);
  Alcotest.(check bool) "bit covered" true
    (Frame_index.bit idx (1, 0, 4, 0) ~word:0 ~bit:1 = Some true);
  Alcotest.(check bool) "bit uncovered is None" true
    (Frame_index.bit idx (9, 9, 9, 9) ~word:0 ~bit:0 = None);
  let c = Frame_index.copy idx in
  (* 42 has bit 1 set: clear it in the copy, the original must keep it. *)
  Alcotest.(check bool) "set_bit on covered frame" true
    (Frame_index.set_bit c (1, 0, 4, 0) ~word:0 ~bit:1 false);
  Alcotest.(check bool) "set_bit on absent frame" false
    (Frame_index.set_bit c (9, 9, 9, 9) ~word:0 ~bit:0 true);
  Alcotest.(check bool) "copy mutated" true
    (Frame_index.bit c (1, 0, 4, 0) ~word:0 ~bit:1 = Some false);
  Alcotest.(check bool) "copy is deep" true
    (Frame_index.bit idx (1, 0, 4, 0) ~word:0 ~bit:1 = Some true);
  Alcotest.(check (list (pair (triple int int int) (array int))))
    "assoc view of slr 0"
    [ ((1, 2, 3), [| 0xDEAD; 0xBEEF; 7 |]); ((1, 2, 4), [| 0; 0xFFFFFFFF |]) ]
    (Frame_index.to_assoc idx ~slr:0)

let suite =
  [
    Alcotest.test_case "snapshot v2 roundtrips cycle > 2^31" `Quick
      test_snapshot_cycle_past_2_31;
    Alcotest.test_case "snapshot format version" `Quick test_snapshot_version_is_2;
    Alcotest.test_case "snapshot v1 still loads (masked cycle)" `Quick
      test_snapshot_v1_still_loads;
    Alcotest.test_case "live snapshot disk roundtrip" `Quick
      test_snapshot_live_roundtrip;
    Alcotest.test_case "v1 load -> checkpoint -> restore roundtrip" `Quick
      test_snapshot_v1_restore_roundtrip;
    Alcotest.test_case "uncovered readback raises (no silent zeros)" `Quick
      test_uncovered_readback_raises;
    Alcotest.test_case "unknown-name injection raises" `Quick
      test_unknown_injection_raises;
    Alcotest.test_case "plan_of_names validates up front" `Quick
      test_plan_of_names_validates;
    Alcotest.test_case "pure extractors agree on a shared response" `Quick
      test_extractors_agree_on_shared_response;
    Alcotest.test_case "Frame_index bookkeeping" `Quick test_frame_index_basics;
    QCheck_alcotest.to_alcotest prop_indexed_matches_baseline;
    Alcotest.test_case "indexed vs baseline: planted faults rejected" `Quick
      test_indexed_vs_baseline_twins;
  ]
