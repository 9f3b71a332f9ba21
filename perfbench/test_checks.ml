(* Planted-fault twins for the benchmark's output checks: each comparator
   accepts what a correct run produces and rejects the same input with one
   fault planted in it.  A gate that cannot fail checks nothing. *)

open Zoomie.Zoomie_api
open Perfbench
module Host = Debug.Host
module Timeline = Debug.Timeline
module Repl = Debug.Repl

let small = { Rig.kernel_soc with Workloads.Manycore.clusters = 2; cores_per_cluster = 3 }

let ok what r = Alcotest.(check bool) what true (r = Ok ())

let trips what r = Alcotest.(check bool) what true (Result.is_error r)

(* A small programmed rig, warmed up like the workloads'. *)
let rig =
  lazy
    (let project = Rig.vendor_project ~config:small () in
     let run = compile_vendor project in
     let board = Rig.program_board project run in
     let host = Host.attach board ~info:(Rig.info project) ~mut_path:Rig.mut_path in
     Host.step host 40;
     (project, run, board, host))

let flip_bit (name, v) = (name, Rtl.Bits.set v 0 (not (Rtl.Bits.get v 0)))

let test_names () =
  let _, _, _, host = Lazy.force rig in
  let asked = [ "pc"; "r0"; "state" ] in
  let got = Rig.read_registers (Rig.reads ()) ~op:0 host asked in
  ok "the layered read returns what was asked" (Checks.names_match ~asked ~got);
  trips "a dropped register" (Checks.names_match ~asked ~got:(List.tl got));
  trips "an extra register"
    (Checks.names_match ~asked:[ "pc"; "r0" ] ~got)

let test_state () =
  let project, run, _, host = Lazy.force rig in
  let twin = Rig.program_board project run in
  let twin_host = Host.attach twin ~info:(Rig.info project) ~mut_path:Rig.mut_path in
  Host.step twin_host 20;
  Host.step twin_host 20;
  let expected = Host.read_state twin_host in
  let got = Host.read_state host in
  ok "same cycles in other chunks, same MUT state" (Checks.same_state ~what:"twin" ~expected ~got);
  trips "a flipped MUT bit"
    (Checks.same_state ~what:"twin" ~expected
       ~got:(List.mapi (fun i r -> if i = 3 then flip_bit r else r) got))

let test_cycles () =
  let board_cycles = [ 100; 80 ] in
  let sessions = [ (100, 60); (100, 40); (80, 80) ] in
  ok "every step accounted for" (Checks.cycles_account ~board_cycles ~sessions);
  trips "a lost step"
    (Checks.cycles_account ~board_cycles ~sessions:[ (100, 60); (100, 39); (80, 80) ]);
  trips "a count no board holds"
    (Checks.cycles_account ~board_cycles ~sessions:[ (100, 100); (81, 80) ])

let test_build () =
  let _, vp = Rig.vti_project ~config:small () in
  let build = Vti.Flow.compile vp in
  let base = Vti.Flow_baseline.compile (Rig.baseline_project vp) in
  ok "engines agree" (Checks.same_build build base);
  trips "a dropped frame"
    (Checks.same_build { build with Vti.Flow.frames = List.tl build.Vti.Flow.frames } base);
  let circuit = Rig.edit_core ~r0:3 ~r1:101 in
  let b1 = Vti.Flow.recompile build ~path:Rig.vti_path ~circuit in
  let o1 = Vti.Flow_baseline.recompile base ~path:Rig.vti_path ~circuit in
  ok "engines agree after an edit" (Checks.same_build b1 o1);
  trips "a recompile against the wrong edit"
    (Checks.same_build b1
       (Vti.Flow_baseline.recompile base ~path:Rig.vti_path
          ~circuit:(Rig.edit_core ~r0:4 ~r1:101)))

let test_edit () =
  let expected = [ ("r0", 3); ("r1", 101) ] in
  ok "edit visible" (Checks.edit_visible ~expected ~got:[ ("r0", 3); ("r1", 101) ]);
  trips "an edit that did not land" (Checks.edit_visible ~expected ~got:[ ("r0", 3); ("r1", 100) ]);
  trips "a register not read" (Checks.edit_visible ~expected ~got:[ ("r0", 3) ])

let test_reverse () =
  let project, run, _, _ = Lazy.force rig in
  let board = Rig.program_board project run in
  let host = Host.attach board ~info:(Rig.info project) ~mut_path:Rig.mut_path in
  let ts = Timeline.session ~rig:"test" host board in
  ignore (Timeline.execute ts (Repl.Step 40));
  ignore (Timeline.execute ts (Repl.Record (Some 10)));
  List.iter
    (fun c -> ignore (Timeline.execute ts c))
    [ Repl.Step 15; Repl.Inject ("r0", 9); Repl.Step 12; Repl.Print "r0" ];
  let target = 52 in
  let response = Timeline.execute ts (Repl.Reverse_continue target) in
  let mut_cycles = Host.mut_cycles host in
  ok "lands on its target" (Checks.landed ~target ~mut_cycles ~response);
  trips "an off-by-one target" (Checks.landed ~target:(target + 1) ~mut_cycles ~response);
  trips "a response naming another cycle"
    (Checks.landed ~target ~mut_cycles ~response:"reversed to mut cycle 53 (...)");
  let file = "test_checks.zrec" in
  ignore (Timeline.execute ts (Repl.Record_save file));
  let recording = Timeline.load file in
  Sys.remove file;
  let fresh = Rig.program_board project run in
  let fresh_host = Host.attach fresh ~info:(Rig.info project) ~mut_path:Rig.mut_path in
  Host.step fresh_host 40;
  let replayed, divergence = Timeline.replay recording fresh_host fresh in
  let entries = Array.length recording.Timeline.rec_entries in
  ok "the recording replays" (Checks.replay_clean ~entries ~replayed divergence);
  trips "a divergence"
    (Checks.replay_clean ~entries ~replayed
       (Some { Timeline.div_index = 1; div_expected = "r0 = 9"; div_got = "r0 = 8" }));
  trips "a short replay" (Checks.replay_clean ~entries ~replayed:(List.tl replayed) None)

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "read names" `Quick test_names;
          Alcotest.test_case "MUT state" `Quick test_state;
          Alcotest.test_case "cycle accounting" `Quick test_cycles;
          Alcotest.test_case "VTI build vs reference" `Quick test_build;
          Alcotest.test_case "edit visible" `Quick test_edit;
          Alcotest.test_case "reverse lands and replays" `Quick test_reverse;
        ] );
    ]
