(* VTI incremental-compilation tests: provisioning math, initial compile,
   one-partition recompile with partial reconfiguration, state preservation
   across the partial load, and the cost-model relationships behind
   Figure 7. *)

open Zoomie_rtl
module Vti = Zoomie_vti.Flow
module Estimate = Zoomie_vti.Estimate
module Board = Zoomie_bitstream.Board
module Resource = Zoomie_fabric.Resource
module Region = Zoomie_fabric.Region
module Device = Zoomie_fabric.Device
module Manycore = Zoomie_workloads.Manycore
module Serv = Zoomie_workloads.Serv

let bits = Bits.of_int

let small_config =
  { Manycore.default_config with clusters = 2; cores_per_cluster = 3 }

let project () =
  let design, _cluster_units = Manycore.design ~config:small_config () in
  {
    Vti.device = Device.u200 ();
    design;
    clock_root = "clk";
    freq_mhz = 50.0;
    replicated_units = Manycore.core_units ~config:small_config;
    iterated = [ Manycore.debug_core_path ];
    c = Estimate.default_coefficient;
    debug_slr = 1;
  }

let test_over_provision () =
  let r = Resource.make ~lut:100 ~ff:200 () in
  let er = Resource.over_provision ~c:0.30 r in
  Alcotest.(check int) "lut ER" 130 (Resource.get er Resource.Lut);
  Alcotest.(check int) "ff ER" 260 (Resource.get er Resource.Ff)

let test_provision_regions () =
  let device = Device.u200 () in
  let demands =
    [
      ("p0", Resource.make ~lut:2000 ~ff:3000 ~lutram:50 ());
      ("p1", Resource.make ~lut:5000 ~ff:8000 ~bram:4 ());
    ]
  in
  let parts, statics = Estimate.provision device ~c:0.3 ~debug_slr:1 demands in
  Alcotest.(check int) "two partitions" 2 (List.length parts);
  List.iter
    (fun (name, r) ->
      Alcotest.(check int) (name ^ " in debug SLR") 1 r.Region.slr;
      (* Capacity covers the over-provisioned demand. *)
      let demand = Resource.over_provision ~c:0.3 (List.assoc name demands) in
      let layout = (Device.slr device 1).Device.layout in
      Alcotest.(check bool) (name ^ " fits") true
        (Resource.fits ~demand ~capacity:(Region.resources layout r)))
    parts;
  (* Partition regions must not overlap each other or the static regions. *)
  let p0 = List.assoc "p0" parts and p1 = List.assoc "p1" parts in
  Alcotest.(check bool) "partitions disjoint" false (Region.overlaps p0 p1);
  List.iter
    (fun s ->
      Alcotest.(check bool) "static disjoint from p0" false (Region.overlaps s p0);
      Alcotest.(check bool) "static disjoint from p1" false (Region.overlaps s p1))
    statics

let prop_provision_sound =
  QCheck2.Test.make ~name:"provisioning is sound" ~count:60 QCheck2.Gen.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let device = Device.u200 () in
      let n = 1 + Random.State.int st 4 in
      let demands =
        List.init n (fun i ->
            ( Printf.sprintf "p%d" i,
              Resource.make
                ~lut:(100 + Random.State.int st 20000)
                ~ff:(100 + Random.State.int st 30000)
                ~lutram:(Random.State.int st 500)
                ~bram:(Random.State.int st 10)
                () ))
      in
      let c = 0.1 +. Random.State.float st 0.4 in
      match Estimate.provision device ~c ~debug_slr:1 demands with
      | exception Estimate.Does_not_fit _ -> true (* refusing is sound *)
      | parts, _ ->
        List.for_all
          (fun (name, r) ->
            let layout = (Device.slr device 1).Device.layout in
            Resource.fits
              ~demand:(Resource.over_provision ~c (List.assoc name demands))
              ~capacity:(Region.resources layout r))
          parts
        && List.for_all
             (fun (n1, r1) ->
               List.for_all
                 (fun (n2, r2) -> n1 = n2 || not (Region.overlaps r1 r2))
                 parts)
             parts)

(* Drive the loaded manycore and collect emitted results. *)
let collect_results board cycles =
  let sim = Board.netsim board in
  Zoomie_synth.Netsim.poke_input sim "start" (bits ~width:1 1);
  Zoomie_synth.Netsim.poke_input sim "result_ready" (bits ~width:1 1);
  let results = ref [] in
  for _ = 1 to cycles do
    Board.run board 1;
    if Bits.to_int (Zoomie_synth.Netsim.peek_output sim "result_valid") = 1 then
      results :=
        Bits.to_int (Zoomie_synth.Netsim.peek_output sim "result_data") :: !results
  done;
  List.rev !results

let test_initial_compile_and_run () =
  let build = Vti.compile (project ()) in
  Alcotest.(check bool) "meets 50 MHz" true
    (Zoomie_pnr.Timing.meets_timing build.Vti.timing ~mhz:50.0);
  let board = Board.create (Device.u200 ()) in
  Vti.load_onto board build;
  let results = collect_results board 2500 in
  (* 6 cores x 6 results each. *)
  Alcotest.(check int) "all results arrive" 36 (List.length results)

let test_incremental_recompile () =
  let p = project () in
  let build = Vti.compile p in
  let board = Board.create (Device.u200 ()) in
  Vti.load_onto board build;
  let before = collect_results board 2500 in
  Alcotest.(check int) "baseline results" 36 (List.length before);
  (* Change the debugged core's program: emit 100+x instead of counting. *)
  let new_program =
    [|
      Serv.instr ~op:Serv.op_li ~rd:0 ~rs:0 ~imm:100;
      Serv.instr ~op:Serv.op_out ~rd:0 ~rs:0 ~imm:0;
      Serv.instr ~op:Serv.op_halt ~rd:0 ~rs:0 ~imm:0;
    |]
  in
  let circuit = Serv.core ~name:"zerv_core_dbg_v2" ~program:new_program () in
  let build2 = Vti.recompile build ~path:Manycore.debug_core_path ~circuit in
  (* Incremental recompilation work is drastically smaller (at toy scale
     the fixed tool overheads dominate the wall clock; Figure 7 shows the
     full-scale 18x — see bench/main.ml). *)
  Alcotest.(check bool) "incremental work >=5x smaller" true
    (Zoomie_pnr.Cost_model.total build2.Vti.cost *. 5.0
    < Zoomie_pnr.Cost_model.total build.Vti.cost);
  Alcotest.(check bool) "incremental wall clock smaller" true
    (build2.Vti.modeled_seconds < build.Vti.modeled_seconds);
  (* Partial bitstream is much smaller than the full one. *)
  Alcotest.(check bool) "partial bitstream smaller" true
    (Array.length build2.Vti.bitstream.Board.bs_words * 5
    < Array.length build.Vti.bitstream.Board.bs_words);
  (* Load it: only the partition is reconfigured. *)
  Vti.load_onto board build2;
  let after = collect_results board 2500 in
  (* State preservation (§3.3): the five static cores carried their halted
     state across the partial load — emulation progress is not lost — so
     only the freshly reconfigured core runs, emitting its one result. *)
  Alcotest.(check (list int)) "only the new core runs, new behavior" [ 100 ] after;
  (* Static cores kept their architectural state across the partial load:
     their mcycle LFSRs are far from the power-on value. *)
  let sim = Board.netsim board in
  let mcycle =
    Zoomie_synth.Netsim.read_register sim "cluster1.core1.mcycle"
  in
  Alcotest.(check bool) "static state preserved" false
    (Bits.equal mcycle (Bits.of_int ~width:64 1))

(* Regression: the board's input pins are driven by the environment, so
   their values must survive a partial reconfiguration — and the load must
   swap in a fresh design model (stale handles read pre-reload state). *)
let test_pins_persist_across_partial () =
  let build = Vti.compile (project ()) in
  let board = Board.create (Device.u200 ()) in
  Vti.load_onto board build;
  let old_sim = Board.netsim board in
  Zoomie_synth.Netsim.poke_input old_sim "start" (bits ~width:1 1);
  Zoomie_synth.Netsim.poke_input old_sim "result_ready" (bits ~width:1 1);
  Board.run board 2500;
  let program =
    [|
      Serv.instr ~op:Serv.op_li ~rd:0 ~rs:0 ~imm:41;
      Serv.instr ~op:Serv.op_out ~rd:0 ~rs:0 ~imm:0;
      Serv.instr ~op:Serv.op_halt ~rd:0 ~rs:0 ~imm:0;
    |]
  in
  let circuit = Serv.core ~name:"zerv_core_pin_test" ~program () in
  let build2 = Vti.recompile build ~path:Manycore.debug_core_path ~circuit in
  Vti.load_onto board build2;
  (* No re-poking of start/result_ready here: the drives must persist. *)
  Board.run board 800;
  let sim = Board.netsim board in
  Alcotest.(check bool) "reload swaps in a fresh model" false (sim == old_sim);
  Alcotest.(check int) "fresh core ran off the persisted start pin" 41
    (Bits.to_int (Zoomie_synth.Netsim.read_register sim "cluster0.core0.r0"));
  Alcotest.(check int) "and re-latched its run flag" 1
    (Bits.to_int (Zoomie_synth.Netsim.read_register sim "cluster0.core0.started"))

let test_partition_overflow_detected () =
  let p = project () in
  let build = Vti.compile p in
  (* A hugely larger core must be rejected by the provision check. *)
  let big_program = Array.init 64 (fun i -> Serv.instr ~op:Serv.op_li ~rd:0 ~rs:0 ~imm:i) in
  let circuit = Serv.core ~name:"zerv_core_huge" ~program:big_program ~xlen:31 () in
  (* xlen 31 roughly doubles the datapath; if it still fits the provision,
     grow further via a second scratchpad-free variant — here we simply
     check that recompile either succeeds or raises the typed overflow. *)
  match Vti.recompile build ~path:Manycore.debug_core_path ~circuit with
  | _ -> ()
  | exception Vti.Partition_overflow _ -> ()

let test_vendor_incremental_small_gain () =
  let design, units = Manycore.design ~config:small_config () in
  let p =
    {
      Zoomie_vendor.Vivado.device = Device.u200 ();
      design;
      clock_root = "clk";
      freq_mhz = 50.0;
      replicated_units = units;
    }
  in
  let r1 = Zoomie_vendor.Vivado.compile p in
  let r2 = Zoomie_vendor.Vivado.compile ~incremental_from:r1 p in
  let gain = r1.Zoomie_vendor.Vivado.modeled_seconds /. r2.Zoomie_vendor.Vivado.modeled_seconds in
  Alcotest.(check bool) "vendor incremental helps a little" true (gain > 1.0);
  Alcotest.(check bool) "but not much (<1.25x)" true (gain < 1.25)

let suite =
  [
    Alcotest.test_case "ER formula" `Quick test_over_provision;
    Alcotest.test_case "region provisioning" `Quick test_provision_regions;
    QCheck_alcotest.to_alcotest prop_provision_sound;
    Alcotest.test_case "initial compile + run" `Quick test_initial_compile_and_run;
    Alcotest.test_case "incremental recompile + partial load" `Quick
      test_incremental_recompile;
    Alcotest.test_case "pins persist across partial reload" `Quick
      test_pins_persist_across_partial;
    Alcotest.test_case "partition overflow check" `Quick test_partition_overflow_detected;
    Alcotest.test_case "vendor incremental: small gain" `Quick
      test_vendor_incremental_small_gain;
  ]

(* Two iterated partitions at once: independent regions, independent
   recompiles. *)
let test_two_partitions () =
  let design, _ = Manycore.design ~config:small_config () in
  let p =
    {
      Vti.device = Device.u200 ();
      design;
      clock_root = "clk";
      freq_mhz = 50.0;
      replicated_units = Manycore.core_units ~config:small_config;
      iterated = [ "cluster0.core0"; "cluster0.core1" ];
      c = 0.3;
      debug_slr = 1;
    }
  in
  let build = Vti.compile p in
  Alcotest.(check int) "two regions" 2 (List.length build.Vti.partition_regions);
  let r0 = List.assoc "cluster0.core0" build.Vti.partition_regions in
  let r1 = List.assoc "cluster0.core1" build.Vti.partition_regions in
  Alcotest.(check bool) "disjoint" false (Region.overlaps r0 r1);
  let board = Board.create (Device.u200 ()) in
  Vti.load_onto board build;
  let before = collect_results board 2500 in
  Alcotest.(check int) "baseline" 36 (List.length before);
  (* Swap partition 1 only; partition 0's provision is untouched. *)
  let prog =
    [|
      Serv.instr ~op:Serv.op_li ~rd:0 ~rs:0 ~imm:77;
      Serv.instr ~op:Serv.op_out ~rd:0 ~rs:0 ~imm:0;
      Serv.instr ~op:Serv.op_halt ~rd:0 ~rs:0 ~imm:0;
    |]
  in
  let circuit = Serv.core ~name:"core1_v2" ~program:prog () in
  let build2 = Vti.recompile build ~path:"cluster0.core1" ~circuit in
  Vti.load_onto board build2;
  let after = collect_results board 2500 in
  Alcotest.(check (list int)) "only the swapped core runs" [ 77 ] after

(* Checkpoint persistence: a build saved to disk resumes incremental work
   in a fresh process-state. *)
let test_checkpoint_roundtrip () =
  let p = project () in
  let build = Vti.compile p in
  let path = Filename.temp_file "zoomie" ".dcp" in
  Vti.save_checkpoint build path;
  let build' = Vti.load_checkpoint path in
  Sys.remove path;
  (* The reloaded checkpoint supports recompilation and programming. *)
  let circuit = Serv.core ~name:"zerv_ckpt_v2" () in
  let b2 = Vti.recompile build' ~path:Manycore.debug_core_path ~circuit in
  let board = Board.create (Device.u200 ()) in
  Vti.load_onto board build';
  Vti.load_onto board b2;
  Alcotest.(check bool) "recompiled from checkpoint" true
    (Zoomie_pnr.Cost_model.total b2.Vti.cost > 0.0)

(* Failure injection: a checkpoint that is missing, truncated, garbled or
   from a different format version must raise the typed error, never a
   crash or a silently wrong build. *)
let test_checkpoint_bad_file () =
  let expect_bad name path =
    match Vti.load_checkpoint path with
    | _ -> Alcotest.failf "%s should have been rejected" name
    | exception Vti.Bad_checkpoint _ -> ()
    | exception (End_of_file | Failure _) ->
      Alcotest.failf "%s leaked an untyped exception" name
  in
  expect_bad "missing file" "/nonexistent/zoomie.dcp";
  let garbled = Filename.temp_file "zoomie_bad" ".dcp" in
  let oc = open_out garbled in
  output_string oc "this is not a checkpoint";
  close_out oc;
  expect_bad "garbled file" garbled;
  Sys.remove garbled;
  (* Right magic, truncated body. *)
  let truncated = Filename.temp_file "zoomie_trunc" ".dcp" in
  let oc = open_out truncated in
  output_string oc Vti.checkpoint_magic;
  close_out oc;
  expect_bad "truncated body" truncated;
  Sys.remove truncated

let suite =
  suite
  @ [
      Alcotest.test_case "two iterated partitions" `Quick test_two_partitions;
      Alcotest.test_case "checkpoint save/load" `Quick test_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint corruption rejected" `Quick
        test_checkpoint_bad_file;
    ]

(* --- differential: incremental engine vs the seed monolithic engine --- *)

module Flow_baseline = Zoomie_vti.Flow_baseline
module Framegen = Zoomie_pnr.Framegen
module Place = Zoomie_pnr.Place
module Timing = Zoomie_pnr.Timing
module Synthesize = Zoomie_synth.Synthesize

let baseline_project (p : Vti.project) : Flow_baseline.project =
  {
    Flow_baseline.device = p.Vti.device;
    design = p.Vti.design;
    clock_root = p.Vti.clock_root;
    freq_mhz = p.Vti.freq_mhz;
    replicated_units = p.Vti.replicated_units;
    iterated = p.Vti.iterated;
    c = p.Vti.c;
    debug_slr = p.Vti.debug_slr;
  }

(* Bit-for-bit equality on every externally visible artifact. *)
let same_build (b : Vti.build) (o : Flow_baseline.build) =
  b.Vti.netlist = o.Flow_baseline.netlist
  && b.Vti.locmap = o.Flow_baseline.locmap
  && b.Vti.route = o.Flow_baseline.route
  && b.Vti.timing = o.Flow_baseline.timing
  && b.Vti.frames = o.Flow_baseline.frames
  && b.Vti.bitstream = o.Flow_baseline.bitstream
  && b.Vti.modeled_seconds = o.Flow_baseline.modeled_seconds
  && b.Vti.cost = o.Flow_baseline.cost

let check_same msg b o =
  Alcotest.(check bool) (msg ^ ": netlist") true
    (b.Vti.netlist = o.Flow_baseline.netlist);
  Alcotest.(check bool) (msg ^ ": locmap") true
    (b.Vti.locmap = o.Flow_baseline.locmap);
  Alcotest.(check bool) (msg ^ ": route") true
    (b.Vti.route = o.Flow_baseline.route);
  Alcotest.(check bool) (msg ^ ": timing") true
    (b.Vti.timing = o.Flow_baseline.timing);
  Alcotest.(check bool) (msg ^ ": frames") true
    (b.Vti.frames = o.Flow_baseline.frames);
  Alcotest.(check bool) (msg ^ ": bitstream") true
    (b.Vti.bitstream = o.Flow_baseline.bitstream);
  Alcotest.(check bool) (msg ^ ": modeled seconds") true
    (b.Vti.modeled_seconds = o.Flow_baseline.modeled_seconds);
  Alcotest.(check bool) (msg ^ ": cost") true (b.Vti.cost = o.Flow_baseline.cost)

let prog_of_imms imms =
  Array.append
    (Array.of_list
       (List.concat_map
          (fun imm ->
            [
              Serv.instr ~op:Serv.op_li ~rd:0 ~rs:0 ~imm;
              Serv.instr ~op:Serv.op_out ~rd:0 ~rs:0 ~imm:0;
            ])
          imms))
    [| Serv.instr ~op:Serv.op_halt ~rd:0 ~rs:0 ~imm:0 |]

(* Fixed-scenario differential: initial compile (parallel and sequential),
   then a recompile chain covering a same-size swap (net-count delta = 0
   against the previous stamp), a grown module (delta <> 0), a recompile
   branching off an older build (prev stays usable), and a digest-cache
   hit (same circuit submitted twice). *)
let test_differential_fixed () =
  let p = project () in
  let b0 = Vti.compile p in
  let b0_seq = Vti.compile ~jobs:1 p in
  let o0 = Flow_baseline.compile (baseline_project p) in
  check_same "initial" b0 o0;
  check_same "initial, jobs=1" b0_seq o0;
  let path = Manycore.debug_core_path in
  let c1 = Serv.core ~name:"zerv_diff_v1" ~program:(prog_of_imms [ 11; 22 ]) () in
  let b1 = Vti.recompile b0 ~path ~circuit:c1 in
  let o1 = Flow_baseline.recompile o0 ~path ~circuit:c1 in
  check_same "recompile 1" b1 o1;
  (* Same instruction count, different constants: same netlist shape. *)
  let c2 = Serv.core ~name:"zerv_diff_v1" ~program:(prog_of_imms [ 33; 44 ]) () in
  let b2 = Vti.recompile b1 ~path ~circuit:c2 in
  let o2 = Flow_baseline.recompile o1 ~path ~circuit:c2 in
  check_same "recompile 2 (same size)" b2 o2;
  (* Grown module: the spliced net ids shift. *)
  let c3 =
    Serv.core ~name:"zerv_diff_v3" ~program:(prog_of_imms [ 1; 2; 3; 4; 5 ]) ()
  in
  let b3 = Vti.recompile b2 ~path ~circuit:c3 in
  let o3 = Flow_baseline.recompile o2 ~path ~circuit:c3 in
  check_same "recompile 3 (grown)" b3 o3;
  (* Branch off the older build: prev must remain fully usable. *)
  let b3' = Vti.recompile b1 ~path ~circuit:c3 in
  let o3' = Flow_baseline.recompile o1 ~path ~circuit:c3 in
  check_same "recompile branched off older build" b3' o3';
  (* Same circuit as run 1 again: hits the digest cache. *)
  let b4 = Vti.recompile b3 ~path ~circuit:c1 in
  let o4 = Flow_baseline.recompile o3 ~path ~circuit:c1 in
  check_same "recompile 4 (digest-cache hit)" b4 o4

(* Randomized differential over recompile chains. *)
let prop_recompile_differential =
  QCheck2.Test.make ~name:"incremental flow == monolithic flow" ~count:6
    QCheck2.Gen.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let p = project () in
      let b = ref (Vti.compile p) in
      let o = ref (Flow_baseline.compile (baseline_project p)) in
      let ok = ref (same_build !b !o) in
      for k = 0 to 2 do
        let imms =
          List.init (1 + Random.State.int st 4) (fun _ -> Random.State.int st 200)
        in
        let circuit =
          Serv.core
            ~name:(Printf.sprintf "zerv_q%d" k)
            ~program:(prog_of_imms imms) ()
        in
        b := Vti.recompile !b ~path:Manycore.debug_core_path ~circuit;
        o := Flow_baseline.recompile !o ~path:Manycore.debug_core_path ~circuit;
        ok := !ok && same_build !b !o
      done;
      !ok)

(* Planted faults for [same_build]: a monolithic build doctored with one
   flipped word in one configuration frame, or with two entries of its
   timing report's [top_paths] swapped, must be rejected against the
   incremental build it otherwise equals. *)
let test_same_build_twins () =
  let p = project () in
  let path = Manycore.debug_core_path in
  let circuit = Serv.core ~name:"zerv_twin" ~program:(prog_of_imms [ 7; 9 ]) () in
  let b = Vti.recompile (Vti.compile p) ~path ~circuit in
  let o = Flow_baseline.recompile (Flow_baseline.compile (baseline_project p)) ~path ~circuit in
  Alcotest.(check bool) "undoctored baseline accepted" true (same_build b o);
  let flipped =
    match o.Flow_baseline.frames with
    | fw :: rest ->
      let data = Array.copy fw.Framegen.fw_data in
      data.(0) <- data.(0) lxor 1;
      { fw with Framegen.fw_data = data } :: rest
    | [] -> Alcotest.fail "baseline build has no frames"
  in
  Alcotest.(check bool) "twin: flipped frame word rejected" false
    (same_build b { o with Flow_baseline.frames = flipped });
  let timing = o.Flow_baseline.timing in
  let swapped =
    match timing.Timing.top_paths with
    | x :: y :: rest when x <> y -> y :: x :: rest
    | _ -> Alcotest.fail "top_paths has no two distinct leading entries"
  in
  Alcotest.(check bool) "twin: swapped top_paths rejected" false
    (same_build b
       { o with Flow_baseline.timing = { timing with Timing.top_paths = swapped } })

(* The fast timing evaluator against the seed DFS, outside the flow. *)
let test_analyze_fast_matches () =
  List.iter
    (fun (name, xlen) ->
      let netlist, _ = Synthesize.run (Serv.core ~name ?xlen ()) in
      let device = Device.u200 () in
      let regions = Place.whole_device_regions device in
      let locmap = (Place.run device ~regions netlist).Place.locmap in
      List.iter
        (fun (cong, util) ->
          match
            Timing.analyze_fast ~congestion:cong ~utilization:util netlist locmap
          with
          | None -> Alcotest.failf "%s: fast path unexpectedly bailed" name
          | Some fast ->
            let seed =
              Timing.analyze ~congestion:cong ~utilization:util netlist locmap
            in
            Alcotest.(check bool) (name ^ ": report equal") true (fast = seed))
        [ (1.0, 0.0); (1.7, 0.6); (0.4, 0.96) ])
    [ ("zerv_tfast", None); ("zerv_tfast_w", Some 31) ]

(* Partition overflow: must raise the typed exception AND leave the
   previous build usable for further incremental work. *)
let test_overflow_prev_usable () =
  let p = project () in
  let b = Vti.compile p in
  let o = Flow_baseline.compile (baseline_project p) in
  let overflowed = ref false in
  let xlens = [ 31; 63; 95; 127; 191; 255 ] in
  (try
     List.iter
       (fun xlen ->
         let program =
           Array.init 48 (fun i -> Serv.instr ~op:Serv.op_li ~rd:0 ~rs:0 ~imm:i)
         in
         let circuit =
           Serv.core ~name:(Printf.sprintf "zerv_of_%d" xlen) ~program ~xlen ()
         in
         match Vti.recompile b ~path:Manycore.debug_core_path ~circuit with
         | _ -> ()
         | exception Vti.Partition_overflow _ ->
           overflowed := true;
           raise Exit)
       xlens
   with Exit -> ());
  Alcotest.(check bool) "a grown core eventually overflows its region" true
    !overflowed;
  (* The failed recompile must not have corrupted [b]. *)
  let circuit = Serv.core ~name:"zerv_after_of" ~program:(prog_of_imms [ 7 ]) () in
  let b2 = Vti.recompile b ~path:Manycore.debug_core_path ~circuit in
  let o2 = Flow_baseline.recompile o ~path:Manycore.debug_core_path ~circuit in
  check_same "recompile after overflow" b2 o2

(* Checkpoint header hardening: version and toolchain-fingerprint
   mismatches raise the typed error before Marshal ever parses a body. *)
let test_checkpoint_header_mismatches () =
  let expect_bad name path =
    match Vti.load_checkpoint path with
    | _ -> Alcotest.failf "%s should have been rejected" name
    | exception Vti.Bad_checkpoint _ -> ()
    | exception (End_of_file | Failure _) ->
      Alcotest.failf "%s leaked an untyped exception" name
  in
  (* Old-format magic (v1 had no header at all). *)
  let old_magic = Filename.temp_file "zoomie_v1" ".dcp" in
  let oc = open_out_bin old_magic in
  output_string oc "ZOOMIE-DCP-1";
  output_string oc (Marshal.to_string (1, 2, 3) []);
  close_out oc;
  expect_bad "old-format magic" old_magic;
  Sys.remove old_magic;
  (* Right magic, wrong format version. *)
  let bad_version = Filename.temp_file "zoomie_vz" ".dcp" in
  let oc = open_out_bin bad_version in
  output_string oc Vti.checkpoint_magic;
  Marshal.to_channel oc (Vti.checkpoint_version + 1, Vti.checkpoint_fingerprint) [];
  Marshal.to_channel oc "junk body" [];
  close_out oc;
  expect_bad "version mismatch" bad_version;
  Sys.remove bad_version;
  (* Right magic and version, foreign toolchain fingerprint. *)
  let stale = Filename.temp_file "zoomie_fp" ".dcp" in
  let oc = open_out_bin stale in
  output_string oc Vti.checkpoint_magic;
  Marshal.to_channel oc (Vti.checkpoint_version, "0123456789abcdef") [];
  Marshal.to_channel oc "junk body" [];
  close_out oc;
  expect_bad "stale fingerprint" stale;
  Sys.remove stale;
  (* Magic + header but truncated before the body. *)
  let headless = Filename.temp_file "zoomie_hd" ".dcp" in
  let oc = open_out_bin headless in
  output_string oc Vti.checkpoint_magic;
  Marshal.to_channel oc (Vti.checkpoint_version, Vti.checkpoint_fingerprint) [];
  close_out oc;
  expect_bad "truncated after header" headless;
  Sys.remove headless

(* A raising task must surface its own exception (not a bare assert, not
   a hang): the pool abandons remaining work, joins every domain, and
   re-raises on the submitting domain.  The pool must stay usable for
   the next call. *)
let test_pool_raising_task () =
  let module Pool = Zoomie_vti.Pool in
  (match
     Pool.map_array ~jobs:4
       (fun i -> if i = 7 then failwith "task 7 exploded" else i * 2)
       (Array.init 64 Fun.id)
   with
  | exception Failure msg ->
    Alcotest.(check string) "task's own exception surfaces" "task 7 exploded"
      msg
  | exception e ->
    Alcotest.failf "wrong exception surfaced: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "raising task did not propagate");
  (* Wind-down was clean: a fresh map over the same pool size succeeds. *)
  let out = Pool.map_array ~jobs:4 (fun i -> i + 1) (Array.init 64 Fun.id) in
  Alcotest.(check int) "pool usable after failure" 64 out.(63)

let suite =
  suite
  @ [
      Alcotest.test_case "pool propagates a raising task" `Quick
        test_pool_raising_task;
      Alcotest.test_case "differential: incremental == monolithic" `Quick
        test_differential_fixed;
      QCheck_alcotest.to_alcotest prop_recompile_differential;
      Alcotest.test_case "differential twins: doctored baseline rejected" `Quick
        test_same_build_twins;
      Alcotest.test_case "timing: fast evaluator == seed DFS" `Quick
        test_analyze_fast_matches;
      Alcotest.test_case "partition overflow leaves prev usable" `Quick
        test_overflow_prev_usable;
      Alcotest.test_case "checkpoint header mismatches rejected" `Quick
        test_checkpoint_header_mismatches;
    ]

(* --- the board's frame -> state index vs the per-bit reference walk ---

   [Board.frame_index] stores memories as (site, frame) segments expanded
   in closed form at use time.  These tests pin it to the per-bit
   [iter_slr_ffs]/[iter_slr_mem_bits] walk: as a map from frame bits to
   state bits, through capture (frame fill) and through GRESTORE, after a
   full load and after a partial load that leaves the GSR restriction
   set.  Doctored indexes must be rejected by the same comparator. *)

module Netsim = Zoomie_synth.Netsim
module Netlist = Zoomie_synth.Netlist
module Frames = Zoomie_bitstream.Frames
module Uc = Zoomie_bitstream.Uc
module Loc = Zoomie_fabric.Loc
module Geometry = Zoomie_fabric.Geometry

let clog2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  max 1 (go 0)

(* Three written-only memories: [buf] is block RAM whose last block
   column and block row are partial at the default 50 x 1500, [lut] is a
   LUTRAM whose last 64-entry unit is partial at 5 x 100, and [same] a
   two-block-row BRAM. *)
let odd_mems_design ?(buf = (50, 1500)) ?(lut = (5, 100)) () =
  let b = Builder.create "odd_mems" in
  let clk = Builder.clock b "clk" in
  let we = Builder.input b "we" 1 in
  let ptr =
    Builder.reg_fb b ~clock:clk "ptr" 11 ~next:(fun q ->
        Expr.(q +: const_int ~width:11 1))
  in
  let data =
    Builder.reg_fb b ~clock:clk "data" 60 ~next:(fun q ->
        Expr.(q +: const_int ~width:60 0x9E3779B9))
  in
  let mem name (width, depth) =
    Builder.memory b ~name ~width ~depth
      ~writes:
        [
          {
            Circuit.w_clock = clk;
            w_enable = we;
            w_addr = Expr.Slice (Expr.Signal ptr, clog2 depth - 1, 0);
            w_data = Expr.Slice (Expr.Signal data, width - 1, 0);
          };
        ]
      ~reads:[] ()
  in
  mem "buf" buf;
  mem "lut" lut;
  mem "same" (40, 1100);
  ignore (Builder.output b "ptr_out" 11 (Expr.Signal ptr));
  Design.create ~top:"odd_mems" [ Builder.finish b ]

let odd_mems_run ?buf ?lut () =
  Zoomie_vendor.Vivado.compile
    {
      Zoomie_vendor.Vivado.device = Device.u200 ();
      design = odd_mems_design ?buf ?lut ();
      clock_root = "clk";
      freq_mhz = 50.0;
      replicated_units = [];
    }

let odd_mems_board () =
  let board = Board.create (Device.u200 ()) in
  Zoomie_vendor.Vivado.load_onto board (odd_mems_run ());
  board

let mem_index (nl : Netlist.t) name =
  let r = ref (-1) in
  Array.iteri (fun i (m : Netlist.mem) -> if m.Netlist.mem_name = name then r := i) nl.Netlist.mems;
  if !r < 0 then Alcotest.failf "no memory %S" name;
  !r

let randomize_state st board =
  let sim = Board.netsim board in
  let nl = (Board.payload board).Board.netlist in
  Array.iteri (fun i _ -> Netsim.set_ff sim i (Random.State.bool st)) nl.Netlist.ffs;
  Array.iteri
    (fun mi (m : Netlist.mem) ->
      for addr = 0 to m.Netlist.mem_depth - 1 do
        for bit = 0 to m.Netlist.mem_width - 1 do
          Netsim.set_mem_bit sim mi ~addr ~bit (Random.State.bool st)
        done
      done)
    nl.Netlist.mems

type state_bit = Ff of int | Mem of int * int * int  (* mi, addr, bit *)

(* Sorted (frame key, word, bit) -> state bit pairs of one SLR. *)
let walk_pairs board ~slr =
  let acc = ref [] in
  Board.iter_slr_ffs board ~slr (fun i site _ ->
      let minor, word, bit = Loc.ff_frame_bit site in
      acc := (((site.Loc.f_row, site.Loc.f_col, minor), word, bit), Ff i) :: !acc);
  Board.iter_slr_mem_bits board ~slr (fun ~mi ~addr ~bit ~key ~word ~fbit _ ->
      acc := ((key, word, fbit), Mem (mi, addr, bit)) :: !acc);
  List.sort compare !acc

(* The frames an index would touch on [slr] under the board's current
   CTL0 restriction, and the pairs its entries expand to. *)
let visible board ~slr (row, col, _) =
  (not (Uc.gsr_restricted (Board.uc board slr)))
  || Region.contains_any board.Board.dynamic_regions ~slr ~row ~col

let index_pairs board (idx : (Frames.key, Board.frame_bits) Hashtbl.t array) ~slr =
  let mems = (Board.payload board).Board.netlist.Netlist.mems in
  let keys = ref [] and acc = ref [] in
  Hashtbl.iter
    (fun key (fb : Board.frame_bits) ->
      if visible board ~slr key then begin
        keys := key :: !keys;
        Array.iter
          (fun (i, word, bit) -> acc := ((key, word, bit), Ff i) :: !acc)
          fb.Board.fb_ffs;
        Array.iter
          (fun seg ->
            Board.iter_segment mems seg (fun mi addr bit word fbit ->
                acc := ((key, word, fbit), Mem (mi, addr, bit)) :: !acc))
          fb.Board.fb_mems
      end)
    idx.(slr);
  (List.sort_uniq compare !keys, List.sort compare !acc)

let random_frame st =
  Array.init Geometry.words_per_frame (fun _ ->
      (Random.State.bits st lsl 2) lor Random.State.int st 4)

let keys_of pairs = List.sort_uniq compare (List.map (fun ((key, _, _), _) -> key) pairs)

(* The comparator: [idx] covers exactly the walk's bits on every SLR —
   same frame bit -> state bit map, no frame outside the walk's. *)
let index_agrees board idx =
  List.for_all
    (fun slr ->
      let walk = walk_pairs board ~slr in
      let keys, pairs = index_pairs board idx ~slr in
      pairs = walk && keys = keys_of walk)
    (List.init (Array.length board.Board.ucs) Fun.id)

(* Planted faults: [idx] with the first segment (in key order) of a
   frame visible on [board] that [doctor] changes replaced by its
   doctored twin. *)
let doctored board idx doctor =
  let out = Array.map Hashtbl.copy idx in
  let planted = ref false in
  Array.iteri
    (fun slr tbl ->
      let keys =
        Hashtbl.fold (fun k _ l -> if visible board ~slr k then k :: l else l) tbl []
        |> List.sort compare
      in
      List.iter
        (fun key ->
          let fb : Board.frame_bits = Hashtbl.find tbl key in
          Array.iteri
            (fun j seg ->
              if not !planted then
                match doctor seg with
                | None -> ()
                | Some seg' ->
                  planted := true;
                  let segs = Array.copy fb.Board.fb_mems in
                  segs.(j) <- seg';
                  Hashtbl.replace tbl key { fb with Board.fb_mems = segs })
            fb.Board.fb_mems)
        keys)
    out;
  if not !planted then Alcotest.fail "no segment to doctor";
  out

(* Every state frame of [slr], visible or not: the walk's and the
   index's. *)
let state_keys board walk ~slr =
  List.sort_uniq compare
    (keys_of walk
    @ Hashtbl.fold (fun k _ l -> k :: l) (Board.frame_index board).(slr) [])

(* Capture through the index must produce, in every state frame, exactly
   the frame the walk produces from the same starting contents (frames
   the restriction hides stay as they were) — and touch no other frame. *)
let check_fill st board =
  let sim = Board.netsim board in
  Array.iteri
    (fun slr (u : Uc.t) ->
      let walk = walk_pairs board ~slr in
      let keys = state_keys board walk ~slr in
      List.iter
        (fun key ->
          Frames.write_frame u.Uc.frames key
            (random_frame st))
        keys;
      let expected = Frames.create () in
      List.iter (fun key -> Frames.write_frame expected key (Frames.read_frame u.Uc.frames key)) keys;
      List.iter
        (fun ((key, word, bit), sb) ->
          Frames.set_bit expected key ~word ~bit
            (match sb with
            | Ff i -> Netsim.ff_value sim i
            | Mem (mi, addr, b) -> Netsim.mem_bit sim mi ~addr ~bit:b))
        walk;
      let allocated = Frames.allocated u.Uc.frames in
      Board.capture_slr board slr;
      Alcotest.(check int)
        (Printf.sprintf "SLR %d: capture touched only walked frames" slr)
        allocated (Frames.allocated u.Uc.frames);
      List.iter
        (fun key ->
          if Frames.read_frame u.Uc.frames key <> Frames.read_frame expected key then
            let r, c, m = key in
            Alcotest.failf "SLR %d frame (%d,%d,%d): index fill != walk fill" slr r c m)
        keys)
    board.Board.ucs

let live_state board =
  let sim = Board.netsim board in
  let nl = (Board.payload board).Board.netlist in
  ( Array.init (Array.length nl.Netlist.ffs) (Netsim.ff_value sim),
    Array.mapi
      (fun mi (m : Netlist.mem) ->
        Array.init (m.Netlist.mem_depth * m.Netlist.mem_width) (fun j ->
            Netsim.mem_bit sim mi ~addr:(j / m.Netlist.mem_width)
              ~bit:(j mod m.Netlist.mem_width)))
      nl.Netlist.mems )

(* GRESTORE of random contents in every state frame must set exactly
   the FF and memory bits the walk names, from exactly the frame bits it
   names. *)
let check_restore st board =
  let nl = (Board.payload board).Board.netlist in
  Array.iteri
    (fun slr (u : Uc.t) ->
      let walk = walk_pairs board ~slr in
      Uc.arm_capture u;
      List.iter
        (fun key ->
          Frames.write_frame u.Uc.frames key
            (random_frame st);
          Uc.mark_dirty u key)
        (state_keys board walk ~slr);
      let ffs, mems = live_state board in
      List.iter
        (fun ((key, word, bit), sb) ->
          let v = Frames.get_bit u.Uc.frames key ~word ~bit in
          match sb with
          | Ff i -> ffs.(i) <- v
          | Mem (mi, addr, b) ->
            mems.(mi).((addr * nl.Netlist.mems.(mi).Netlist.mem_width) + b) <- v)
        walk;
      Board.restore_slr board slr;
      let ffs', mems' = live_state board in
      Alcotest.(check bool)
        (Printf.sprintf "SLR %d: restored FFs == walk" slr) true (ffs = ffs');
      Alcotest.(check bool)
        (Printf.sprintf "SLR %d: restored memories == walk" slr) true (mems = mems'))
    board.Board.ucs

(* [~bram:false] where no multi-column block RAM is visible (a VTI
   partition of the manycore holds only LUTRAM). *)
let check_twins ?(bram = true) board =
  let idx = Board.frame_index board in
  Alcotest.(check bool) "index == per-bit walk" true (index_agrees board idx);
  let nl = (Board.payload board).Board.netlist in
  let multi_column mi = nl.Netlist.mems.(mi).Netlist.mem_width > 36 in
  if bram then
    Alcotest.(check bool) "twin: off-by-one block column rejected" false
      (index_agrees board
         (doctored board idx (function
           | Board.Bram_seg s when s.block_col = 0 && multi_column s.mi ->
             Some (Board.Bram_seg { s with block_col = 1 })
           | _ -> None)));
  Alcotest.(check bool) "twin: off-by-one LUTRAM tile rejected" false
    (index_agrees board
       (doctored board idx (function
         | Board.Lutram_seg s -> Some (Board.Lutram_seg { s with tile = s.tile + 1 })
         | _ -> None)))

(* The LUTRAM word path capture and restore take: every visible
   [Lutram_seg] expanded half by half through [Board.iter_lutram_halves],
   with [doctor] applied to each half's entry mask, must name exactly the
   walk's LUTRAM bits. *)
let lutram_words_agree board idx doctor =
  let p = Board.payload board in
  let mems = p.Board.netlist.Netlist.mems in
  let lutram mi =
    match p.Board.locmap.Loc.mem_placements.(mi) with
    | Loc.In_lutram _ -> true
    | Loc.In_bram _ -> false
  in
  let slrs = List.init (Array.length board.Board.ucs) Fun.id in
  let walks =
    List.map
      (fun slr ->
        List.filter
          (function _, Mem (mi, _, _) -> lutram mi | _, Ff _ -> false)
          (walk_pairs board ~slr))
      slrs
  in
  List.exists (( <> ) []) walks
  && List.for_all2
    (fun slr walk ->
      let acc = ref [] in
      Hashtbl.iter
        (fun key (fb : Board.frame_bits) ->
          if visible board ~slr key then
            Array.iter
              (function
                | Board.Lutram_seg { mi; bit; depth_unit; tile } ->
                  Board.iter_lutram_halves mems ~mi ~bit ~depth_unit ~tile
                    (fun mi bit word addr0 mask ->
                      let mask = doctor mask in
                      for a = 0 to 31 do
                        if (mask lsr a) land 1 = 1 then
                          acc := ((key, word, a), Mem (mi, addr0 + a, bit)) :: !acc
                      done)
                | Board.Bram_seg _ -> ())
              fb.Board.fb_mems)
        idx.(slr);
      List.sort compare !acc = walk)
    slrs walks

(* Set the CTL0 GSR restriction on every SLR of [regions] through the
   configuration port, as a partial bitstream leaves it. *)
let restrict board regions =
  board.Board.dynamic_regions <- regions;
  let primary = (Board.device board).Device.primary in
  let n = Array.length board.Board.ucs in
  List.iter
    (fun (r : Region.t) ->
      let prog = Zoomie_bitstream.Program.create () in
      Zoomie_bitstream.Program.sync prog;
      Zoomie_bitstream.Program.select_slr prog ~hops:((r.Region.slr - primary + n) mod n);
      Zoomie_bitstream.Program.set_ctl0 prog ~mask:1 ~value:1;
      Zoomie_bitstream.Program.desync prog;
      ignore (Board.execute board (Zoomie_bitstream.Program.words prog) : int array))
    regions

let test_index_full_load () =
  let st = Random.State.make [| 12 |] in
  let board = odd_mems_board () in
  randomize_state st board;
  check_twins board;
  (* [lut] is 5 x 100: its second 64-entry unit ends in a 4-entry half. *)
  let idx = Board.frame_index board in
  Alcotest.(check bool) "LUTRAM word path == per-bit walk" true
    (lutram_words_agree board idx Fun.id);
  Alcotest.(check bool) "twin: half-word mask one entry too wide rejected" false
    (lutram_words_agree board idx (fun mask -> ((mask lsl 1) lor 1) land 0xFFFFFFFF));
  check_fill st board;
  check_restore st board;
  (* Restricted to the columns holding the first site of [buf] and of
     [lut]: only part of each memory stays visible. *)
  let p = Board.payload board in
  let column_of name =
    match p.Board.locmap.Loc.mem_placements.(mem_index p.Board.netlist name) with
    | Loc.In_bram s ->
      let s = s.(0) in
      Region.make ~slr:s.Loc.b_slr ~row_lo:s.Loc.b_row ~row_hi:s.Loc.b_row
        ~col_lo:s.Loc.b_col ~col_hi:s.Loc.b_col
    | Loc.In_lutram s ->
      let s = s.(0) in
      Region.make ~slr:s.Loc.l_slr ~row_lo:s.Loc.l_row ~row_hi:s.Loc.l_row
        ~col_lo:s.Loc.l_col ~col_hi:s.Loc.l_col
  in
  restrict board [ column_of "buf"; column_of "lut" ];
  Alcotest.(check bool) "restriction set" true
    (Array.exists Uc.gsr_restricted board.Board.ucs);
  check_twins board;
  check_fill st board;
  check_restore st board

(* After a partial load the CTL0 GSR restriction confines capture and
   restore to the dynamic region: the index must honor it frame by
   frame exactly as the walk does bit by bit. *)
let test_index_partial_load () =
  let st = Random.State.make [| 13 |] in
  let build = Vti.compile (project ()) in
  let board = Board.create (Device.u200 ()) in
  Vti.load_onto board build;
  let circuit =
    Serv.core ~name:"zerv_core_index_test"
      ~program:[| Serv.instr ~op:Serv.op_halt ~rd:0 ~rs:0 ~imm:0 |] ()
  in
  Vti.load_onto board (Vti.recompile build ~path:Manycore.debug_core_path ~circuit);
  Alcotest.(check bool) "partial load left the GSR restriction set" true
    (Array.exists Uc.gsr_restricted board.Board.ucs);
  randomize_state st board;
  check_twins ~bram:false board;
  check_fill st board;
  check_restore st board

(* --- live memory state across a partial load --- *)

let mem_contents sim (m : Netlist.mem) mi =
  let w = m.Netlist.mem_width in
  Array.init (m.Netlist.mem_depth * w) (fun j ->
      Netsim.mem_bit sim mi ~addr:(j / w) ~bit:(j mod w))

let mem_in_regions (p : Board.payload) regions mi =
  match p.Board.locmap.Loc.mem_placements.(mi) with
  | Loc.In_bram sites ->
    Array.exists
      (fun (s : Loc.bram_site) ->
        Region.contains_any regions ~slr:s.Loc.b_slr ~row:s.Loc.b_row ~col:s.Loc.b_col)
      sites
  | Loc.In_lutram sites ->
    Array.exists
      (fun (s : Loc.lut_site) ->
        Region.contains_any regions ~slr:s.Loc.l_slr ~row:s.Loc.l_row ~col:s.Loc.l_col)
      sites

(* Static memories keep their contents bit for bit across a partial
   Vti load; memories inside the reconfigured region come up at their
   initial contents even though a memory of the same name held data. *)
let test_carry_over_partial () =
  let st = Random.State.make [| 14 |] in
  let build = Vti.compile (project ()) in
  let board = Board.create (Device.u200 ()) in
  Vti.load_onto board build;
  randomize_state st board;
  let old_sim = Board.netsim board in
  let before = Hashtbl.create 64 in
  Array.iteri
    (fun mi (m : Netlist.mem) ->
      Hashtbl.replace before m.Netlist.mem_name (mem_contents old_sim m mi))
    (Board.payload board).Board.netlist.Netlist.mems;
  let circuit =
    Serv.core ~name:"zerv_core_carry_test"
      ~program:[| Serv.instr ~op:Serv.op_halt ~rd:0 ~rs:0 ~imm:0 |] ()
  in
  Vti.load_onto board (Vti.recompile build ~path:Manycore.debug_core_path ~circuit);
  let p = Board.payload board in
  let sim = Board.netsim board in
  let init = Netsim.create p.Board.netlist in
  let static = ref 0 and dynamic = ref 0 in
  Array.iteri
    (fun mi (m : Netlist.mem) ->
      let name = m.Netlist.mem_name in
      let got = mem_contents sim m mi in
      if mem_in_regions p board.Board.dynamic_regions mi then begin
        incr dynamic;
        Alcotest.(check bool) (name ^ " re-initialized") true
          (got = mem_contents init m mi);
        Alcotest.(check bool) (name ^ " held data before") true
          (Hashtbl.mem before name)
      end
      else begin
        incr static;
        Alcotest.(check bool) (name ^ " carried bit for bit") true
          (got = Hashtbl.find before name)
      end)
    p.Board.netlist.Netlist.mems;
  Alcotest.(check bool) "some static memories" true (!static > 0);
  Alcotest.(check bool) "some dynamic memories" true (!dynamic > 0)

(* A static memory carries over only to a memory of the same name AND
   the same width and depth. *)
let test_carry_over_geometry () =
  let st = Random.State.make [| 15 |] in
  let board = odd_mems_board () in
  randomize_state st board;
  let old_sim = Board.netsim board in
  let old_nl = (Board.payload board).Board.netlist in
  let run = odd_mems_run ~buf:(50, 1400) ~lut:(6, 100) () in
  let p = Option.get run.Zoomie_vendor.Vivado.bitstream.Board.bs_payload in
  let fresh = Netsim.create p.Board.netlist in
  Board.carry_over_state board fresh p ~dynamic:[];
  let init = Netsim.create p.Board.netlist in
  let contents sim nl name =
    let mi = mem_index nl name in
    mem_contents sim nl.Netlist.mems.(mi) mi
  in
  Alcotest.(check bool) "same geometry: carried" true
    (contents fresh p.Board.netlist "same" = contents old_sim old_nl "same");
  Alcotest.(check bool) "depth differs: not carried" true
    (contents fresh p.Board.netlist "buf" = contents init p.Board.netlist "buf");
  Alcotest.(check bool) "width differs: not carried" true
    (contents fresh p.Board.netlist "lut" = contents init p.Board.netlist "lut")

(* --- FF carry-over: aligned positions vs by name ---

   [Board.carry_over_state] matches FFs by position where the old and new
   [ff_names] arrays align from the front or the back, and by name only
   in the unaligned middle.  The reference here is the plain by-name
   definition: every new FF outside the dynamic regions takes the value
   of the old FF with the same (name, bit).  Both agree only when those
   keys are unique in each netlist, which every tested netlist must show. *)

let names_unique (nl : Netlist.t) =
  let seen = Hashtbl.create 1024 in
  Array.for_all
    (fun key ->
      (not (Hashtbl.mem seen key))
      && (Hashtbl.add seen key ();
          true))
    nl.Netlist.ff_names

(* Per new FF, the old FF its value comes from (if any). *)
let by_name_sources (old_nl : Netlist.t) (p : Board.payload) ~dynamic =
  let old_index = Hashtbl.create 1024 in
  Array.iteri (fun j key -> Hashtbl.replace old_index key j) old_nl.Netlist.ff_names;
  Array.mapi
    (fun i key ->
      let s = p.Board.locmap.Loc.ff_sites.(i) in
      if Region.contains_any dynamic ~slr:s.Loc.f_slr ~row:s.Loc.f_row ~col:s.Loc.f_col
      then None
      else Hashtbl.find_opt old_index key)
    p.Board.netlist.Netlist.ff_names

(* The planted fault: every FF whose match moved (the suffix behind a
   stamp that grew) reads the old FF one before its match. *)
let off_by_one_suffix sources =
  Array.mapi (fun i src -> match src with Some j when j <> i -> Some (j - 1) | s -> s) sources

(* Carry the board's live design into a fresh model of [p]; [true] when
   every FF holds its source's old value, or its initial value when it
   has no source. *)
let carry_agrees board (p : Board.payload) ~dynamic sources =
  let old_sim = Board.netsim board in
  let fresh = Netsim.create p.Board.netlist in
  Board.carry_over_state board fresh p ~dynamic;
  let init = Netsim.create p.Board.netlist in
  let ok = ref true in
  Array.iteri
    (fun i src ->
      let want =
        match src with
        | Some j -> Netsim.ff_value old_sim j
        | None -> Netsim.ff_value init i
      in
      if Netsim.ff_value fresh i <> want then ok := false)
    sources;
  !ok

(* Compare on every FF, with no dynamic region and with the load's own. *)
let check_carry what board (bs : Board.bitstream) =
  let old_nl = (Board.payload board).Board.netlist in
  let p = Option.get bs.Board.bs_payload in
  Alcotest.(check bool) (what ^ ": old names unique") true (names_unique old_nl);
  Alcotest.(check bool) (what ^ ": new names unique") true (names_unique p.Board.netlist);
  List.iter
    (fun (label, dynamic) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s, %s: carry-over == by name" what label)
        true
        (carry_agrees board p ~dynamic (by_name_sources old_nl p ~dynamic)))
    [ ("no dynamic region", []); ("load's dynamic regions", bs.Board.bs_dynamic) ]

let ff_count (nl : Netlist.t) = Array.length nl.Netlist.ff_names

let test_carry_over_ffs_vti () =
  let st = Random.State.make [| 16 |] in
  let build = Vti.compile (project ()) in
  let board = Board.create (Device.u200 ()) in
  Vti.load_onto board build;
  randomize_state st board;
  let old_n = ff_count build.Vti.netlist in
  let path = Manycore.debug_core_path in
  let same = Vti.recompile build ~path ~circuit:(Serv.core ~name:"zerv_carry_same" ()) in
  Alcotest.(check int) "same-size stamp keeps the FF count" old_n (ff_count same.Vti.netlist);
  check_carry "same-size stamp" board same.Vti.bitstream;
  let grown =
    Vti.recompile build ~path ~circuit:(Serv.core ~name:"zerv_carry_grown" ~xlen:20 ())
  in
  let grown_n = ff_count grown.Vti.netlist in
  Alcotest.(check bool) "grown stamp has more FFs" true (grown_n > old_n);
  check_carry "grown stamp" board grown.Vti.bitstream;
  let p = Option.get grown.Vti.bitstream.Board.bs_payload in
  let sources = by_name_sources build.Vti.netlist p ~dynamic:[] in
  Alcotest.(check bool) "grown stamp shifts the suffix" true
    (Array.exists Fun.id (Array.mapi (fun i src -> Option.fold ~none:false ~some:(( <> ) i) src) sources));
  Alcotest.(check bool) "twin: off-by-one suffix shift rejected" false
    (carry_agrees board p ~dynamic:[] (off_by_one_suffix sources))

(* Two unrelated netlists: the same design with its FFs shuffled, first
   and last FF moved, so no prefix or suffix aligns. *)
let test_carry_over_ffs_shuffled () =
  let st = Random.State.make [| 17 |] in
  let board = odd_mems_board () in
  randomize_state st board;
  let p = Board.payload board in
  let nl = p.Board.netlist in
  let n = ff_count nl in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let swap a b =
    let t = perm.(a) in
    perm.(a) <- perm.(b);
    perm.(b) <- t
  in
  if perm.(0) = 0 then swap 0 1;
  if perm.(n - 1) = n - 1 then swap (n - 1) (n - 2);
  let permute a = Array.map (fun k -> a.(k)) perm in
  let shuffled =
    {
      p with
      Board.netlist =
        { nl with Netlist.ffs = permute nl.Netlist.ffs; ff_names = permute nl.Netlist.ff_names };
      locmap = { p.Board.locmap with Loc.ff_sites = permute p.Board.locmap.Loc.ff_sites };
    }
  in
  Alcotest.(check bool) "no common first FF" true
    (nl.Netlist.ff_names.(0) <> shuffled.Board.netlist.Netlist.ff_names.(0));
  Alcotest.(check bool) "no common last FF" true
    (nl.Netlist.ff_names.(n - 1) <> shuffled.Board.netlist.Netlist.ff_names.(n - 1));
  check_carry "shuffled FFs" board
    { Board.bs_words = [||]; bs_payload = Some shuffled; bs_partial = true; bs_dynamic = [] }

let suite =
  suite
  @ [
      Alcotest.test_case "frame index == per-bit walk, full load" `Quick
        test_index_full_load;
      Alcotest.test_case "frame index == per-bit walk, partial load" `Quick
        test_index_partial_load;
      Alcotest.test_case "partial load carries static memories" `Quick
        test_carry_over_partial;
      Alcotest.test_case "carry-over needs equal memory geometry" `Quick
        test_carry_over_geometry;
      Alcotest.test_case "FF carry-over == by name, VTI loads" `Quick
        test_carry_over_ffs_vti;
      Alcotest.test_case "FF carry-over == by name, shuffled FFs" `Quick
        test_carry_over_ffs_shuffled;
    ]
