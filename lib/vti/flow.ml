(** The VTI compilation flow (§3.5, Figure 4, Table 1).

    Compilation unit: partition.  Optimization: partition-local.  Linking:
    after routing.  The designer declares which instances they will iterate
    on; each gets an over-provisioned private region inside the debug SLR,
    everything else is compiled into the static region.  Incremental
    recompiles touch exactly one partition: re-synthesize the changed
    module, re-place-and-route its region, re-link, and emit a *partial*
    bitstream that reconfigures only that region.

    This engine makes the incremental claim real in wall-clock, not just
    in the cost model: a {!build} carries an {!incr_state} — per-stamp net
    geometry ({!Zoomie_synth.Link.link_indexed}), folded static route
    contributions ({!Zoomie_pnr.Route.cache_of_contribs}), per-partition
    frame slices and a module-digest synthesis cache — so {!recompile}
    splices the changed stamp into the linked netlist
    ({!Zoomie_synth.Link.relink_stamp}), updates the route estimate from
    cached contributions and re-merges cached frame slices instead of
    redoing the whole design.  The Figure 4 fan-out (unique-module
    synthesis, per-region placement, per-partition frame generation) runs
    on a {!Pool} of OCaml 5 domains.  Every output is bit-for-bit equal to
    {!Flow_baseline}, the seed monolithic engine, which the QCheck
    differential in [test/test_vti.ml] pins. *)

open Zoomie_rtl
open Zoomie_fabric
module Netlist = Zoomie_synth.Netlist
module Synthesize = Zoomie_synth.Synthesize
module Link = Zoomie_synth.Link
module Place = Zoomie_pnr.Place
module Sites = Zoomie_pnr.Sites
module Route = Zoomie_pnr.Route
module Timing = Zoomie_pnr.Timing
module Framegen = Zoomie_pnr.Framegen
module Cost_model = Zoomie_pnr.Cost_model
module Board = Zoomie_bitstream.Board
module Bitgen = Zoomie_vendor.Bitgen

type project = {
  device : Device.t;
  design : Design.t;
  clock_root : string;
  freq_mhz : float;
  replicated_units : string list;
      (** module names synthesized once and stamped per instance *)
  iterated : string list;
      (** instance paths the designer will recompile during debugging *)
  c : float;  (** over-provision coefficient *)
  debug_slr : int;
}

(* Per-stamp compilation artifacts, cached across incremental runs. *)
type stamp_build = {
  sb_path : string;
  sb_module : string;
  sb_netlist : Netlist.t;
  sb_stats : Synthesize.stats;
  sb_locmap : Loc.map;
  sb_clock_env : (string * string) list;
  sb_region : Region.t option;  (* Some = iterated partition *)
}

(* The delta-path caches that need the no-aliasing guarantee of
   Link.relink_stamp.  Dropped (None) when a stamp aliases shell nets;
   recompile then falls back to a full link. *)
type fast_state = {
  fs_index : Link.index;
  fs_route_cache : Route.cache;  (* shell + static stamps, folded *)
  fs_iter_contribs : (string * Route.contrib) list;  (* iterated path -> *)
}

type incr_state = {
  is_fast : fast_state option;
  is_static_frames : Framegen.frame_write list;
      (* merged frames of the shell and every static stamp *)
  is_iter_frames : (string * Framegen.frame_write list) list;
      (* iterated path -> that partition's frame slice *)
  is_synth_cache : (string, Netlist.t * Synthesize.stats) Hashtbl.t;
      (* module-body digest -> synthesis result; append-only, so builds
         sharing the table (prev and next) stay independently usable *)
}

type build = {
  project : project;
  shell_netlist : Netlist.t;
  shell_stats : Synthesize.stats;
  shell_locmap : Loc.map;
  stamps : stamp_build list;  (* in link order *)
  partition_regions : (string * Region.t) list;  (* iterated path -> region *)
  static_regions : Region.t list;
  netlist : Netlist.t;       (* linked *)
  locmap : Loc.map;          (* merged, indexes the linked netlist *)
  route : Route.stats;
  timing : Timing.report;
  frames : Framegen.frame_write list;
  bitstream : Board.bitstream;
  modeled_seconds : float;   (* this run's modeled wall clock *)
  cost : Cost_model.phase;
  incr : incr_state;
}

(* Fixed modeled cost of the final link step: loading the routed
   checkpoint of the full design and assembling the (partial) bitstream. *)
let link_overhead_s = 600.0

(* Parallel partition compiles (the Figure 4 fan-out) in the cost model;
   the measured fan-out uses Pool.default_jobs domains. *)
let parallel_jobs = 8

let demand_of netlist =
  let lut, lutram, ff, bram = Netlist.resources netlist in
  Resource.make ~lut:(lut + lutram) ~lutram ~ff ~bram ()

let payload project netlist locmap =
  {
    Board.netlist;
    locmap;
    clock_root = project.clock_root;
    freq_mhz = project.freq_mhz;
  }

module Obs = Zoomie_obs.Obs

(* Compile-flow observability: which path a recompile took (splice vs
   full link, synthesis cache), and how wide the Domain-pool fan-outs
   are.  The phase structure itself is traced through [timed]. *)
let obs_synth_hits = Obs.counter "vti.synth_cache_hits"
let obs_synth_misses = Obs.counter "vti.synth_cache_misses"
let obs_relink_splice = Obs.counter "vti.relink_splice"
let obs_full_link = Obs.counter "vti.full_link"
let obs_pool_depth = Obs.gauge "vti.pool_queue_depth"

(* Every compile phase is a trace span, so `zoomie --trace` shows where
   a compile or recompile spends its time. *)
let timed name f = Obs.span ~cat:"vti" ("vti." ^ name) f

(* Pool fan-out, with the submitted array length recorded as the queue
   depth (from the calling domain only — workers never touch obs). *)
let pool_map ?jobs f a =
  Obs.max_gauge obs_pool_depth (float_of_int (Array.length a));
  Pool.map_array ?jobs f a

let stamped_of sb =
  {
    Link.st_path = sb.sb_path;
    st_netlist = sb.sb_netlist;
    st_clock_env = sb.sb_clock_env;
  }

let merged_locmap ~shell_locmap ~stamps =
  Place.concat_locmaps (shell_locmap :: List.map (fun sb -> sb.sb_locmap) stamps)

(* One-allocation array splice: [prev_arr] with the [old_len] elements at
   [lo] replaced by [new_seg]. *)
let splice_array (prev_arr : 'a array) ~lo ~old_len (new_seg : 'a array) =
  let tail = Array.length prev_arr - lo - old_len in
  let nlen = Array.length new_seg in
  let total = lo + nlen + tail in
  if total = 0 then [||]
  else begin
    let dummy = if nlen > 0 then new_seg.(0) else prev_arr.(0) in
    let r = Array.make total dummy in
    Array.blit prev_arr 0 r 0 lo;
    Array.blit new_seg 0 r lo nlen;
    Array.blit prev_arr (lo + old_len) r (lo + nlen) tail;
    r
  end

(* The merged locmap after one stamp's re-place: splice the new segment
   into the previous merged map instead of re-concatenating all ~5400
   segments.  Equal to [merged_locmap] over the updated stamp list
   because concatenation is segment-wise. *)
let spliced_locmap ~(prev : Loc.map) ~shell_locmap ~old_stamps ~path
    ~(new_locmap : Loc.map) =
  let seg_maps =
    Array.of_list
      (shell_locmap :: List.map (fun sb -> sb.sb_locmap) old_stamps)
  in
  let k =
    let r = ref (-1) in
    List.iteri (fun i sb -> if sb.sb_path = path then r := i + 1) old_stamps;
    !r
  in
  let splice count prev_arr new_seg =
    let lo = ref 0 in
    for j = 0 to k - 1 do
      lo := !lo + count seg_maps.(j)
    done;
    splice_array prev_arr ~lo:!lo ~old_len:(count seg_maps.(k)) new_seg
  in
  {
    Loc.ff_sites =
      splice
        (fun m -> Array.length m.Loc.ff_sites)
        prev.Loc.ff_sites new_locmap.Loc.ff_sites;
    lut_sites =
      splice
        (fun m -> Array.length m.Loc.lut_sites)
        prev.Loc.lut_sites new_locmap.Loc.lut_sites;
    mem_placements =
      splice
        (fun m -> Array.length m.Loc.mem_placements)
        prev.Loc.mem_placements new_locmap.Loc.mem_placements;
    dsp_sites =
      splice
        (fun m -> Array.length m.Loc.dsp_sites)
        prev.Loc.dsp_sites new_locmap.Loc.dsp_sites;
  }

(* Modeled compile phases for one component. *)
let component_cost ~gate_nodes ~cells ~utilization ~wirelength ~congestion ~frames =
  Cost_model.compile ~gate_nodes ~cells ~utilization ~wirelength ~congestion
    ~frames

(* Combine parallel partition costs: wall = max(static, slowest partition)
   approximated as static + partitions/jobs. *)
let parallel_wall ~static_s ~partition_s =
  let spread = List.fold_left ( +. ) 0.0 partition_s /. float_of_int parallel_jobs in
  let slowest = List.fold_left max 0.0 partition_s in
  max static_s (max slowest spread) +. (0.03 *. static_s)
(* 3%: the partition-constraint overhead VTI pays on the static region. *)

let device_util project netlist =
  let used = Place.resources_of_netlist netlist in
  let cap = Device.resources project.device in
  List.fold_left
    (fun acc k ->
      let c = Resource.get cap k in
      if c = 0 then acc
      else Float.max acc (float_of_int (Resource.get used k) /. float_of_int c))
    0.0 Resource.all_kinds

(* Timing via the flat-array evaluator, falling back to the seed DFS on
   the graphs (multi-driven nets, combinational cycles) where the DFS
   order is load-bearing.  Both produce identical reports elsewhere. *)
let analyze_timing ~congestion ~utilization netlist locmap =
  match Timing.analyze_fast ~congestion ~utilization netlist locmap with
  | Some r -> r
  | None -> Timing.analyze ~congestion ~utilization netlist locmap

(* Content hash of a module body.  Sound as a synthesis-cache key within
   one build lineage: Hier.synth_module output depends on the circuit and
   on the modules it instantiates, and the latter never change across
   recompiles (recompile always submits the changed module itself). *)
let circuit_digest (c : Circuit.t) = Digest.string (Marshal.to_string c [])

(* Per-segment route contributions (shell first, then stamps in link
   order).  Shell-aliasing safe: both the shell segment and the stamp
   boundary maps key nets by their final (root) shell id. *)
let route_contribs ?jobs ~index ~shell_netlist ~shell_locmap stamps =
  let seg = Array.of_list stamps in
  pool_map ?jobs
    (fun i ->
      if i = 0 then
        Route.contrib_of ~shell_remap:(Link.shell_remap index) shell_netlist
          shell_locmap
      else
        let sb = seg.(i - 1) in
        Route.contrib_of
          ~bmap:(Link.stamp_bmap index (i - 1))
          sb.sb_netlist sb.sb_locmap)
    (Array.init (1 + Array.length seg) Fun.id)

(* Split per-segment contributions into the folded static cache and the
   per-iterated-stamp list the recompile path swaps entries of. *)
let route_cache_of ~nshell ~contribs stamps =
  let static = ref [ contribs.(0) ] and iter = ref [] in
  List.iteri
    (fun i sb ->
      match sb.sb_region with
      | None -> static := contribs.(i + 1) :: !static
      | Some _ -> iter := (sb.sb_path, contribs.(i + 1)) :: !iter)
    stamps;
  let cache = Route.cache_of_contribs ~nshell (List.rev !static) in
  (cache, List.rev !iter)

(* Per-segment frame slices, merged into the cached static set and the
   per-iterated-partition list.  Exact: framegen only reads truth tables,
   FF inits and placements, never net ids, and site allocations are
   disjoint across segments. *)
let frame_slices ?jobs ~shell_netlist ~shell_locmap stamps =
  let seg = Array.of_list stamps in
  let slices =
    pool_map ?jobs
      (fun i ->
        if i = 0 then Framegen.generate shell_netlist shell_locmap
        else Framegen.generate seg.(i - 1).sb_netlist seg.(i - 1).sb_locmap)
      (Array.init (1 + Array.length seg) Fun.id)
  in
  let static = ref [ slices.(0) ] and iter = ref [] in
  List.iteri
    (fun i sb ->
      match sb.sb_region with
      | None -> static := slices.(i + 1) :: !static
      | Some _ -> iter := (sb.sb_path, slices.(i + 1)) :: !iter)
    stamps;
  (Framegen.merge (List.rev !static), List.rev !iter)

(** Initial (from-scratch) VTI compile.  [jobs] caps the domain fan-out
    (default {!Pool.default_jobs}); results are independent of it. *)
let compile ?jobs (project : project) : build =
  let shell_circuit, bbs =
    Flat.elaborate_shell project.design ~units:project.replicated_units
  in
  (* Unique modules, first-occurrence order. *)
  let uniq = Hashtbl.create 8 in
  let modules =
    List.filter_map
      (fun (bb : Flat.blackbox) ->
        if Hashtbl.mem uniq bb.Flat.bb_module then None
        else begin
          Hashtbl.add uniq bb.Flat.bb_module ();
          Some bb.Flat.bb_module
        end)
      bbs
    |> Array.of_list
  in
  (* Shell synthesis and one synthesis per unique module — the Figure 4
     fan-out, on real domains.  Task 0 is the shell. *)
  let synth_results =
    timed "synth fan-out" (fun () ->
        pool_map ?jobs
          (fun i ->
            if i = 0 then `Shell (Synthesize.run shell_circuit)
            else
              `Unit (Zoomie_synth.Hier.synth_module project.design modules.(i - 1)))
          (Array.init (1 + Array.length modules) Fun.id))
  in
  let shell_netlist, shell_stats =
    match synth_results.(0) with `Shell r -> r | `Unit _ -> assert false
  in
  let cache = Hashtbl.create 8 in
  Array.iteri
    (fun i r ->
      if i > 0 then
        match r with
        | `Unit r -> Hashtbl.add cache modules.(i - 1) r
        | `Shell _ -> assert false)
    synth_results;
  (* Seed the content-hash synthesis cache so a recompile that submits an
     unchanged module body skips synthesis entirely. *)
  let synth_cache = Hashtbl.create 8 in
  Array.iter
    (fun m ->
      Hashtbl.replace synth_cache
        (circuit_digest (Design.find project.design m))
        (Hashtbl.find cache m))
    modules;
  (* Provision regions for iterated instances. *)
  let bb_by_path = Hashtbl.create (List.length bbs) in
  List.iter
    (fun (bb : Flat.blackbox) ->
      if not (Hashtbl.mem bb_by_path bb.Flat.bb_path) then
        Hashtbl.add bb_by_path bb.Flat.bb_path bb)
    bbs;
  let demands =
    List.map
      (fun path ->
        match Hashtbl.find_opt bb_by_path path with
        | None ->
          invalid_arg
            (Printf.sprintf "Vti: iterated path %S is not a replicated instance" path)
        | Some bb ->
          let nl, _ = Hashtbl.find cache bb.Flat.bb_module in
          (path, demand_of nl))
      project.iterated
  in
  let partition_regions, static_regions =
    Estimate.provision project.device ~c:project.c ~debug_slr:project.debug_slr
      demands
  in
  let region_by_path = Hashtbl.create 16 in
  List.iter
    (fun (path, r) ->
      if not (Hashtbl.mem region_by_path path) then
        Hashtbl.add region_by_path path r)
    partition_regions;
  (* Placement: static allocator shared by shell + static stamps (state
     threads through in list order, so those stay sequential); iterated
     stamps each place alone in a private region — embarrassingly
     parallel. *)
  let static_alloc = Sites.create project.device static_regions in
  let shell_place =
    timed "place shell" (fun () ->
        Place.run_with_allocator static_alloc ~regions:static_regions
          shell_netlist)
  in
  let iter_locmaps =
    let iter_bbs =
      Array.of_list
        (List.filter
           (fun (bb : Flat.blackbox) -> Hashtbl.mem region_by_path bb.Flat.bb_path)
           bbs)
    in
    let placed =
      pool_map ?jobs
        (fun (bb : Flat.blackbox) ->
          let nl, _ = Hashtbl.find cache bb.Flat.bb_module in
          let r = Hashtbl.find region_by_path bb.Flat.bb_path in
          (bb.Flat.bb_path, (Place.run project.device ~regions:[ r ] nl).Place.locmap))
        iter_bbs
    in
    let t = Hashtbl.create 16 in
    Array.iter (fun (p, lm) -> Hashtbl.replace t p lm) placed;
    t
  in
  let stamps =
    List.map
      (fun (bb : Flat.blackbox) ->
        let nl, stats = Hashtbl.find cache bb.Flat.bb_module in
        let region = Hashtbl.find_opt region_by_path bb.Flat.bb_path in
        let locmap =
          match region with
          | Some _ -> Hashtbl.find iter_locmaps bb.Flat.bb_path
          | None ->
            (Place.run_with_allocator static_alloc ~regions:static_regions nl)
              .Place.locmap
        in
        {
          sb_path = bb.Flat.bb_path;
          sb_module = bb.Flat.bb_module;
          sb_netlist = nl;
          sb_stats = stats;
          sb_locmap = locmap;
          sb_clock_env = bb.Flat.bb_clock_env;
          sb_region = region;
        })
      bbs
  in
  let netlist, index =
    timed "link" (fun () ->
        Link.link_indexed ~shell:shell_netlist (List.map stamped_of stamps))
  in
  let locmap = merged_locmap ~shell_locmap:shell_place.Place.locmap ~stamps in
  let route, fast =
    timed "route" @@ fun () ->
    let contribs =
      route_contribs ?jobs ~index ~shell_netlist
        ~shell_locmap:shell_place.Place.locmap stamps
    in
    let cache, iter =
      route_cache_of ~nshell:shell_netlist.Netlist.num_nets ~contribs stamps
    in
    let route =
      Route.stats_of_cache cache (List.map snd iter)
        ~cells:(Netlist.num_cells netlist)
    in
    ( route,
      Some { fs_index = index; fs_route_cache = cache; fs_iter_contribs = iter }
    )
  in
  let util = device_util project netlist in
  let timing =
    analyze_timing ~congestion:route.Route.congestion ~utilization:util netlist
      locmap
  in
  let static_frames, iter_frames =
    timed "frames" (fun () ->
        frame_slices ?jobs ~shell_netlist ~shell_locmap:shell_place.Place.locmap
          stamps)
  in
  let frames = Framegen.merge (static_frames :: List.map snd iter_frames) in
  let bitstream =
    Bitgen.full project.device ~frames ~payload:(payload project netlist locmap)
  in
  (* --- modeled cost --- *)
  let total_cells = Netlist.num_cells netlist in
  let iterated_tbl = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace iterated_tbl p ()) project.iterated;
  let partition_costs =
    List.filter_map
      (fun sb ->
        match sb.sb_region with
        | None -> None
        | Some r ->
          let cells = Netlist.num_cells sb.sb_netlist in
          let share = float_of_int cells /. float_of_int (max 1 total_cells) in
          Some
            (Cost_model.total
               (component_cost
                  ~gate_nodes:sb.sb_stats.Synthesize.gate_nodes ~cells
                  ~utilization:(1.0 /. (1.0 +. project.c))
                  ~wirelength:
                    (int_of_float (share *. float_of_int route.Route.total_wirelength))
                  ~congestion:route.Route.congestion
                  ~frames:(Region.frame_count (Device.slr project.device r.Region.slr).Device.layout r))))
      stamps
  in
  (* Static component: everything not in an iterated partition, compiled
     monolithically (cost basis: as-if-flat totals). *)
  let static_gate_nodes =
    shell_stats.Synthesize.gate_nodes
    + List.fold_left
        (fun acc sb ->
          if Hashtbl.mem iterated_tbl sb.sb_path then acc
          else acc + sb.sb_stats.Synthesize.gate_nodes)
        0 stamps
  in
  let static_cells =
    total_cells
    - List.fold_left
        (fun acc sb ->
          if Hashtbl.mem iterated_tbl sb.sb_path then
            acc + Netlist.num_cells sb.sb_netlist
          else acc)
        0 stamps
  in
  let static_cost =
    component_cost ~gate_nodes:static_gate_nodes ~cells:static_cells
      ~utilization:0.95 ~wirelength:route.Route.total_wirelength
      ~congestion:route.Route.congestion ~frames:(List.length frames)
  in
  let wall =
    Cost_model.tool_startup_s
    +. parallel_wall
         ~static_s:(Cost_model.total static_cost)
         ~partition_s:partition_costs
    +. link_overhead_s
  in
  {
    project;
    shell_netlist;
    shell_stats;
    shell_locmap = shell_place.Place.locmap;
    stamps;
    partition_regions;
    static_regions;
    netlist;
    locmap;
    route;
    timing;
    frames;
    bitstream;
    modeled_seconds = wall;
    cost = static_cost;
    incr =
      {
        is_fast = fast;
        is_static_frames = static_frames;
        is_iter_frames = iter_frames;
        is_synth_cache = synth_cache;
      };
  }

exception Partition_overflow of string

(** Incremental recompile: the designer changed the RTL of the iterated
    instance at [path]; [circuit] is the new module body (it may grow, as
    long as it still fits the provisioned region).  Everything outside the
    partition is reused from [prev]: the linked netlist is spliced, the
    route estimate re-folded from cached contributions, and only the
    changed partition's frames regenerate.  [prev] itself stays fully
    usable afterwards (every cache update is functional or append-only) —
    in particular after a {!Partition_overflow}. *)
let recompile (prev : build) ~path ~(circuit : Circuit.t) : build =
  let project = prev.project in
  let region =
    match List.assoc_opt path prev.partition_regions with
    | Some r -> r
    | None ->
      invalid_arg (Printf.sprintf "Vti.recompile: %S is not an iterated partition" path)
  in
  (* Re-synthesize just the changed module — or reuse the digest-matched
     result of an earlier run with the same body. *)
  let new_netlist, new_stats =
    timed "synth" (fun () ->
        let digest = circuit_digest circuit in
        match Hashtbl.find_opt prev.incr.is_synth_cache digest with
        | Some r ->
          Obs.incr obs_synth_hits;
          r
        | None ->
          Obs.incr obs_synth_misses;
          let design = Design.add_module (Design.copy project.design) circuit in
          let r = Zoomie_synth.Hier.synth_module design circuit.Circuit.name in
          Hashtbl.replace prev.incr.is_synth_cache digest r;
          r)
  in
  (* Check the provision still holds: ER with the configured coefficient. *)
  let layout = (Device.slr project.device region.Region.slr).Device.layout in
  let capacity = Region.resources layout region in
  if not (Resource.fits ~demand:(demand_of new_netlist) ~capacity) then
    raise
      (Partition_overflow
         (Fmt.str "partition %s no longer fits %a" path Region.pp region));
  (* Re-place inside the private region only. *)
  let new_locmap =
    timed "place" (fun () ->
        (Place.run project.device ~regions:[ region ] new_netlist).Place.locmap)
  in
  let stamps =
    List.map
      (fun sb ->
        if sb.sb_path = path then
          {
            sb with
            sb_module = circuit.Circuit.name;
            sb_netlist = new_netlist;
            sb_stats = new_stats;
            sb_locmap = new_locmap;
          }
        else sb)
      prev.stamps
  in
  let replacement =
    let sb = List.find (fun sb -> sb.sb_path = path) stamps in
    stamped_of sb
  in
  (* Link: splice the one changed stamp when the delta path is available,
     otherwise redo the full link (and rebuild the caches). *)
  let spliced =
    timed "relink (splice)" (fun () ->
        match prev.incr.is_fast with
        | None -> None
        | Some fs -> (
          match
            Link.relink_stamp ~shell:prev.shell_netlist ~prev:prev.netlist
              ~index:fs.fs_index
              ~old_stamps:(List.map stamped_of prev.stamps)
              ~replacement
          with
          | None -> None
          | Some (netlist, index') -> Some (fs, netlist, index')))
  in
  Obs.incr (if spliced = None then obs_full_link else obs_relink_splice);
  let netlist, route, fast =
    match spliced with
    | Some (fs, netlist, index') ->
      let k =
        let r = ref (-1) in
        List.iteri (fun i sb -> if sb.sb_path = path then r := i) stamps;
        !r
      in
      let new_contrib =
        timed "route contrib" (fun () ->
            Route.contrib_of ~bmap:(Link.stamp_bmap index' k) new_netlist
              new_locmap)
      in
      let iter =
        List.map
          (fun (p, c) -> if p = path then (p, new_contrib) else (p, c))
          fs.fs_iter_contribs
      in
      let route =
        timed "route fold" (fun () ->
            Route.stats_of_cache fs.fs_route_cache (List.map snd iter)
              ~cells:(Netlist.num_cells netlist))
      in
      ( netlist,
        route,
        Some { fs with fs_index = index'; fs_iter_contribs = iter } )
    | None ->
      let netlist, index =
        Link.link_indexed ~shell:prev.shell_netlist (List.map stamped_of stamps)
      in
      let contribs =
        route_contribs ~index ~shell_netlist:prev.shell_netlist
          ~shell_locmap:prev.shell_locmap stamps
      in
      let cache, iter =
        route_cache_of ~nshell:prev.shell_netlist.Netlist.num_nets ~contribs
          stamps
      in
      let route =
        Route.stats_of_cache cache (List.map snd iter)
          ~cells:(Netlist.num_cells netlist)
      in
      ( netlist,
        route,
        Some
          { fs_index = index; fs_route_cache = cache; fs_iter_contribs = iter }
      )
  in
  let locmap =
    timed "locmap splice" (fun () ->
        spliced_locmap ~prev:prev.locmap ~shell_locmap:prev.shell_locmap
          ~old_stamps:prev.stamps ~path ~new_locmap)
  in
  let util = timed "util" (fun () -> device_util project netlist) in
  let timing =
    timed "timing" (fun () ->
        analyze_timing ~congestion:route.Route.congestion ~utilization:util
          netlist locmap)
  in
  (* Frames: regenerate the changed partition's slice, re-merge with the
     cached static set and the other partitions' cached slices. *)
  let new_slice =
    timed "framegen slice" (fun () -> Framegen.generate new_netlist new_locmap)
  in
  let iter_frames =
    List.map
      (fun (p, f) -> if p = path then (p, new_slice) else (p, f))
      prev.incr.is_iter_frames
  in
  let frames =
    timed "frame merge" (fun () ->
        Framegen.merge (prev.incr.is_static_frames :: List.map snd iter_frames))
  in
  (* Partial bitstream: only the partition's frames. *)
  let partial_frames =
    timed "partial filter" (fun () ->
        List.filter
          (fun (fw : Framegen.frame_write) ->
            let row, col, _ = fw.Framegen.fw_key in
            Region.contains region ~slr:fw.Framegen.fw_slr ~row ~col)
          frames)
  in
  let bitstream =
    timed "bitgen partial" (fun () ->
        Bitgen.partial project.device ~frames:partial_frames ~dynamic:[ region ]
          ~payload:(payload project netlist locmap))
  in
  (* Modeled incremental cost: the partition alone, plus startup + link. *)
  let cells = Netlist.num_cells new_netlist in
  let share = float_of_int cells /. float_of_int (max 1 (Netlist.num_cells netlist)) in
  let part_cost =
    component_cost ~gate_nodes:new_stats.Synthesize.gate_nodes ~cells
      ~utilization:(1.0 /. (1.0 +. project.c))
      ~wirelength:(int_of_float (share *. float_of_int route.Route.total_wirelength))
      ~congestion:route.Route.congestion
      ~frames:(List.length partial_frames)
  in
  let wall =
    Cost_model.tool_startup_s +. Cost_model.total part_cost +. link_overhead_s
  in
  {
    prev with
    stamps;
    netlist;
    locmap;
    route;
    timing;
    frames;
    bitstream;
    modeled_seconds = wall;
    cost = part_cost;
    incr =
      {
        prev.incr with
        is_fast = fast;
        is_iter_frames = iter_frames;
      };
  }

(** Program the board (full or partial, as the build dictates). *)
let load_onto board (b : build) = Board.load board b.bitstream

(* --- checkpoint persistence ------------------------------------------ *)

let checkpoint_magic = "ZOOMIE-DCP-2"

let checkpoint_version = 2

(* A marshaled build is only readable by a compatible runtime: guard the
   raw Marshal payload with the OCaml version, word size and the build
   record's layout generation so a foreign checkpoint fails loudly
   instead of segfaulting. *)
let checkpoint_fingerprint =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ Sys.ocaml_version; string_of_int Sys.word_size; "vti-build-v2" ]))

(** Persist a build (the routed "design checkpoint") so debugging sessions
    can resume incremental iteration across tool restarts. *)
let save_checkpoint (b : build) path =
  let oc = open_out_bin path in
  output_string oc checkpoint_magic;
  Marshal.to_channel oc (checkpoint_version, checkpoint_fingerprint) [];
  Marshal.to_channel oc b [];
  close_out oc

exception Bad_checkpoint of string

let load_checkpoint path : build =
  let ic =
    try open_in_bin path
    with Sys_error msg -> raise (Bad_checkpoint msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        let magic = really_input_string ic (String.length checkpoint_magic) in
        if magic <> checkpoint_magic then raise (Bad_checkpoint "bad magic");
        let version, fingerprint = (Marshal.from_channel ic : int * string) in
        if version <> checkpoint_version then
          raise
            (Bad_checkpoint
               (Printf.sprintf "checkpoint format version %d, expected %d"
                  version checkpoint_version));
        if fingerprint <> checkpoint_fingerprint then
          raise
            (Bad_checkpoint "stale checkpoint: toolchain fingerprint mismatch");
        (Marshal.from_channel ic : build)
      with
      | Bad_checkpoint _ as e -> raise e
      | End_of_file -> raise (Bad_checkpoint "truncated checkpoint")
      | Failure msg -> raise (Bad_checkpoint ("unreadable checkpoint: " ^ msg)))
