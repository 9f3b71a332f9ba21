(** Static timing analysis over the *placed* netlist.

    A true per-path analysis: every LUT's arrival time is the worst of its
    inputs' arrivals plus the routed-wire delay from each producer's actual
    placement, plus the LUT delay.  Wire delay grows with the square root
    of Manhattan distance (buffered interconnect); sustained congestion
    adds detour penalty.  Endpoints are flip-flop D/CE inputs, memory
    ports and top-level outputs.

    Constants are calibrated against UltraScale+-class behavior: the dense
    5400-core SoC closes 50 MHz and misses 100 MHz (§5.2), and the shallow
    250 MHz network stack of case study 3 closes with the Debug Controller
    attached. *)

open Zoomie_fabric
module Netlist = Zoomie_synth.Netlist

let lut_delay_ns = 0.12
let dsp_delay_ns = 2.6  (* combinational pass through a DSP48-style block *)
let clk_to_q_ns = 0.10
let setup_ns = 0.05
let clock_skew_ns = 0.30
let wire_base_ns = 0.15
let wire_sqrt_ns = 0.05

type report = {
  logic_levels : int;
  critical_path_ns : float;
  fmax_mhz : float;
  congestion : float;
  worst_from : string;
  worst_to : string;  (** endpoint register/port of the critical path *)
  top_paths : (string * float) list;
      (** the ten slowest endpoints, worst first — the basis of the
          paper's "none of the top 10 paths are in Zoomie code" check *)
}

(* Planar position: x = column, y = tile row (vertical routing is several
   times faster per unit than column hops). *)
let lut_pos (s : Loc.lut_site) =
  ( float_of_int s.Loc.l_col,
    float_of_int ((s.Loc.l_slr * 480) + (s.Loc.l_row * 60) + s.Loc.l_tile) )

let ff_pos (s : Loc.ff_site) =
  ( float_of_int s.Loc.f_col,
    float_of_int ((s.Loc.f_slr * 480) + (s.Loc.f_row * 60) + s.Loc.f_tile) )

let bram_pos (s : Loc.bram_site) =
  ( float_of_int s.Loc.b_col,
    float_of_int ((s.Loc.b_slr * 480) + (s.Loc.b_row * 60) + (s.Loc.b_tile * 5)) )

let dsp_pos (s : Loc.dsp_site) =
  ( float_of_int s.Loc.d_col,
    float_of_int ((s.Loc.d_slr * 480) + (s.Loc.d_row * 60) + (s.Loc.d_tile * 2)) )

let mem_pos locmap mi =
  match locmap.Loc.mem_placements.(mi) with
  | Loc.In_bram sites when Array.length sites > 0 -> bram_pos sites.(0)
  | Loc.In_lutram sites when Array.length sites > 0 -> lut_pos sites.(0)
  | Loc.In_bram _ | Loc.In_lutram _ -> (0.0, 0.0)

let distance (x1, y1) (x2, y2) = Float.abs (x1 -. x2) +. (Float.abs (y1 -. y2) /. 8.0)

(** Analyze the design placed at [locmap].  [congestion] comes from
    {!Route.estimate}; [utilization] (peak resource-class fraction) models
    the routing detours of a nearly-full device — the dominant reason the
    96 %-full manycore cannot reach 100 MHz. *)
let analyze ?(congestion = 1.0) ?(utilization = 0.0) (n : Netlist.t)
    (locmap : Loc.map) =
  let cong =
    1.0
    +. (0.3 *. Float.max 0.0 (congestion -. 1.0))
    +. (4.0 *. Float.max 0.0 (utilization -. 0.5) *. Float.max 0.0 (utilization -. 0.5))
  in
  let wire d = (wire_base_ns +. (wire_sqrt_ns *. sqrt (Float.max 0.0 d))) *. cong in
  (* Net producer table: arrival time and position of each driven net. *)
  let nets = max 1 n.Netlist.num_nets in
  let arrival = Array.make nets 0.0 in
  let level = Array.make nets 0 in
  let pos : (float * float) option array = Array.make nets None in
  Array.iteri
    (fun i (f : Netlist.ff) ->
      arrival.(f.Netlist.q) <- clk_to_q_ns;
      pos.(f.Netlist.q) <- Some (ff_pos locmap.Loc.ff_sites.(i)))
    n.Netlist.ffs;
  Array.iteri
    (fun mi (m : Netlist.mem) ->
      List.iter
        (fun (r : Netlist.mem_read) ->
          Array.iter
            (fun net ->
              arrival.(net) <- clk_to_q_ns;
              pos.(net) <- Some (mem_pos locmap mi))
            r.Netlist.mr_out)
        m.Netlist.mem_reads)
    n.Netlist.mems;
  (* Inputs and constants: time zero, no position (distance treated as 0). *)
  (* Combinational cells (LUTs, then DSP blocks) in topological order;
     indices >= num_luts denote DSPs. *)
  let num_luts = Array.length n.Netlist.luts in
  let num_cells = num_luts + Array.length n.Netlist.dsps in
  let producer = Hashtbl.create num_cells in
  Array.iteri (fun i (l : Netlist.lut) -> Hashtbl.add producer l.Netlist.out i) n.Netlist.luts;
  Array.iteri
    (fun i (d : Netlist.dsp) ->
      Array.iter
        (fun net -> Hashtbl.add producer net (num_luts + i))
        d.Netlist.dsp_out)
    n.Netlist.dsps;
  let state = Array.make (max 1 num_cells) 0 in
  let rec eval_cell i =
    if state.(i) = 2 then ()
    else begin
      state.(i) <- 2;
      let inputs, outs, my_pos, delay =
        if i < num_luts then begin
          let l = n.Netlist.luts.(i) in
          ( l.Netlist.inputs,
            [| l.Netlist.out |],
            lut_pos locmap.Loc.lut_sites.(i),
            lut_delay_ns )
        end
        else begin
          let d = n.Netlist.dsps.(i - num_luts) in
          ( Array.append d.Netlist.dsp_a d.Netlist.dsp_b,
            d.Netlist.dsp_out,
            dsp_pos locmap.Loc.dsp_sites.(i - num_luts),
            dsp_delay_ns )
        end
      in
      let worst = ref 0.0 and worst_level = ref 0 in
      Array.iter
        (fun inp ->
          (match Hashtbl.find_opt producer inp with
          | Some j -> eval_cell j
          | None -> ());
          let d = match pos.(inp) with Some p -> distance p my_pos | None -> 0.0 in
          let a = arrival.(inp) +. wire d in
          if a > !worst then worst := a;
          if level.(inp) > !worst_level then worst_level := level.(inp))
        inputs;
      Array.iter
        (fun out ->
          arrival.(out) <- !worst +. delay;
          level.(out) <- !worst_level + 1;
          pos.(out) <- Some my_pos)
        outs
    end
  in
  for i = 0 to num_cells - 1 do
    eval_cell i
  done;
  (* Endpoints: track the worst and a top-10 leaderboard (one entry per
     endpoint name, keeping its slowest path). *)
  let worst = ref 0.0 and worst_to = ref "(none)" and worst_levels = ref 0 in
  let leaderboard : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let endpoint name net my_pos =
    let d = match pos.(net) with Some p -> distance p my_pos | None -> 0.0 in
    let a = arrival.(net) +. wire d +. setup_ns in
    (match Hashtbl.find_opt leaderboard name with
    | Some prev when prev >= a -> ()
    | _ -> Hashtbl.replace leaderboard name a);
    if a > !worst then begin
      worst := a;
      worst_to := name;
      worst_levels := level.(net)
    end
  in
  Array.iteri
    (fun i (f : Netlist.ff) ->
      let p = ff_pos locmap.Loc.ff_sites.(i) in
      let name =
        if i < Array.length n.Netlist.ff_names then fst n.Netlist.ff_names.(i)
        else "ff"
      in
      endpoint name f.Netlist.d p;
      match f.Netlist.ce with Some ce -> endpoint (name ^ "/CE") ce p | None -> ())
    n.Netlist.ffs;
  Array.iteri
    (fun mi (m : Netlist.mem) ->
      let p = mem_pos locmap mi in
      List.iter
        (fun (w : Netlist.mem_write) ->
          endpoint m.Netlist.mem_name w.Netlist.mw_enable p;
          Array.iter (fun net -> endpoint m.Netlist.mem_name net p) w.Netlist.mw_addr;
          Array.iter (fun net -> endpoint m.Netlist.mem_name net p) w.Netlist.mw_data)
        m.Netlist.mem_writes;
      List.iter
        (fun (r : Netlist.mem_read) ->
          Array.iter (fun net -> endpoint m.Netlist.mem_name net p) r.Netlist.mr_addr)
        m.Netlist.mem_reads)
    n.Netlist.mems;
  Array.iter
    (fun (io : Netlist.io) ->
      let p = match pos.(io.Netlist.io_net) with Some p -> p | None -> (0.0, 0.0) in
      endpoint io.Netlist.io_name io.Netlist.io_net p)
    n.Netlist.outputs;
  (* Gated-clock enables are clock-network endpoints too. *)
  List.iter
    (fun (c : Netlist.clock_tree_entry) ->
      match c.Netlist.ck_enable with
      | Some net ->
        let p = match pos.(net) with Some p -> p | None -> (0.0, 0.0) in
        endpoint (c.Netlist.ck_name ^ "/CE") net p
      | None -> ())
    n.Netlist.clock_tree;
  let path = !worst +. clock_skew_ns in
  let top_paths =
    Hashtbl.fold (fun name a acc -> (name, a +. clock_skew_ns) :: acc) leaderboard []
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.filteri (fun i _ -> i < 10)
  in
  {
    logic_levels = !worst_levels;
    critical_path_ns = path;
    fmax_mhz = 1000.0 /. path;
    congestion;
    worst_from = "registered source";
    worst_to = !worst_to;
    top_paths;
  }


(* Scratch buffers for {!analyze_fast}.  The VTI iteration loop re-times
   the whole design on every recompile; at manycore scale, allocating and
   zeroing these multi-megaword arrays costs more than the analysis
   itself, so they are pooled per domain and re-zeroed with [Array.fill]
   (memset speed).  [px]/[py] need no re-zero: reads are gated by
   [placed].  Nothing in here escapes an analysis (the report holds only
   scalars and strings). *)
type scratch = {
  mutable sc_net_cap : int;
  mutable sc_producer : int array;
  mutable sc_arrival : float array;
  mutable sc_level : int array;
  mutable sc_px : float array;
  mutable sc_py : float array;
  mutable sc_placed : Bytes.t;
  mutable sc_cell_cap : int;
  mutable sc_cx : float array;
  mutable sc_cy : float array;
  mutable sc_indeg : int array;
  mutable sc_out_cnt : int array;
  mutable sc_out_off : int array;
  mutable sc_queue : int array;
  mutable sc_fill : int array;
  mutable sc_edge_cap : int;
  mutable sc_out_edges : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        sc_net_cap = 0;
        sc_producer = [||];
        sc_arrival = [||];
        sc_level = [||];
        sc_px = [||];
        sc_py = [||];
        sc_placed = Bytes.empty;
        sc_cell_cap = 0;
        sc_cx = [||];
        sc_cy = [||];
        sc_indeg = [||];
        sc_out_cnt = [||];
        sc_out_off = [||];
        sc_queue = [||];
        sc_fill = [||];
        sc_edge_cap = 0;
        sc_out_edges = [||];
      })

let scratch_nets sc nets =
  if sc.sc_net_cap < nets then begin
    sc.sc_net_cap <- nets;
    sc.sc_producer <- Array.make nets 0;
    sc.sc_arrival <- Array.make nets 0.0;
    sc.sc_level <- Array.make nets 0;
    sc.sc_px <- Array.make nets 0.0;
    sc.sc_py <- Array.make nets 0.0;
    sc.sc_placed <- Bytes.make nets '\000'
  end
  else begin
    Array.fill sc.sc_producer 0 nets 0;
    Array.fill sc.sc_arrival 0 nets 0.0;
    Array.fill sc.sc_level 0 nets 0;
    Bytes.fill sc.sc_placed 0 nets '\000'
  end

let scratch_cells sc cells =
  if sc.sc_cell_cap < cells then begin
    sc.sc_cell_cap <- cells;
    sc.sc_cx <- Array.make cells 0.0;
    sc.sc_cy <- Array.make cells 0.0;
    sc.sc_indeg <- Array.make cells 0;
    sc.sc_out_cnt <- Array.make cells 0;
    sc.sc_out_off <- Array.make (cells + 1) 0;
    sc.sc_queue <- Array.make cells 0;
    sc.sc_fill <- Array.make (cells + 1) 0
  end
  else begin
    Array.fill sc.sc_indeg 0 cells 0;
    Array.fill sc.sc_out_cnt 0 cells 0
  end

let scratch_edges sc edges =
  if sc.sc_edge_cap < edges then begin
    sc.sc_edge_cap <- edges;
    sc.sc_out_edges <- Array.make edges 0
  end

(** Flat-array evaluation of the same model: bit-for-bit identical to
    {!analyze} (same float expressions, same endpoint sequence, and a
    leaderboard hashtable built by the same insertion sequence), but with
    an int-array producer table and an iterative topological pass instead
    of the recursive walk.  Returns [None] — caller falls back to
    {!analyze} — when a net has several combinational producers or the
    LUT/DSP graph has a cycle, where the seed's DFS order becomes
    semantically load-bearing. *)
let analyze_fast ?(congestion = 1.0) ?(utilization = 0.0) (n : Netlist.t)
    (locmap : Loc.map) : report option =
  let num_luts = Array.length n.Netlist.luts in
  let num_dsps = Array.length n.Netlist.dsps in
  let num_cells = num_luts + num_dsps in
  let nets = max 1 n.Netlist.num_nets in
  let sc = Domain.DLS.get scratch_key in
  scratch_nets sc nets;
  scratch_cells sc (max 1 num_cells);
  (* producer.(net) = 1 + cell index (LUTs first, DSPs after), 0 = none. *)
  let producer = sc.sc_producer in
  let single = ref true in
  Array.iteri
    (fun i (l : Netlist.lut) ->
      let o = l.Netlist.out in
      if producer.(o) <> 0 then single := false else producer.(o) <- i + 1)
    n.Netlist.luts;
  Array.iteri
    (fun i (d : Netlist.dsp) ->
      Array.iter
        (fun o ->
          if producer.(o) <> 0 then single := false
          else producer.(o) <- num_luts + i + 1)
        d.Netlist.dsp_out)
    n.Netlist.dsps;
  if not !single then None
  else begin
    let cong =
      1.0
      +. (0.3 *. Float.max 0.0 (congestion -. 1.0))
      +. (4.0 *. Float.max 0.0 (utilization -. 0.5) *. Float.max 0.0 (utilization -. 0.5))
    in
    let wire d = (wire_base_ns +. (wire_sqrt_ns *. sqrt (Float.max 0.0 d))) *. cong in
    let arrival = sc.sc_arrival in
    let level = sc.sc_level in
    let px = sc.sc_px and py = sc.sc_py in
    let placed = sc.sc_placed in
    let set_pos net x y =
      px.(net) <- x;
      py.(net) <- y;
      Bytes.set placed net '\001'
    in
    Array.iteri
      (fun i (f : Netlist.ff) ->
        arrival.(f.Netlist.q) <- clk_to_q_ns;
        let x, y = ff_pos locmap.Loc.ff_sites.(i) in
        set_pos f.Netlist.q x y)
      n.Netlist.ffs;
    Array.iteri
      (fun mi (m : Netlist.mem) ->
        List.iter
          (fun (r : Netlist.mem_read) ->
            let x, y = mem_pos locmap mi in
            Array.iter
              (fun net ->
                arrival.(net) <- clk_to_q_ns;
                set_pos net x y)
              r.Netlist.mr_out)
          m.Netlist.mem_reads)
      n.Netlist.mems;
    (* Cell positions. *)
    let cx = sc.sc_cx and cy = sc.sc_cy in
    for i = 0 to num_cells - 1 do
      let x, y =
        if i < num_luts then lut_pos locmap.Loc.lut_sites.(i)
        else dsp_pos locmap.Loc.dsp_sites.(i - num_luts)
      in
      cx.(i) <- x;
      cy.(i) <- y
    done;
    let inputs_of i =
      if i < num_luts then n.Netlist.luts.(i).Netlist.inputs
      else
        let d = n.Netlist.dsps.(i - num_luts) in
        Array.append d.Netlist.dsp_a d.Netlist.dsp_b
    in
    (* Kahn over cell -> cell edges (one edge per input pin with a
       combinational producer). *)
    let indeg = sc.sc_indeg in
    let out_cnt = sc.sc_out_cnt in
    let out_off = sc.sc_out_off in
    for i = 0 to num_cells - 1 do
      Array.iter
        (fun inp ->
          let p = producer.(inp) in
          if p <> 0 then begin
            indeg.(i) <- indeg.(i) + 1;
            out_cnt.(p - 1) <- out_cnt.(p - 1) + 1
          end)
        (inputs_of i)
    done;
    out_off.(0) <- 0;
    for i = 0 to num_cells - 1 do
      out_off.(i + 1) <- out_off.(i) + out_cnt.(i)
    done;
    scratch_edges sc (max 1 out_off.(num_cells));
    let out_edges = sc.sc_out_edges in
    let fill = sc.sc_fill in
    Array.blit out_off 0 fill 0 (num_cells + 1);
    for i = 0 to num_cells - 1 do
      Array.iter
        (fun inp ->
          let p = producer.(inp) in
          if p <> 0 then begin
            out_edges.(fill.(p - 1)) <- i;
            fill.(p - 1) <- fill.(p - 1) + 1
          end)
        (inputs_of i)
    done;
    let queue = sc.sc_queue in
    let qhead = ref 0 and qtail = ref 0 in
    for i = 0 to num_cells - 1 do
      if indeg.(i) = 0 then begin
        queue.(!qtail) <- i;
        incr qtail
      end
    done;
    let processed = ref 0 in
    while !qhead < !qtail do
      let i = queue.(!qhead) in
      incr qhead;
      incr processed;
      let mx = cx.(i) and my = cy.(i) in
      let delay = if i < num_luts then lut_delay_ns else dsp_delay_ns in
      let worst = ref 0.0 and worst_level = ref 0 in
      Array.iter
        (fun inp ->
          let d =
            if Bytes.get placed inp = '\001' then
              Float.abs (px.(inp) -. mx) +. (Float.abs (py.(inp) -. my) /. 8.0)
            else 0.0
          in
          let a = arrival.(inp) +. wire d in
          if a > !worst then worst := a;
          if level.(inp) > !worst_level then worst_level := level.(inp))
        (inputs_of i);
      let outs =
        if i < num_luts then [| n.Netlist.luts.(i).Netlist.out |]
        else n.Netlist.dsps.(i - num_luts).Netlist.dsp_out
      in
      Array.iter
        (fun out ->
          arrival.(out) <- !worst +. delay;
          level.(out) <- !worst_level + 1;
          set_pos out mx my)
        outs;
      for e = out_off.(i) to out_off.(i + 1) - 1 do
        let j = out_edges.(e) in
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then begin
          queue.(!qtail) <- j;
          incr qtail
        end
      done
    done;
    if !processed < num_cells then None (* combinational cycle *)
    else begin
      (* Endpoint pass: identical sequence of (name, slack) updates as
         {!analyze}, so the leaderboard hashtable gets the same internal
         layout and the final fold/sort produce the same list. *)
      let worst = ref 0.0 and worst_to = ref "(none)" and worst_levels = ref 0 in
      let leaderboard : (string, float) Hashtbl.t = Hashtbl.create 64 in
      let endpoint name net (mx, my) =
        let d =
          if Bytes.get placed net = '\001' then
            Float.abs (px.(net) -. mx) +. (Float.abs (py.(net) -. my) /. 8.0)
          else 0.0
        in
        let a = arrival.(net) +. wire d +. setup_ns in
        (match Hashtbl.find_opt leaderboard name with
        | Some prev when prev >= a -> ()
        | _ -> Hashtbl.replace leaderboard name a);
        if a > !worst then begin
          worst := a;
          worst_to := name;
          worst_levels := level.(net)
        end
      in
      Array.iteri
        (fun i (f : Netlist.ff) ->
          let p = ff_pos locmap.Loc.ff_sites.(i) in
          let name =
            if i < Array.length n.Netlist.ff_names then fst n.Netlist.ff_names.(i)
            else "ff"
          in
          endpoint name f.Netlist.d p;
          match f.Netlist.ce with
          | Some ce -> endpoint (name ^ "/CE") ce p
          | None -> ())
        n.Netlist.ffs;
      Array.iteri
        (fun mi (m : Netlist.mem) ->
          let p = mem_pos locmap mi in
          List.iter
            (fun (w : Netlist.mem_write) ->
              endpoint m.Netlist.mem_name w.Netlist.mw_enable p;
              Array.iter (fun net -> endpoint m.Netlist.mem_name net p) w.Netlist.mw_addr;
              Array.iter (fun net -> endpoint m.Netlist.mem_name net p) w.Netlist.mw_data)
            m.Netlist.mem_writes;
          List.iter
            (fun (r : Netlist.mem_read) ->
              Array.iter (fun net -> endpoint m.Netlist.mem_name net p) r.Netlist.mr_addr)
            m.Netlist.mem_reads)
        n.Netlist.mems;
      Array.iter
        (fun (io : Netlist.io) ->
          let net = io.Netlist.io_net in
          let p =
            if Bytes.get placed net = '\001' then (px.(net), py.(net)) else (0.0, 0.0)
          in
          endpoint io.Netlist.io_name net p)
        n.Netlist.outputs;
      List.iter
        (fun (c : Netlist.clock_tree_entry) ->
          match c.Netlist.ck_enable with
          | Some net ->
            let p =
              if Bytes.get placed net = '\001' then (px.(net), py.(net)) else (0.0, 0.0)
            in
            endpoint (c.Netlist.ck_name ^ "/CE") net p
          | None -> ())
        n.Netlist.clock_tree;
      let path = !worst +. clock_skew_ns in
      let top_paths =
        Hashtbl.fold (fun name a acc -> (name, a +. clock_skew_ns) :: acc) leaderboard []
        |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
        |> List.filteri (fun i _ -> i < 10)
      in
      Some
        {
          logic_levels = !worst_levels;
          critical_path_ns = path;
          fmax_mhz = 1000.0 /. path;
          congestion;
          worst_from = "registered source";
          worst_to = !worst_to;
          top_paths;
        }
    end
  end

(** Does the design close timing at [mhz]? *)
let meets_timing report ~mhz = report.fmax_mhz >= mhz

let pp_report fmt r =
  Fmt.pf fmt
    "levels=%d critical=%.2fns fmax=%.1fMHz congestion=%.2f (worst path to %s)"
    r.logic_levels r.critical_path_ns r.fmax_mhz r.congestion r.worst_to
