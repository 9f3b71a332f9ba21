(** Netlist simulator: executes a technology-mapped design the way the
    modeled FPGA fabric does.  This is the execution engine behind the
    simulated board — readback captures FF/BRAM state from here, and state
    injection writes into it.

    This is the {e compiled, event-driven} engine: {!Netsim_compile}
    lowers the netlist once at {!create} into flat typed arrays (a
    levelized LUT/DSP/comb-read schedule, CSR fanout adjacency, unboxed
    truth tables), and settling walks per-level dirty worklists so only
    the fanout cone of nets that actually changed re-evaluates.  FFs are
    tracked in per-clock {e active sets} (D≠Q), so quiescent regions of a
    large design cost nothing per edge.  Bit-for-bit equivalent to the
    retained interpreter {!Netsim_baseline} (enforced by the QCheck
    differential in [test/test_netsim.ml]). *)

module C = Netsim_compile

type mem_state = { data : Bytes.t; width : int; depth : int }
(* One bit per byte, row-major: bit (addr, i) at [addr * width + i]. *)

(* Persistent Domain pool for the partitioned settle.  Spawned once at
   [create ~jobs] (jobs-1 domains) and reused for every level dispatch —
   spawning per level would cost more than the evaluation itself.
   Workers park on a condition variable between generations, so on a
   single-core host the pool is correctness-only, not a busy spin. *)
type par = {
  par_jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* a new generation is available *)
  donec : Condition.t;  (* all workers finished the generation *)
  mutable generation : int;
  mutable pending : int;  (* workers still running this generation *)
  mutable task : int -> unit;  (* worker slot [1, jobs) -> work *)
  mutable stopping : bool;
  mutable failures : (exn * Printexc.raw_backtrace) list;
  mutable domains : unit Domain.t array;
}

let par_create jobs =
  let p =
    {
      par_jobs = jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      donec = Condition.create ();
      generation = 0;
      pending = 0;
      task = (fun _ -> ());
      stopping = false;
      failures = [];
      domains = [||];
    }
  in
  let worker slot () =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock p.mutex;
      while p.generation = !seen && not p.stopping do
        Condition.wait p.work p.mutex
      done;
      if p.stopping then begin
        Mutex.unlock p.mutex;
        running := false
      end
      else begin
        seen := p.generation;
        let task = p.task in
        Mutex.unlock p.mutex;
        (* A raising task must not strand the barrier: capture with its
           backtrace, finish the generation, re-raise on the caller. *)
        let failed =
          try
            task slot;
            None
          with e -> Some (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock p.mutex;
        (match failed with
        | Some f -> p.failures <- f :: p.failures
        | None -> ());
        p.pending <- p.pending - 1;
        if p.pending = 0 then Condition.broadcast p.donec;
        Mutex.unlock p.mutex
      end
    done
  in
  p.domains <- Array.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1)));
  p

(* Run [task] on every worker slot (the calling domain takes slot 0) and
   wait for all of them — one boundary synchronization. *)
let par_run p task =
  Mutex.lock p.mutex;
  p.task <- task;
  p.pending <- p.par_jobs - 1;
  p.generation <- p.generation + 1;
  Condition.broadcast p.work;
  Mutex.unlock p.mutex;
  let main_failure =
    try
      task 0;
      None
    with e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock p.mutex;
  while p.pending > 0 do
    Condition.wait p.donec p.mutex
  done;
  let worker_failures = p.failures in
  p.failures <- [];
  Mutex.unlock p.mutex;
  match main_failure, worker_failures with
  | Some (e, bt), _ | None, (e, bt) :: _ -> Printexc.raise_with_backtrace e bt
  | None, [] -> ()

let par_shutdown p =
  Mutex.lock p.mutex;
  let first = not p.stopping in
  p.stopping <- true;
  Condition.broadcast p.work;
  Mutex.unlock p.mutex;
  if first then Array.iter Domain.join p.domains

type t = {
  p : C.prog;
  values : Bytes.t;  (* one byte per net, 0/1: the driven value *)
  forced_mask : Bytes.t;  (* overlay: 1 where the net is pinned *)
  forced_val : Bytes.t;
  mutable forced_count : int;
  mem_states : mem_state array;
  mutable cycles : int;
  (* Per-level dirty worklists: level l occupies wl[seg_off.(l) ..],
     seg_len.(l) live entries; queued is the cell dedup flag. *)
  wl : int array;
  seg_len : int array;
  queued : Bytes.t;
  (* Per-clock FF active sets (D≠Q), swap-remove via ff_pos. *)
  ff_active : int array array;
  ff_active_n : int array;
  ff_pos : int array;
  (* Preallocated pre-edge sample buffers. *)
  pend_ff_i : int array;
  pend_ff_v : Bytes.t;
  mutable pend_ff_n : int;
  pend_srd_net : int array;
  pend_srd_v : Bytes.t;
  mutable pend_srd_n : int;
  pend_mw_mem : int array;
  pend_mw_idx : int array;
  pend_mw_v : Bytes.t;
  mutable pend_mw_n : int;
  (* Tick sets cached per (root clock, gate-enable mask). *)
  tick_cache : (int, int array) Hashtbl.t array;
  tick_scratch : bool array;
  (* Partitioned settle: persistent pool (jobs > 1 only) plus per-worker
     changed-net journals.  Workers publish driven values straight into
     [values] (one producer per net, consumers all at higher levels, so
     the writes race with nothing) and journal which nets moved; the main
     domain replays the journals in worker order at each level barrier,
     doing all propagation — worklist enqueue, FF reclassification —
     sequentially.  Net values are therefore bit-identical for any
     [jobs]. *)
  par : par option;
  chg : int array array;  (* per-worker changed-net journal *)
  chg_n : int array;
  (* Kernel observability: plain fields, not registry handles — the
     kernel must stay free of any cross-library call on its hot loops.
     Whoever surfaces them (REPL stats, benches) publishes to the
     registry from outside. *)
  mutable n_events : int;  (* cell evaluations settled *)
  mutable n_levels_touched : int;  (* non-empty levels drained *)
  mutable n_edges : int;  (* clock edges committed *)
  mutable n_tick_hits : int;  (* tick-set cache fast-path hits *)
  mutable n_tick_misses : int;  (* tick sets recomputed *)
  mutable n_par_dispatches : int;  (* levels fanned out to the pool *)
  mutable n_boundary_syncs : int;  (* level barriers (journal merges) *)
}

type counters = {
  events_settled : int;
  levels_touched : int;
  edges : int;
  tick_cache_hits : int;
  tick_cache_misses : int;
  partition_dispatches : int;
  boundary_syncs : int;
}

let counters t =
  {
    events_settled = t.n_events;
    levels_touched = t.n_levels_touched;
    edges = t.n_edges;
    tick_cache_hits = t.n_tick_hits;
    tick_cache_misses = t.n_tick_misses;
    partition_dispatches = t.n_par_dispatches;
    boundary_syncs = t.n_boundary_syncs;
  }

let jobs t = match t.par with None -> 1 | Some p -> p.par_jobs

(** Stop the pool's worker domains (idempotent; no-op for [jobs = 1]).
    Required before the simulator is dropped when it was created with
    [jobs > 1] — parked domains otherwise outlive it. *)
let shutdown t = match t.par with None -> () | Some p -> par_shutdown p

let netlist t = t.p.C.nl

(* Exposed for API compatibility (synthesis tests); delegates to the
   baseline's iterative Kahn order. *)
let topo_comb = Netsim_baseline.topo_comb

(* Effective value of a net: the forced overlay wins while pinned. *)
let read t net =
  if t.forced_count = 0 then Bytes.get t.values net <> '\000'
  else if Bytes.get t.forced_mask net <> '\000' then
    Bytes.get t.forced_val net <> '\000'
  else Bytes.get t.values net <> '\000'

let get = read

let enqueue t c =
  if Bytes.get t.queued c = '\000' then begin
    Bytes.set t.queued c '\001';
    let l = t.p.C.cell_level.(c) in
    t.wl.(t.p.C.seg_off.(l) + t.seg_len.(l)) <- c;
    t.seg_len.(l) <- t.seg_len.(l) + 1
  end

(* An FF belongs to its clock's active set iff D≠Q (its commit could
   change state).  Called for every FF whose D or Q net changed. *)
let refresh_ff_active t i =
  let p = t.p in
  let want = read t p.C.ff_d.(i) <> read t p.C.ff_q.(i) in
  let pos = t.ff_pos.(i) in
  if want && pos < 0 then begin
    let c = p.C.ff_clk.(i) in
    let n = t.ff_active_n.(c) in
    t.ff_active.(c).(n) <- i;
    t.ff_pos.(i) <- n;
    t.ff_active_n.(c) <- n + 1
  end
  else if (not want) && pos >= 0 then begin
    let c = p.C.ff_clk.(i) in
    let n = t.ff_active_n.(c) - 1 in
    let last = t.ff_active.(c).(n) in
    t.ff_active.(c).(pos) <- last;
    t.ff_pos.(last) <- pos;
    t.ff_pos.(i) <- -1;
    t.ff_active_n.(c) <- n
  end

(* The effective value of [net] just changed: wake its combinational
   fanout and re-classify dependent FFs. *)
let propagate t net =
  let p = t.p in
  for k = p.C.fan_off.(net) to p.C.fan_off.(net + 1) - 1 do
    enqueue t p.C.fan.(k)
  done;
  for k = p.C.ffdep_off.(net) to p.C.ffdep_off.(net + 1) - 1 do
    refresh_ff_active t p.C.ffdep.(k)
  done

(* Internal write: updates the driven value; propagates only when the
   effective value moved (a pinned net keeps its overlay value). *)
let set_net t net v =
  if Bytes.get t.values net <> '\000' <> v then begin
    Bytes.set t.values net (if v then '\001' else '\000');
    if t.forced_count = 0 || Bytes.get t.forced_mask net = '\000' then
      propagate t net
  end

(* Public [set] additionally wakes the producing cell, so a manual write
   to a comb-driven net is clobbered at the next settle — exactly the
   baseline's full-re-eval semantics. *)
let set t net b =
  set_net t net b;
  let c = t.p.C.producer.(net) in
  if c >= 0 then enqueue t c

let force t net b =
  let old = read t net in
  if Bytes.get t.forced_mask net = '\000' then begin
    Bytes.set t.forced_mask net '\001';
    t.forced_count <- t.forced_count + 1
  end;
  Bytes.set t.forced_val net (if b then '\001' else '\000');
  if b <> old then propagate t net

let release t net =
  if Bytes.get t.forced_mask net <> '\000' then begin
    let old = Bytes.get t.forced_val net <> '\000' in
    Bytes.set t.forced_mask net '\000';
    t.forced_count <- t.forced_count - 1;
    if Bytes.get t.values net <> '\000' <> old then propagate t net
  end

let addr_value t (addr : int array) =
  let v = ref 0 in
  Array.iteri (fun i n -> if read t n then v := !v lor (1 lsl i)) addr;
  !v

let eval_cell t c =
  let p = t.p in
  if c < p.C.n_luts then begin
    let lo = p.C.lut_in_off.(c) in
    let idx = ref 0 in
    for k = lo to p.C.lut_in_off.(c + 1) - 1 do
      if read t p.C.lut_in.(k) then idx := !idx lor (1 lsl (k - lo))
    done;
    let v =
      if !idx < 32 then (p.C.lut_tab_lo.(c) lsr !idx) land 1 = 1
      else (p.C.lut_tab_hi.(c) lsr (!idx - 32)) land 1 = 1
    in
    set_net t p.C.lut_out.(c) v
  end
  else if c < p.C.n_luts + p.C.n_dsps then begin
    (* DSP block: unsigned multiply, truncated to the output width. *)
    let d = c - p.C.n_luts in
    let alo = p.C.dsp_a_off.(d) and ahi = p.C.dsp_a_off.(d + 1) in
    let blo = p.C.dsp_b_off.(d) and bhi = p.C.dsp_b_off.(d + 1) in
    let olo = p.C.dsp_out_off.(d) and ohi = p.C.dsp_out_off.(d + 1) in
    if p.C.dsp_narrow.(d) then begin
      (* Product fits an OCaml int (< 2^60): no Int64 boxing. *)
      let va = ref 0 in
      for k = alo to ahi - 1 do
        if read t p.C.dsp_a.(k) then va := !va lor (1 lsl (k - alo))
      done;
      let vb = ref 0 in
      for k = blo to bhi - 1 do
        if read t p.C.dsp_b.(k) then vb := !vb lor (1 lsl (k - blo))
      done;
      let prod = !va * !vb in
      for k = olo to ohi - 1 do
        let bit = k - olo in
        set_net t p.C.dsp_out.(k) (bit < 60 && (prod lsr bit) land 1 = 1)
      done
    end
    else begin
      let value lo hi (nets : int array) =
        let v = ref 0L in
        for k = lo to hi - 1 do
          if read t nets.(k) then
            v := Int64.logor !v (Int64.shift_left 1L (k - lo))
        done;
        !v
      in
      let prod = Int64.mul (value alo ahi p.C.dsp_a) (value blo bhi p.C.dsp_b) in
      for k = olo to ohi - 1 do
        set_net t p.C.dsp_out.(k)
          (Int64.logand (Int64.shift_right_logical prod (k - olo)) 1L = 1L)
      done
    end
  end
  else begin
    (* Combinational memory read port. *)
    let r = c - p.C.n_luts - p.C.n_dsps in
    let st = t.mem_states.(p.C.cr_mem.(r)) in
    let alo = p.C.cr_addr_off.(r) in
    let a = ref 0 in
    for k = alo to p.C.cr_addr_off.(r + 1) - 1 do
      if read t p.C.cr_addr.(k) then a := !a lor (1 lsl (k - alo))
    done;
    let a = !a in
    let olo = p.C.cr_out_off.(r) in
    for k = olo to p.C.cr_out_off.(r + 1) - 1 do
      let bit = k - olo in
      let v =
        a < st.depth && Bytes.get st.data ((a * st.width) + bit) <> '\000'
      in
      set_net t p.C.cr_out.(k) v
    done
  end

(* --- partitioned settle (jobs > 1) ---------------------------------- *)

(* Journaling write for pool workers: update the driven value, record the
   net in the worker's private journal when the effective value moved.
   Propagation (worklist enqueue, FF reclassification) mutates shared
   structures and is deferred to the main domain's barrier merge. *)
let set_net_j t buf n net v =
  if Bytes.get t.values net <> '\000' <> v then begin
    Bytes.set t.values net (if v then '\001' else '\000');
    if t.forced_count = 0 || Bytes.get t.forced_mask net = '\000' then begin
      buf.(!n) <- net;
      incr n
    end
  end

(* [eval_cell] with the journaling sink.  Kept as a separate copy so the
   sequential hot path pays no indirect call per written bit; the two
   bodies must stay in lockstep with [eval_cell]. *)
let eval_cell_j t buf n c =
  let p = t.p in
  if c < p.C.n_luts then begin
    let lo = p.C.lut_in_off.(c) in
    let idx = ref 0 in
    for k = lo to p.C.lut_in_off.(c + 1) - 1 do
      if read t p.C.lut_in.(k) then idx := !idx lor (1 lsl (k - lo))
    done;
    let v =
      if !idx < 32 then (p.C.lut_tab_lo.(c) lsr !idx) land 1 = 1
      else (p.C.lut_tab_hi.(c) lsr (!idx - 32)) land 1 = 1
    in
    set_net_j t buf n p.C.lut_out.(c) v
  end
  else if c < p.C.n_luts + p.C.n_dsps then begin
    let d = c - p.C.n_luts in
    let alo = p.C.dsp_a_off.(d) and ahi = p.C.dsp_a_off.(d + 1) in
    let blo = p.C.dsp_b_off.(d) and bhi = p.C.dsp_b_off.(d + 1) in
    let olo = p.C.dsp_out_off.(d) and ohi = p.C.dsp_out_off.(d + 1) in
    if p.C.dsp_narrow.(d) then begin
      let va = ref 0 in
      for k = alo to ahi - 1 do
        if read t p.C.dsp_a.(k) then va := !va lor (1 lsl (k - alo))
      done;
      let vb = ref 0 in
      for k = blo to bhi - 1 do
        if read t p.C.dsp_b.(k) then vb := !vb lor (1 lsl (k - blo))
      done;
      let prod = !va * !vb in
      for k = olo to ohi - 1 do
        let bit = k - olo in
        set_net_j t buf n p.C.dsp_out.(k) (bit < 60 && (prod lsr bit) land 1 = 1)
      done
    end
    else begin
      let value lo hi (nets : int array) =
        let v = ref 0L in
        for k = lo to hi - 1 do
          if read t nets.(k) then
            v := Int64.logor !v (Int64.shift_left 1L (k - lo))
        done;
        !v
      in
      let prod = Int64.mul (value alo ahi p.C.dsp_a) (value blo bhi p.C.dsp_b) in
      for k = olo to ohi - 1 do
        set_net_j t buf n p.C.dsp_out.(k)
          (Int64.logand (Int64.shift_right_logical prod (k - olo)) 1L = 1L)
      done
    end
  end
  else begin
    let r = c - p.C.n_luts - p.C.n_dsps in
    let st = t.mem_states.(p.C.cr_mem.(r)) in
    let alo = p.C.cr_addr_off.(r) in
    let a = ref 0 in
    for k = alo to p.C.cr_addr_off.(r + 1) - 1 do
      if read t p.C.cr_addr.(k) then a := !a lor (1 lsl (k - alo))
    done;
    let a = !a in
    let olo = p.C.cr_out_off.(r) in
    for k = olo to p.C.cr_out_off.(r + 1) - 1 do
      let bit = k - olo in
      let v =
        a < st.depth && Bytes.get st.data ((a * st.width) + bit) <> '\000'
      in
      set_net_j t buf n p.C.cr_out.(k) v
    done
  end

(* Below this many queued cells per worker, the barrier costs more than
   the evaluation: drain the level on the calling domain instead.  The
   threshold cannot affect results — values never depend on which domain
   evaluated a cell. *)
let par_threshold = 48

(* Event-driven settle: drain dirty worklists level by level.  Every
   net-dependency edge strictly increases level, so a level's queue is
   fixed by the time processing reaches it. *)
let settle_seq t =
  let p = t.p in
  for l = 0 to p.C.n_levels - 1 do
    (* An edge strictly increases level, so this level's queue length is
       fixed by the time the drain reaches it — snapshot it for the
       counters without changing what gets drained. *)
    let len = t.seg_len.(l) in
    if len > 0 then begin
      t.n_events <- t.n_events + len;
      t.n_levels_touched <- t.n_levels_touched + 1;
      let base = p.C.seg_off.(l) in
      for k = 0 to len - 1 do
        let c = t.wl.(base + k) in
        Bytes.set t.queued c '\000';
        eval_cell t c
      done;
      t.seg_len.(l) <- 0
    end
  done

(* Partitioned settle: same drain, but each level's queue is sliced into
   [jobs] contiguous blocks evaluated concurrently.  Cells of one level
   are mutually independent (inputs all come from strictly lower levels,
   outputs all feed strictly higher ones) and every net has exactly one
   producer, so workers write disjoint bytes of [values]; the contiguous
   blocks track enqueue order, which follows netlist construction order —
   stamped instances stay together, the cheap stand-in for a min-cut /
   per-SLR partition.  All cross-partition effects (boundary nets waking
   consumers, FF active-set churn) are journaled per worker and replayed
   on the main domain at the level barrier, in worker order — the merge
   order only shapes worklist layout, never values, so results are
   bit-identical to the sequential drain. *)
let settle_par t par =
  let p = t.p in
  let jobs = par.par_jobs in
  for l = 0 to p.C.n_levels - 1 do
    let len = t.seg_len.(l) in
    if len > 0 then begin
      t.n_events <- t.n_events + len;
      t.n_levels_touched <- t.n_levels_touched + 1;
      let base = p.C.seg_off.(l) in
      if len < par_threshold * jobs then
        for k = 0 to len - 1 do
          let c = t.wl.(base + k) in
          Bytes.set t.queued c '\000';
          eval_cell t c
        done
      else begin
        t.n_par_dispatches <- t.n_par_dispatches + 1;
        let chunk = (len + jobs - 1) / jobs in
        par_run par (fun w ->
            let lo = w * chunk in
            let hi = min len (lo + chunk) in
            let buf = t.chg.(w) in
            let n = ref 0 in
            for k = lo to hi - 1 do
              let c = t.wl.(base + k) in
              Bytes.set t.queued c '\000';
              eval_cell_j t buf n c
            done;
            t.chg_n.(w) <- !n);
        t.n_boundary_syncs <- t.n_boundary_syncs + 1;
        for w = 0 to jobs - 1 do
          let buf = t.chg.(w) in
          for k = 0 to t.chg_n.(w) - 1 do
            propagate t buf.(k)
          done;
          t.chg_n.(w) <- 0
        done
      end;
      t.seg_len.(l) <- 0
    end
  done

let settle t =
  match t.par with Some par -> settle_par t par | None -> settle_seq t

let eval_comb = settle

(* Clock tick set for a given root edge, honoring gate enables. *)
let compute_ticks t root_id =
  let p = t.p in
  let scr = t.tick_scratch in
  Array.fill scr 0 (Array.length scr) false;
  scr.(root_id) <- true;
  let n_entries = Array.length p.C.ck_id in
  let changed = ref true in
  while !changed do
    changed := false;
    for e = 0 to n_entries - 1 do
      let parent = p.C.ck_parent.(e) in
      if parent >= 0 && scr.(parent) && not scr.(p.C.ck_id.(e)) then begin
        let en = p.C.ck_enable.(e) in
        if en < 0 || read t en then begin
          scr.(p.C.ck_id.(e)) <- true;
          changed := true
        end
      end
    done
  done;
  let cnt = ref 0 in
  Array.iter (fun b -> if b then incr cnt) scr;
  let out = Array.make (max 1 !cnt) 0 in
  let j = ref 0 in
  Array.iteri
    (fun i b ->
      if b then begin
        out.(!j) <- i;
        incr j
      end)
    scr;
  Array.sub out 0 !cnt

(* Tick sets only depend on the gate-enable values, so they are cached
   per (root, enable-mask) when the gated entries fit in an int key. *)
let tick_set t root_id =
  let p = t.p in
  if p.C.n_gated > 60 then begin
    t.n_tick_misses <- t.n_tick_misses + 1;
    compute_ticks t root_id
  end
  else begin
    let mask = ref 0 in
    for e = 0 to Array.length p.C.ck_id - 1 do
      let en = p.C.ck_enable.(e) in
      if en >= 0 && read t en then mask := !mask lor (1 lsl p.C.ck_en_bit.(e))
    done;
    let cache = t.tick_cache.(root_id) in
    match Hashtbl.find_opt cache !mask with
    | Some ids ->
      t.n_tick_hits <- t.n_tick_hits + 1;
      ids
    | None ->
      t.n_tick_misses <- t.n_tick_misses + 1;
      let ids = compute_ticks t root_id in
      Hashtbl.add cache !mask ids;
      ids
  end

let ticking t root =
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl root ();
  (match Hashtbl.find_opt t.p.C.clock_ids root with
  | None -> ()
  | Some root_id ->
    let names = Array.make (max 1 t.p.C.n_clocks) "" in
    Hashtbl.iter (fun name id -> names.(id) <- name) t.p.C.clock_ids;
    Array.iter (fun id -> Hashtbl.replace tbl names.(id) ()) (tick_set t root_id));
  tbl

(* One rising edge: sample everything pre-edge (active FFs' D, sync-read
   contents, write-port enable/addr/data), then commit FFs, then
   read-outs, then memory writes — read-before-write, the baseline's
   exact order. *)
let edge t root =
  let p = t.p in
  match Hashtbl.find_opt p.C.clock_ids root with
  | None -> ()
  | Some root_id ->
    t.n_edges <- t.n_edges + 1;
    let ticks = tick_set t root_id in
    t.pend_ff_n <- 0;
    t.pend_srd_n <- 0;
    t.pend_mw_n <- 0;
    Array.iter
      (fun ck ->
        let act = t.ff_active.(ck) in
        let n_act = t.ff_active_n.(ck) in
        for k = 0 to n_act - 1 do
          let i = act.(k) in
          let ce = p.C.ff_ce.(i) in
          if ce < 0 || read t ce then begin
            t.pend_ff_i.(t.pend_ff_n) <- i;
            Bytes.set t.pend_ff_v t.pend_ff_n
              (if read t p.C.ff_d.(i) then '\001' else '\000');
            t.pend_ff_n <- t.pend_ff_n + 1
          end
        done;
        Array.iter
          (fun r ->
            let st = t.mem_states.(p.C.srd_mem.(r)) in
            let alo = p.C.srd_addr_off.(r) in
            let a = ref 0 in
            for k = alo to p.C.srd_addr_off.(r + 1) - 1 do
              if read t p.C.srd_addr.(k) then a := !a lor (1 lsl (k - alo))
            done;
            let a = !a in
            let olo = p.C.srd_out_off.(r) in
            for k = olo to p.C.srd_out_off.(r + 1) - 1 do
              let bit = k - olo in
              let v =
                a < st.depth
                && Bytes.get st.data ((a * st.width) + bit) <> '\000'
              in
              t.pend_srd_net.(t.pend_srd_n) <- p.C.srd_out.(k);
              Bytes.set t.pend_srd_v t.pend_srd_n (if v then '\001' else '\000');
              t.pend_srd_n <- t.pend_srd_n + 1
            done)
          p.C.clk_srd.(ck);
        Array.iter
          (fun w ->
            if read t p.C.mwr_en.(w) then begin
              let st = t.mem_states.(p.C.mwr_mem.(w)) in
              let alo = p.C.mwr_addr_off.(w) in
              let a = ref 0 in
              for k = alo to p.C.mwr_addr_off.(w + 1) - 1 do
                if read t p.C.mwr_addr.(k) then a := !a lor (1 lsl (k - alo))
              done;
              let a = !a in
              if a < st.depth then begin
                let dlo = p.C.mwr_data_off.(w) in
                for k = dlo to p.C.mwr_data_off.(w + 1) - 1 do
                  let bit = k - dlo in
                  t.pend_mw_mem.(t.pend_mw_n) <- p.C.mwr_mem.(w);
                  t.pend_mw_idx.(t.pend_mw_n) <- (a * st.width) + bit;
                  Bytes.set t.pend_mw_v t.pend_mw_n
                    (if read t p.C.mwr_data.(k) then '\001' else '\000');
                  t.pend_mw_n <- t.pend_mw_n + 1
                done
              end
            end)
          p.C.clk_mwr.(ck))
      ticks;
    for j = 0 to t.pend_ff_n - 1 do
      set_net t p.C.ff_q.(t.pend_ff_i.(j)) (Bytes.get t.pend_ff_v j <> '\000')
    done;
    (* Reverse order on the commit lists reproduces the baseline's
       last-pushed-first application (first port wins conflicts). *)
    for j = t.pend_srd_n - 1 downto 0 do
      set_net t t.pend_srd_net.(j) (Bytes.get t.pend_srd_v j <> '\000')
    done;
    for j = t.pend_mw_n - 1 downto 0 do
      let mi = t.pend_mw_mem.(j) in
      let st = t.mem_states.(mi) in
      let idx = t.pend_mw_idx.(j) in
      let v = Bytes.get t.pend_mw_v j in
      if Bytes.get st.data idx <> v then begin
        Bytes.set st.data idx v;
        Array.iter (fun c -> enqueue t c) p.C.mem_readers.(mi)
      end
    done

(** Advance [n] (default 1) cycles of root clock [root]. *)
let step ?(n = 1) t root =
  for _ = 1 to n do
    settle t;
    edge t root;
    t.cycles <- t.cycles + 1;
    settle t
  done

let step_n t root n = step ~n t root

(** Run up to [max_cycles] edges of [root], stopping early once
    [stop_net] settles high after an edge; returns cycles actually run. *)
let run_until t root ~stop_net ~max_cycles =
  let run = ref 0 in
  let stop = ref false in
  while (not !stop) && !run < max_cycles do
    settle t;
    edge t root;
    t.cycles <- t.cycles + 1;
    settle t;
    incr run;
    if read t stop_net then stop := true
  done;
  !run

let cycles t = t.cycles

let create ?(jobs = 1) (n : Netlist.t) =
  let jobs = max 1 (min jobs 63) in
  let p = C.compile n in
  let values = Bytes.make (max 1 n.num_nets) '\000' in
  (* Power-on: FFs take their init value; constants are pinned. *)
  Array.iter
    (fun (f : Netlist.ff) ->
      Bytes.set values f.q (if f.init then '\001' else '\000'))
    n.ffs;
  List.iter
    (fun (net, b) -> Bytes.set values net (if b then '\001' else '\000'))
    n.const_nets;
  let mem_states =
    Array.map
      (fun (m : Netlist.mem) ->
        let data = Bytes.make (m.mem_width * m.mem_depth) '\000' in
        (match m.mem_init with
        | Some init ->
          Array.iteri
            (fun addr v ->
              for bit = 0 to m.mem_width - 1 do
                if Zoomie_rtl.Bits.get v bit then
                  Bytes.set data ((addr * m.mem_width) + bit) '\001'
              done)
            init
        | None -> ());
        { data; width = m.mem_width; depth = m.mem_depth })
      n.mems
  in
  let n_cells = p.C.n_cells in
  let n_ffs = Array.length n.ffs in
  let t =
    {
      p;
      values;
      forced_mask = Bytes.make (max 1 n.num_nets) '\000';
      forced_val = Bytes.make (max 1 n.num_nets) '\000';
      forced_count = 0;
      mem_states;
      cycles = 0;
      wl = Array.make (max 1 n_cells) 0;
      seg_len = Array.make (max 1 p.C.n_levels) 0;
      queued = Bytes.make (max 1 n_cells) '\000';
      ff_active =
        Array.map (fun g -> Array.make (max 1 (Array.length g)) 0) p.C.clk_ffs;
      ff_active_n = Array.make (max 1 p.C.n_clocks) 0;
      ff_pos = Array.make (max 1 n_ffs) (-1);
      pend_ff_i = Array.make (max 1 n_ffs) 0;
      pend_ff_v = Bytes.make (max 1 n_ffs) '\000';
      pend_ff_n = 0;
      pend_srd_net = Array.make (max 1 p.C.total_srd_bits) 0;
      pend_srd_v = Bytes.make (max 1 p.C.total_srd_bits) '\000';
      pend_srd_n = 0;
      pend_mw_mem = Array.make (max 1 p.C.total_mwr_bits) 0;
      pend_mw_idx = Array.make (max 1 p.C.total_mwr_bits) 0;
      pend_mw_v = Bytes.make (max 1 p.C.total_mwr_bits) '\000';
      pend_mw_n = 0;
      tick_cache = Array.init (max 1 p.C.n_clocks) (fun _ -> Hashtbl.create 4);
      tick_scratch = Array.make (max 1 p.C.n_clocks) false;
      par = (if jobs > 1 then Some (par_create jobs) else None);
      (* Journal capacity: a worker's slice can change at most one value
         per net (single producer), so num_nets bounds any level. *)
      chg =
        (if jobs > 1 then
           Array.init jobs (fun _ -> Array.make (max 1 n.num_nets) 0)
         else [||]);
      chg_n = (if jobs > 1 then Array.make jobs 0 else [||]);
      n_events = 0;
      n_levels_touched = 0;
      n_edges = 0;
      n_tick_hits = 0;
      n_tick_misses = 0;
      n_par_dispatches = 0;
      n_boundary_syncs = 0;
    }
  in
  (* Everything is dirty at power-on (first settle is a full pass, like
     the baseline's first eval_comb); classify all FFs once. *)
  for c = 0 to n_cells - 1 do
    enqueue t c
  done;
  for i = 0 to n_ffs - 1 do
    refresh_ff_active t i
  done;
  t

(** Drive an input port (all bits). *)
let poke_input t name (v : Zoomie_rtl.Bits.t) =
  let ios = Netlist.find_input (netlist t) name in
  if ios = [] then invalid_arg (Printf.sprintf "Netsim.poke_input: unknown %S" name);
  List.iter
    (fun (io : Netlist.io) -> set t io.io_net (Zoomie_rtl.Bits.get v io.io_bit))
    ios

(** Read an output port. *)
let peek_output t name =
  let ios = Netlist.find_output (netlist t) name in
  if ios = [] then invalid_arg (Printf.sprintf "Netsim.peek_output: unknown %S" name);
  let width = List.length ios in
  let r = ref (Zoomie_rtl.Bits.zero width) in
  List.iter
    (fun (io : Netlist.io) ->
      if read t io.io_net then r := Zoomie_rtl.Bits.set !r io.io_bit true)
    ios;
  !r

(** FF state access by cell index (used by readback capture/restore). *)
let ff_value t i = read t t.p.C.ff_q.(i)
let set_ff t i v = set_net t t.p.C.ff_q.(i) v

(** BRAM/LUTRAM content access by memory cell index and bit position. *)
let mem_bit t mi ~addr ~bit =
  let st = t.mem_states.(mi) in
  Bytes.get st.data ((addr * st.width) + bit) <> '\000'

let set_mem_bit t mi ~addr ~bit v =
  let st = t.mem_states.(mi) in
  let idx = (addr * st.width) + bit in
  if Bytes.get st.data idx <> '\000' <> v then begin
    Bytes.set st.data idx (if v then '\001' else '\000');
    Array.iter (fun c -> enqueue t c) t.p.C.mem_readers.(mi)
  end

let copy_mem t mi ~src ~src_mi =
  let st = t.mem_states.(mi) and from = src.mem_states.(src_mi) in
  if st.width <> from.width || st.depth <> from.depth then
    invalid_arg "Netsim.copy_mem: memory geometry differs";
  if not (Bytes.equal st.data from.data) then begin
    Bytes.blit from.data 0 st.data 0 (Bytes.length st.data);
    Array.iter (fun c -> enqueue t c) t.p.C.mem_readers.(mi)
  end

(** Read back a register by its RTL hierarchical name (via ff_names
    metadata), returning its multi-bit value. *)
let read_register t name =
  let nl = netlist t in
  let bits =
    Array.to_list nl.ff_names
    |> List.mapi (fun i (n, bit) -> (i, n, bit))
    |> List.filter (fun (_, n, _) -> n = name)
  in
  if bits = [] then
    invalid_arg (Printf.sprintf "Netsim.read_register: unknown %S" name);
  let width = 1 + List.fold_left (fun m (_, _, b) -> max m b) 0 bits in
  let r = ref (Zoomie_rtl.Bits.zero width) in
  List.iter
    (fun (i, _, bit) -> if ff_value t i then r := Zoomie_rtl.Bits.set !r bit true)
    bits;
  !r

let write_register t name v =
  let nl = netlist t in
  Array.iteri
    (fun i (n, bit) ->
      if n = name && bit < Zoomie_rtl.Bits.width v then
        set_ff t i (Zoomie_rtl.Bits.get v bit))
    nl.ff_names;
  eval_comb t
