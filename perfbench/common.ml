(* Shared plumbing for the Zoomie benchmark: argument parsing, latency
   statistics, process figures, provenance, the in-memory span recorder
   and the result line.  Nothing here touches the system under test. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage =
  "usage: main.exe --workload farm_debug|vti_edit_loop|reverse_debug \
   --seed N --seconds S --trace 0|1"

let parse_args argv =
  let rec go acc = function
    | [] -> Ok acc
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seed -> go { acc with seed } rest
      | None -> Error ("bad --seed " ^ n))
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0.0 -> go { acc with seconds } rest
      | _ -> Error ("bad --seconds " ^ s))
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | arg :: _ -> Error ("unexpected argument " ^ arg)
  in
  match
    go { workload = ""; seed = 1; seconds = 10.0; trace = false }
      (List.tl (Array.to_list argv))
  with
  | Ok a when a.workload = "" -> Error "missing --workload"
  | r -> r

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let fratio a b = ratio (float_of_int a) (float_of_int b)

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let sum = List.fold_left ( +. ) 0.0

(* ---- latency statistics ---------------------------------------------- *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail figure: the highest nearest-rank percentile that still has at
   least ten samples above it.  With fewer than eleven samples no
   percentile qualifies; the maximum is reported instead, and the printed
   percentile and count say which. *)
type tail = { t_value : float; t_pct : float; t_beyond : int; t_n : int }

let tail l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then { t_value = 0.0; t_pct = 0.0; t_beyond = 0; t_n = 0 }
  else if n < 11 then
    { t_value = a.(n - 1); t_pct = 100.0; t_beyond = 0; t_n = n }
  else
    let i = n - 11 in
    {
      t_value = a.(i);
      t_pct = 100.0 *. float_of_int (i + 1) /. float_of_int n;
      t_beyond = n - 1 - i;
      t_n = n;
    }

let pp_tail t =
  Printf.sprintf "p%.2f of n=%d, %d samples beyond%s" t.t_pct t.t_n t.t_beyond
    (if t.t_n < 11 then " (fewer than 11 samples: maximum)" else "")

(* ---- process figures ------------------------------------------------- *)

(* Peak resident set (VmHWM), in MB. *)
let max_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %f" (fun kb -> kb /. 1024.0)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

(* CPU seconds (user + system, all threads and domains), minor words and
   major collections.  OCaml 5 folds a domain's allocation into these
   counts once the domain has terminated, so sample after joining. *)
type proc = { p_cpu : float; p_minor : float; p_major : int }

let proc_sample () =
  let t = Unix.times () in
  let g = Gc.quick_stat () in
  {
    p_cpu = t.Unix.tms_utime +. t.Unix.tms_stime;
    p_minor = g.Gc.minor_words;
    p_major = g.Gc.major_collections;
  }

let proc_delta a b =
  {
    p_cpu = b.p_cpu -. a.p_cpu;
    p_minor = b.p_minor -. a.p_minor;
    p_major = b.p_major - a.p_major;
  }

(* ---- set-up ------------------------------------------------------------- *)

(* Set the rig up [reps] times and keep the last one; setup_s is the
   median.  Each earlier rig is torn down and collected first, so they
   never coexist. *)
let repeated_setup ?(reps = 5) ~setup ~teardown () =
  let times = ref [] and cur = ref None in
  for _ = 1 to reps do
    Option.iter teardown !cur;
    cur := None;
    Gc.compact ();
    let r, dt = timed setup in
    cur := Some r;
    times := dt :: !times
  done;
  (Option.get !cur, median !times)

(* A measured window starts from a compacted heap: otherwise it pays
   whatever collection debt set-up and warm-up left behind, and where a
   major cycle falls swings a run by far more than the effects measured. *)
let settle_heap () = Gc.compact ()

(* ---- host speed --------------------------------------------------------- *)

(* The shared host's speed drifts in phases of minutes: within a quarter
   of an hour the same compute loop, and every workload with it, ran 1.7x
   apart, in CPU time as much as in wall time, so neither longer runs nor
   CPU clocks steady the figures.  A fixed reference kernel, independent
   of the code under test, is timed through the run, and the result
   line's timings are scaled to a host on which it takes
   [reference_nominal_s]; the wall-clock figures are printed beside them.
   The kernel is integer arithmetic that allocates nothing, so the heap
   the workload left does not reach its timing.  It follows only part of
   the drift: the workloads, which chase pointers through large heaps,
   slow two to three times as much as it does. *)
let reference_nominal_s = 0.010

let reference_kernel () =
  let x = ref 1 in
  for i = 1 to 5_000_000 do
    x := ((!x * 31) + i) lxor (!x lsr 7)
  done;
  ignore (Sys.opaque_identity !x)

let speed_samples = ref []

(* One sample: the fastest of three runs of the kernel. *)
let sample_speed () =
  let best =
    List.fold_left
      (fun m _ -> Float.min m (snd (timed reference_kernel)))
      infinity [ 1; 2; 3 ]
  in
  speed_samples := best :: !speed_samples

(* How many times faster than nominal the host ran: the nominal kernel
   time over the median sample.  A time measured on it, times this, is
   the time on the nominal host. *)
let host_speed () = ratio reference_nominal_s (median !speed_samples)

(* ---- windows ------------------------------------------------------------ *)

(* A run's measured time is cut into [windows] equal windows, and the
   host's speed is sampled before each.  Besides its slow phases, the
   host slows in spells of seconds, so farm_debug and reverse_debug
   report the median over their windows of each window's median op
   latency and of its throughput: a spell that touches fewer than half
   the windows drops out, while a slower program slows every window.
   Totals, tails and failures count every window. *)
let windows = 10

let window_medians ~rate ~p50 ws = (median (List.map p50 ws), median (List.map rate ws))

let print_windows ~rate ~p50 ws =
  Printf.printf "windows (ops/s @ op p50 ms): %s\n"
    (String.concat "  "
       (List.map (fun w -> Printf.sprintf "%.4g @ %.4g" (rate w) (p50 w)) ws))

(* ---- provenance -------------------------------------------------------- *)

(* Digest of every .ml/.mli under lib/: identifies the code measured even
   in a checkout that is not a git repository. *)
let source_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then walk p
             else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
             then [ p ]
             else [])
  in
  let files = List.sort compare (walk "lib") in
  if files = [] then "none"
  else
    Digest.to_hex
      (Digest.string
         (String.concat "\000"
            (List.map (fun p -> p ^ "\000" ^ Digest.to_hex (Digest.file p)) files)))

let git_commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown (not a git checkout)" else line

(* Every workload runs the pure cable model: boards keep cable scale 0,
   so modeled JTAG time never turns into wall time. *)
let provenance ~args ~soc ~layout ~netsim_window =
  Printf.printf
    "provenance: commit=%s lib_digest=%s nproc=%d ocaml=%s seed=%d \
     seconds=%g soc=%s cable_scale=0 layout=%s netsim_window=%s\n%!"
    (git_commit ()) (source_digest ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version args.seed args.seconds soc layout netsim_window

(* ---- op streams ------------------------------------------------------- *)

let stream_digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* ---- spans ------------------------------------------------------------ *)

(* Spans are recorded by the benchmark around its own calls into each
   layer's public functions, kept in memory, and written out once at the
   end.  Times are wall clock. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_t0 : float;
  sp_t1 : float;
  sp_parent : int;  (** -1 for a root *)
  sp_op : int;
}

let spans_rev : span list ref = ref []
let next_id = ref 0
let tracing = ref false

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* A span whose times were taken by the caller. *)
let record ~op name t0 t1 =
  spans_rev :=
    { sp_id = fresh_id (); sp_name = name; sp_t0 = t0; sp_t1 = t1; sp_parent = -1; sp_op = op }
    :: !spans_rev

(* [span ~op name f]: run [f] inside a span when tracing is on.  The
   children of a span name it by the id [f] receives. *)
let span ?(parent = -1) ~op name f =
  if not !tracing then f (-1)
  else begin
    let id = fresh_id () in
    let t0 = now () in
    let r = f id in
    spans_rev :=
      { sp_id = id; sp_name = name; sp_t0 = t0; sp_t1 = now (); sp_parent = parent; sp_op = op }
      :: !spans_rev;
    r
  end

let spans () = List.rev !spans_rev

let span_durations name =
  List.filter_map
    (fun s -> if s.sp_name = name then Some (s.sp_t1 -. s.sp_t0) else None)
    (spans ())

let span_total name = sum (span_durations name)

let span_mean_ms name = 1000.0 *. mean (span_durations name)

(* Chrome trace_event JSON, one complete event per span. *)
let write_spans path =
  (try Unix.mkdir (Filename.dirname path) 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let all = spans () in
  let base = List.fold_left (fun m s -> Float.min m s.sp_t0) infinity all in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
        (if i = 0 then "" else ",\n")
        s.sp_name
        (1e6 *. (s.sp_t0 -. base))
        (1e6 *. (s.sp_t1 -. s.sp_t0))
        s.sp_id s.sp_parent s.sp_op)
    all;
  output_string oc "\n]}\n";
  close_out oc

(* ---- metrics and the result line --------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let print_metric ?(note = "") m =
  Printf.printf "  %-34s %16.6g %-6s%s\n" m.m_name m.m_value m.m_unit
    (if note = "" then "" else "  " ^ note)

(* JSON numbers must be finite; a ratio over an empty denominator is
   already 0 by [ratio]. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
              (json_number m.m_value) m.m_unit)
          metrics))

(* ---- output checks ------------------------------------------------------ *)

(* Check failures are collected, printed as they happen, and turn the
   run's [correct] flag false (and its exit code nonzero). *)
let failures : string list ref = ref []

let check what = function
  | Ok () -> ()
  | Error msg ->
    Printf.printf "CHECK FAILED [%s]: %s\n%!" what msg;
    failures := (what ^ ": " ^ msg) :: !failures

let out_dir = "_perfbench"
