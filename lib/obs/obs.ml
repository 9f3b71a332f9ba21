(* Metrics registry + span tracer shared by every Zoomie subsystem.

   Two hard requirements shape this module.  First, hot paths (the
   netsim kernel, the JTAG meter, the hub tick) must pay O(1) with no
   string hashing per record — so the registry hands out mutable
   handles once and recording touches only the handle.  Second,
   everything exported must be deterministic under a fixed workload:
   snapshots sort by name, and spans carry a *modeled* clock alongside
   wall time so tests can assert on durations bit-for-bit. *)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let n_buckets = 64

(* Bucket i covers [2^(i-33), 2^(i-32)): frexp puts v = m * 2^e with
   0.5 <= m < 1, so e indexes the power-of-two decade directly and the
   whole histogram record path is one frexp + one array bump. *)
let bucket_of v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    let i = e + 32 in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let bucket_bounds i =
  (Float.ldexp 1.0 (i - 33), Float.ldexp 1.0 (i - 32))

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type counter = int ref
type gauge = float ref
type histogram = hist

type metric = Counter_m of counter | Gauge_m of gauge | Hist_m of hist

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let find_or_create name make describe =
  with_lock registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.add registry name m;
        m)
  |> fun m ->
  match describe m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs: metric %S already registered with another kind"
         name)

let counter name =
  find_or_create name
    (fun () -> Counter_m (ref 0))
    (function Counter_m c -> Some c | _ -> None)

let gauge name =
  find_or_create name
    (fun () -> Gauge_m (ref 0.0))
    (function Gauge_m g -> Some g | _ -> None)

let histogram name =
  find_or_create name
    (fun () ->
      Hist_m
        {
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
          h_buckets = Array.make n_buckets 0;
        })
    (function Hist_m h -> Some h | _ -> None)

let incr ?(by = 1) (c : counter) = c := !c + by
let counter_value (c : counter) = !c
let set_gauge (g : gauge) v = g := v
let max_gauge (g : gauge) v = if v > !g then g := v
let gauge_value (g : gauge) = !g

let observe (h : histogram) v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

type value =
  | Count of int
  | Value of float
  | Dist of {
      d_count : int;
      d_sum : float;
      d_min : float;
      d_max : float;
      d_buckets : (int * int) list;
    }

let snapshot () =
  let entries =
    with_lock registry_lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  entries
  |> List.map (fun (name, m) ->
         let v =
           match m with
           | Counter_m c -> Count !c
           | Gauge_m g -> Value !g
           | Hist_m h ->
             let buckets = ref [] in
             for i = n_buckets - 1 downto 0 do
               if h.h_buckets.(i) > 0 then
                 buckets := (i, h.h_buckets.(i)) :: !buckets
             done;
             Dist
               {
                 d_count = h.h_count;
                 d_sum = h.h_sum;
                 d_min = (if h.h_count = 0 then 0.0 else h.h_min);
                 d_max = (if h.h_count = 0 then 0.0 else h.h_max);
                 d_buckets = !buckets;
               }
         in
         (name, v))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset_metrics () =
  with_lock registry_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter_m c -> c := 0
          | Gauge_m g -> g := 0.0
          | Hist_m h ->
            h.h_count <- 0;
            h.h_sum <- 0.0;
            h.h_min <- infinity;
            h.h_max <- neg_infinity;
            Array.fill h.h_buckets 0 n_buckets 0)
        registry)

(* JSON by hand: the whole point of this library is zero dependencies.
   Floats print with %.17g so a snapshot -> JSON -> parse round trip is
   value-preserving. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let snapshot_to_json snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": " (json_escape name));
      match v with
      | Count n -> Buffer.add_string b (string_of_int n)
      | Value f -> Buffer.add_string b (json_float f)
      | Dist d ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \
              \"buckets\": {"
             d.d_count (json_float d.d_sum) (json_float d.d_min)
             (json_float d.d_max));
        List.iteri
          (fun j (idx, n) ->
            if j > 0 then Buffer.add_string b ", ";
            Buffer.add_string b (Printf.sprintf "\"%d\": %d" idx n))
          d.d_buckets;
        Buffer.add_string b "}}")
    snap;
  Buffer.add_string b "}";
  Buffer.contents b

let snapshot_summary snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match v with
      | Count n -> Buffer.add_string b (Printf.sprintf "%-40s %d\n" name n)
      | Value f -> Buffer.add_string b (Printf.sprintf "%-40s %g\n" name f)
      | Dist d ->
        Buffer.add_string b
          (Printf.sprintf "%-40s count=%d sum=%g min=%g max=%g\n" name
             d.d_count d.d_sum d.d_min d.d_max))
    snap;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_seq : int;
  sp_name : string;
  sp_cat : string;
  sp_depth : int;
  sp_parent : int;
  sp_wall_start : float;
  sp_wall_dur : float;
  sp_model_start : float;
  sp_model_dur : float;
}

let dummy_span =
  {
    sp_seq = -1;
    sp_name = "";
    sp_cat = "";
    sp_depth = 0;
    sp_parent = -1;
    sp_wall_start = 0.0;
    sp_wall_dur = 0.0;
    sp_model_start = 0.0;
    sp_model_dur = 0.0;
  }

type tracer = {
  mutable enabled : bool;
  mutable cap : int;
  mutable ring : span array;
  mutable recorded : int;  (* total spans ever recorded *)
  mutable next_seq : int;
  mutable stack : int list;  (* seq of open spans, innermost first *)
}

let tracer =
  {
    enabled = false;
    cap = 4096;
    ring = [||];
    recorded = 0;
    next_seq = 0;
    stack = [];
  }

let trace_lock = Mutex.create ()
let tracing_enabled () = tracer.enabled

let clear_spans () =
  with_lock trace_lock (fun () ->
      tracer.ring <- [||];
      tracer.recorded <- 0;
      tracer.next_seq <- 0;
      tracer.stack <- [])

let set_tracing on = tracer.enabled <- on

let set_trace_capacity cap =
  if cap < 1 then invalid_arg "Obs.set_trace_capacity";
  clear_spans ();
  tracer.cap <- cap

let record_span sp =
  with_lock trace_lock (fun () ->
      if Array.length tracer.ring = 0 then
        tracer.ring <- Array.make tracer.cap dummy_span;
      tracer.ring.(tracer.recorded mod tracer.cap) <- sp;
      tracer.recorded <- tracer.recorded + 1)

let no_mclock () = 0.0

let span ?(cat = "zoomie") ?(mclock = no_mclock) name f =
  if not tracer.enabled then f ()
  else begin
    let seq = tracer.next_seq in
    tracer.next_seq <- seq + 1;
    let parent = match tracer.stack with [] -> -1 | p :: _ -> p in
    let depth = List.length tracer.stack in
    tracer.stack <- seq :: tracer.stack;
    let wall0 = Unix.gettimeofday () in
    let model0 = mclock () in
    let finish () =
      let wall1 = Unix.gettimeofday () in
      let model1 = mclock () in
      (match tracer.stack with
      | s :: rest when s = seq -> tracer.stack <- rest
      | _ -> ());
      record_span
        {
          sp_seq = seq;
          sp_name = name;
          sp_cat = cat;
          sp_depth = depth;
          sp_parent = parent;
          sp_wall_start = wall0;
          sp_wall_dur = wall1 -. wall0;
          sp_model_start = model0;
          sp_model_dur = model1 -. model0;
        }
    in
    Fun.protect ~finally:finish f
  end

let spans () =
  with_lock trace_lock (fun () ->
      let n = min tracer.recorded tracer.cap in
      if n = 0 then []
      else begin
        let first = tracer.recorded - n in
        List.init n (fun i -> tracer.ring.((first + i) mod tracer.cap))
      end)

let chrome_trace () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \
            \"pid\": 1, \"tid\": 1, \"ts\": %s, \"dur\": %s, \
            \"args\": {\"seq\": %d, \"parent\": %d, \"depth\": %d, \
            \"model_start\": %s, \"model_dur\": %s}}"
           (json_escape sp.sp_name) (json_escape sp.sp_cat)
           (json_float (sp.sp_wall_start *. 1e6))
           (json_float (sp.sp_wall_dur *. 1e6))
           sp.sp_seq sp.sp_parent sp.sp_depth
           (json_float sp.sp_model_start)
           (json_float sp.sp_model_dur)))
    (spans ());
  Buffer.add_string b "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents b

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ()))

let reset () =
  reset_metrics ();
  clear_spans ();
  set_tracing false
