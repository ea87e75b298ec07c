(* Tracing + metrics.  Counters are always on (one Hashtbl update per
   batched instrumentation point); spans are recorded only while
   enabled.  Everything here is single-threaded. *)

module Clock = struct
  (* Monotonic fallback on gettimeofday: accumulate only plausible
     positive deltas, so a stepped wall clock (NTP, manual set) can
     neither run time backwards nor bill a huge phantom interval to
     whatever is being timed. *)
  let max_step_s = 3600.
  let last_raw = ref (Unix.gettimeofday ())
  let mono = ref 0.

  let now_s () =
    let raw = Unix.gettimeofday () in
    let d = raw -. !last_raw in
    last_raw := raw;
    if d > 0. && d < max_step_s then mono := !mono +. d;
    !mono

  let wall_s = Unix.gettimeofday
end

module Hw = struct
  let from_getconf () =
    try
      let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" in
      let line = try Some (input_line ic) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      match line with
      | Some l -> int_of_string_opt (String.trim l)
      | None -> None
    with _ -> None

  let from_proc_cpuinfo () =
    try
      let ic = open_in "/proc/cpuinfo" in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = ref 0 in
          (try
             while true do
               let line = input_line ic in
               if String.length line >= 9 && String.sub line 0 9 = "processor"
               then incr n
             done
           with End_of_file -> ());
          if !n > 0 then Some !n else None)
    with _ -> None

  let detect () =
    match from_getconf () with
    | Some n when n >= 1 -> n
    | _ -> ( match from_proc_cpuinfo () with Some n -> n | None -> 1)

  let cached = ref (-1)

  let online_cores () =
    match Sys.getenv_opt "PDAT_FORCE_CORES" with
    | Some s when String.trim s <> "" -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> n
        | _ ->
            if !cached < 0 then cached := detect ();
            !cached)
    | _ ->
        if !cached < 0 then cached := detect ();
        !cached
end

(* ---------------- recorder state ------------------------------------ *)

type arg = Int of int | Float of float | Str of string | Bool of bool

type phase = Complete | Instant | Counter

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_us : float;
  dur_us : float;
  pid : int;
  args : (string * arg) list;
}

let enabled = ref false
let events : event list ref = ref [] (* newest first *)
let tbl : (string, float) Hashtbl.t = Hashtbl.create 64
let cur_pid = ref (Unix.getpid ())

let enable () = enabled := true
let disable () = enabled := false
let is_enabled () = !enabled

let reset_hists = ref (fun () -> ())
let reset_attr = ref (fun () -> ())

let reset () =
  events := [];
  Hashtbl.reset tbl;
  !reset_hists ();
  !reset_attr ();
  cur_pid := Unix.getpid ()

(* ---------------- counters ------------------------------------------ *)

let add name v =
  match Hashtbl.find_opt tbl name with
  | Some old -> Hashtbl.replace tbl name (old +. v)
  | None -> Hashtbl.replace tbl name v

let add_int name v = if v <> 0 then add name (float_of_int v)

let counters () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters_delta ~since =
  counters ()
  |> List.filter_map (fun (k, v) ->
         let d =
           match List.assoc_opt k since with Some v0 -> v -. v0 | None -> v
         in
         if d <> 0. then Some (k, d) else None)

(* ---------------- histograms ---------------------------------------- *)

(* Named sample distributions (per-SAT-call latency, per-run simulation
   time, ...).  Always on, like counters: one dynamic-array push per
   observation.  Summaries (p50/p95/...) are computed on demand by
   sorting a copy — observation stays O(1), reporting pays the sort.
   Past [hist_cap] samples, new observations overwrite a slot chosen by
   a deterministic LCG: a bounded-memory reservoir that keeps the
   summary representative without making two identical runs diverge. *)

let hist_cap = 65_536

type hist_state = {
  mutable samples : float array;
  mutable n : int;        (* filled slots, <= Array.length samples *)
  mutable total : int;    (* observations ever, for the reservoir *)
  mutable lcg : int;
}

let hists : (string, hist_state) Hashtbl.t = Hashtbl.create 16

let observe name v =
  let h =
    match Hashtbl.find_opt hists name with
    | Some h -> h
    | None ->
        let h = { samples = Array.make 64 0.; n = 0; total = 0; lcg = 0x5EED } in
        Hashtbl.replace hists name h;
        h
  in
  h.total <- h.total + 1;
  if h.n < hist_cap then begin
    if h.n = Array.length h.samples then begin
      let bigger = Array.make (min hist_cap (2 * h.n)) 0. in
      Array.blit h.samples 0 bigger 0 h.n;
      h.samples <- bigger
    end;
    h.samples.(h.n) <- v;
    h.n <- h.n + 1
  end
  else begin
    h.lcg <- ((h.lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    h.samples.(h.lcg mod hist_cap) <- v
  end

type histogram = {
  count : int;    (* observations ever, not just retained samples *)
  sum : float;    (* over retained samples *)
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p95 : float;
}

let summarize h =
  let s = Array.sub h.samples 0 h.n in
  Array.sort compare s;
  let pct p =
    (* nearest-rank on the retained sample set *)
    s.(min (h.n - 1) (int_of_float (ceil (p *. float_of_int h.n)) - 1 |> max 0))
  in
  {
    count = h.total;
    sum = Array.fold_left ( +. ) 0. s;
    min_v = s.(0);
    max_v = s.(h.n - 1);
    p50 = pct 0.50;
    p90 = pct 0.90;
    p95 = pct 0.95;
  }

let histogram name =
  match Hashtbl.find_opt hists name with
  | Some h when h.n > 0 -> Some (summarize h)
  | Some _ | None -> None

let histograms () =
  Hashtbl.fold
    (fun k h acc -> if h.n > 0 then (k, summarize h) :: acc else acc)
    hists []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram_samples () =
  Hashtbl.fold
    (fun k h acc ->
      if h.n > 0 then (k, Array.sub h.samples 0 h.n) :: acc else acc)
    hists []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let () = reset_hists := fun () -> Hashtbl.reset hists

(* ---------------- cost attribution ---------------------------------- *)

(* Per-candidate cost rows.  The SAT layer bills every solve to the key
   currently in dynamic scope ([with_key]); untagged calls are simply
   not billed. *)

module Attr = struct
  type row = {
    a_key : string;          (* Candidate.key, or "(...)"-bracketed bucket *)
    a_wall_s : float;
    a_sat_calls : int;
    a_conflicts : int;
  }

  let atbl : (string, row) Hashtbl.t = Hashtbl.create 64
  let cur_key : string option ref = ref None

  let blank key = { a_key = key; a_wall_s = 0.; a_sat_calls = 0; a_conflicts = 0 }

  let find key =
    match Hashtbl.find_opt atbl key with
    | Some r -> r
    | None -> blank key

  let with_key key f =
    let saved = !cur_key in
    cur_key := Some key;
    Fun.protect ~finally:(fun () -> cur_key := saved) f

  let charge_call ~wall_s ~conflicts =
    match !cur_key with
    | None -> ()
    | Some key ->
        let r = find key in
        Hashtbl.replace atbl key
          {
            r with
            a_wall_s = r.a_wall_s +. wall_s;
            a_sat_calls = r.a_sat_calls + 1;
            a_conflicts = r.a_conflicts + conflicts;
          }

  let export () =
    Hashtbl.fold (fun _ r acc -> r :: acc) atbl []
    |> List.sort (fun a b -> compare a.a_key b.a_key)

  let delta ~since rows =
    let base = Hashtbl.create (List.length since) in
    List.iter (fun r -> Hashtbl.replace base r.a_key r) since;
    List.filter_map
      (fun r ->
        let d =
          match Hashtbl.find_opt base r.a_key with
          | None -> r
          | Some o ->
              {
                r with
                a_wall_s = r.a_wall_s -. o.a_wall_s;
                a_sat_calls = r.a_sat_calls - o.a_sat_calls;
                a_conflicts = r.a_conflicts - o.a_conflicts;
              }
        in
        if d.a_sat_calls = 0 && d.a_conflicts = 0 && d.a_wall_s = 0. then None
        else Some d)
      rows

  (* deterministic ranking: wall time is excluded on purpose, so the
     same proof run always yields the same table byte-for-byte *)
  let top ?(k = 10) rows =
    rows
    |> List.filter (fun r -> String.length r.a_key > 0 && r.a_key.[0] <> '(')
    |> List.sort (fun a b ->
           match compare b.a_conflicts a.a_conflicts with
           | 0 -> (
               match compare b.a_sat_calls a.a_sat_calls with
               | 0 -> compare a.a_key b.a_key
               | c -> c)
           | c -> c)
    |> List.filteri (fun i _ -> i < k)

  let () = reset_attr := fun () ->
      Hashtbl.reset atbl;
      cur_key := None
end

(* ---------------- spans --------------------------------------------- *)

let record e = events := e :: !events

let instant ?(cat = "instant") ?(args = []) name =
  if !enabled then
    record
      {
        name;
        cat;
        ph = Instant;
        ts_us = Clock.now_s () *. 1e6;
        dur_us = 0.;
        pid = !cur_pid;
        args;
      }

let with_span ?(cat = "span") ?args name f =
  if not !enabled then f ()
  else begin
    let snap = counters () in
    let t0 = Clock.now_s () in
    let close () =
      let t1 = Clock.now_s () in
      let extra =
        match args with
        | None -> []
        | Some thunk -> ( try thunk () with _ -> [])
      in
      record
        {
          name;
          cat;
          ph = Complete;
          ts_us = t0 *. 1e6;
          dur_us = (t1 -. t0) *. 1e6;
          pid = !cur_pid;
          args =
            extra
            @ List.map (fun (k, v) -> (k, Float v)) (counters_delta ~since:snap);
        }
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let with_span_timed ?cat ?args name f =
  let t0 = Clock.now_s () in
  let r = with_span ?cat ?args name f in
  (r, Clock.now_s () -. t0)

let drain () =
  (* recorded order is completion order (a nested span closes before its
     parent); chronological means start-time order, so sort — stable, so
     simultaneous events keep their recording order *)
  let l =
    List.stable_sort
      (fun a b -> compare a.ts_us b.ts_us)
      (List.rev !events)
  in
  events := [];
  l

let counter_events () =
  let ts = Clock.now_s () *. 1e6 in
  List.map
    (fun (name, v) ->
      {
        name;
        cat = "counter";
        ph = Counter;
        ts_us = ts;
        dur_us = 0.;
        pid = !cur_pid;
        args = [ ("value", Float v) ];
      })
    (counters ())

(* ---------------- JSON emission ------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_json f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "0"

let arg_json = function
  | Int i -> string_of_int i
  | Float f -> float_json f
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b

let args_json = function
  | [] -> ""
  | args ->
      Printf.sprintf ",\"args\":{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (arg_json v))
              args))

let event_json e =
  let ph, extra =
    match e.ph with
    | Complete -> ("X", Printf.sprintf ",\"dur\":%.3f" e.dur_us)
    | Instant -> ("i", ",\"s\":\"p\"")
    | Counter -> ("C", "")
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f%s,\"pid\":%d,\"tid\":0%s}"
    (escape e.name) (escape e.cat) ph e.ts_us extra e.pid (args_json e.args)

let write_chrome oc evs =
  output_string oc "{\"traceEvents\":[\n";
  output_string oc (String.concat ",\n" (List.map event_json evs));
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

let write_jsonl oc evs =
  List.iter
    (fun e ->
      output_string oc (event_json e);
      output_char oc '\n')
    evs

type sink = Chrome of string | Jsonl of string

let sink_of_path path =
  if Filename.check_suffix path ".jsonl" then Jsonl path else Chrome path

(* ---------------- atomic file writes -------------------------------- *)

(* Same discipline as Proof_cache v2: write to a pid-unique sibling tmp,
   then rename.  A reader (the perf gate, a metrics scraper) either sees
   the old complete file or the new complete file, never a torn one. *)
let write_file_atomic path contents =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out tmp in
  (try
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let write_sink sink evs =
  let path, writer =
    match sink with
    | Chrome p -> (p, write_chrome)
    | Jsonl p -> (p, write_jsonl)
  in
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  (try
     let oc = open_out tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> writer oc evs);
     Sys.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)

(* ---------------- structured run log -------------------------------- *)

(* Leveled JSONL event log.  One [Unix.write] per line on an O_APPEND
   descriptor: atomic on POSIX for these sizes, so two processes
   appending to the same file interleave whole lines rather than
   tearing them. *)

module Log = struct
  type level = Debug | Info | Warn | Error

  let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
  let level_label = function
    | Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

  let level_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" | "warning" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  let fd : Unix.file_descr option ref = ref None
  let threshold = ref Info

  let set ?(level = Info) path =
    (match !fd with Some f -> (try Unix.close f with Unix.Unix_error _ -> ()) | None -> ());
    threshold := level;
    fd :=
      Some
        (Unix.openfile path
           [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
           0o644)

  let close () =
    (match !fd with Some f -> (try Unix.close f with Unix.Unix_error _ -> ()) | None -> ());
    fd := None

  let active () = !fd <> None

  let write_line line =
    match !fd with
    | None -> ()
    | Some f ->
        let line = line ^ "\n" in
        let b = Bytes.of_string line in
        (try ignore (Unix.write f b 0 (Bytes.length b))
         with Unix.Unix_error _ -> ())

  let event ?(level = Info) ?stage ?(kv = []) name =
    match !fd with
    | None -> ()
    | Some _ when level_rank level < level_rank !threshold -> ()
    | Some _ ->
        let b = Buffer.create 128 in
        Buffer.add_string b
          (Printf.sprintf "{\"ts\":%.6f,\"level\":\"%s\",\"event\":\"%s\""
             (Clock.wall_s ()) (level_label level) (escape name));
        (match stage with
        | Some s -> Buffer.add_string b (Printf.sprintf ",\"stage\":\"%s\"" (escape s))
        | None -> ());
        List.iter
          (fun (k, v) ->
            Buffer.add_string b
              (Printf.sprintf ",\"%s\":%s" (escape k) (arg_json v)))
          kv;
        Buffer.add_char b '}';
        write_line (Buffer.contents b)
end

(* ---------------- OpenMetrics exposition ---------------------------- *)

(* Prometheus text format over the always-on counters and histograms.
   Fully deterministic for a fixed recorder state: names are sanitized
   and sorted, floats go through %.6g, and histogram buckets are a fixed
   ladder.  [_count]/[_sum] are over the *retained* reservoir samples
   (see the histogram doc), which keeps the exposition consistent with
   the bucket counts. *)

let metric_name name =
  let b = Buffer.create (String.length name + 5) in
  Buffer.add_string b "pdat_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let hist_buckets = [ 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. ]

let openmetrics () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" m);
      Buffer.add_string b (Printf.sprintf "%s_total %s\n" m (float_json v)))
    (counters ());
  List.iter
    (fun (name, samples) ->
      let m = metric_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" m);
      let n = Array.length samples in
      let cum le = Array.fold_left (fun acc s -> if s <= le then acc + 1 else acc) 0 samples in
      List.iter
        (fun le ->
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m (float_json le) (cum le)))
        hist_buckets;
      Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m n);
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" m
           (float_json (Array.fold_left ( +. ) 0. samples)));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" m n))
    (histogram_samples ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
