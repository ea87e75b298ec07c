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
  let online_cores = Domain.recommended_domain_count
end

(* ---------------- recorder state ------------------------------------ *)

type arg = Int of int | Float of float | Str of string | Bool of bool

type phase = Complete | Counter

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

let reset () =
  events := [];
  Hashtbl.reset tbl;
  Hashtbl.reset hists;
  cur_pid := Unix.getpid ()

(* ---------------- spans --------------------------------------------- *)

let record e = events := e :: !events

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

(* Final totals as Chrome counter events: one per counter, then one per
   non-empty histogram carrying its summary, so the trace holds every
   number the recorder keeps except the raw samples. *)
let counter_events () =
  let ts = Clock.now_s () *. 1e6 in
  let event cat name args =
    { name; cat; ph = Counter; ts_us = ts; dur_us = 0.; pid = !cur_pid; args }
  in
  List.map
    (fun (name, v) -> event "counter" name [ ("value", Float v) ])
    (counters ())
  @ List.map
      (fun (name, h) ->
        event "histogram" name
          [
            ("count", Int h.count);
            ("p50", Float h.p50);
            ("p90", Float h.p90);
            ("p95", Float h.p95);
            ("max", Float h.max_v);
          ])
      (histograms ())

(* ---------------- JSON emission ------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 10) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let float_json f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "0"

let arg_json = function
  | Int i -> string_of_int i
  | Float f -> float_json f
  | Str s -> json_string s
  | Bool b -> string_of_bool b

let args_json = function
  | [] -> ""
  | args ->
      Printf.sprintf ",\"args\":{%s}"
        (String.concat ","
           (List.map (fun (k, v) -> json_string k ^ ":" ^ arg_json v) args))

let event_json e =
  let ph, extra =
    match e.ph with
    | Complete -> ("X", Printf.sprintf ",\"dur\":%.3f" e.dur_us)
    | Counter -> ("C", "")
  in
  Printf.sprintf
    "{\"name\":%s,\"cat\":%s,\"ph\":\"%s\",\"ts\":%.3f%s,\"pid\":%d,\"tid\":0%s}"
    (json_string e.name) (json_string e.cat) ph e.ts_us extra e.pid
    (args_json e.args)

type sink = Chrome of string

(* ---------------- atomic file writes -------------------------------- *)

(* Same discipline as Proof_cache v2: write to a pid-unique sibling tmp,
   then rename.  A reader (the perf gate, a trace viewer) either sees
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

let write_sink (Chrome path) evs =
  write_file_atomic path
    ("{\"traceEvents\":[\n"
    ^ String.concat ",\n" (List.map event_json evs)
    ^ "\n],\"displayTimeUnit\":\"ms\"}\n")
