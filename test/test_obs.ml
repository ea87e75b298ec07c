(* Tests for the observability layer (lib/obs): counters, spans,
   histograms, cost attribution, the run log, OpenMetrics, and a
   parseable --trace file whose spans cover every pipeline stage. *)

module D = Netlist.Design
module C = Netlist.Cell

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_env_var name value f =
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name "") f

(* --- a minimal JSON reader (no external deps) --------------------------- *)
(* Just enough to validate what Obs.write_chrome emits; rejects anything
   structurally malformed, which is the point of the golden test. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' -> advance (); Buffer.add_char b '"'; go ()
            | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
            | Some '/' -> advance (); Buffer.add_char b '/'; go ()
            | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
            | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
            | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
            | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
            | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  match peek () with
                  | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                  | _ -> fail "bad \\u escape"
                done;
                Buffer.add_char b '?';
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            advance ();
            Buffer.add_char b c;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Obj [] end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members ((key, v) :: acc)
              | Some '}' -> advance (); List.rev ((key, v) :: acc)
              | _ -> fail "expected , or } in object"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); List [] end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elems (v :: acc)
              | Some ']' -> advance (); List.rev (v :: acc)
              | _ -> fail "expected , or ] in array"
            in
            List (elems [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
      | None -> fail "unexpected end of input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None

  let str_exn = function Str s -> s | _ -> raise (Bad "expected string")
  let num_exn = function Num f -> f | _ -> raise (Bad "expected number")
end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_file suffix f =
  let path = Filename.temp_file "pdat_obs" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ()) (fun () -> f path)

(* --- clock -------------------------------------------------------------- *)

let test_clock () =
  let a = Obs.Clock.now_s () in
  check "clock is non-negative" true (a >= 0.);
  let worst = ref a in
  for _ = 1 to 10_000 do
    let t = Obs.Clock.now_s () in
    if t < !worst then Alcotest.failf "clock went backwards: %f -> %f" !worst t;
    worst := t
  done;
  (* real time must actually accumulate *)
  Unix.sleepf 0.01;
  check "clock advances across a sleep" true (Obs.Clock.now_s () > a)

(* --- counters ------------------------------------------------------------ *)

let test_counters () =
  Obs.reset ();
  Obs.add "t.x" 1.5;
  Obs.add_int "t.x" 2;
  Obs.add_int "t.y" 7;
  let cs = Obs.counters () in
  check "x accumulated" true (List.assoc "t.x" cs = 3.5);
  check "y accumulated" true (List.assoc "t.y" cs = 7.);
  let since = cs in
  Obs.add_int "t.y" 1;
  Obs.add_int "t.z" 4;
  let delta = Obs.counters_delta ~since in
  check "unmoved counter absent from delta" true
    (List.assoc_opt "t.x" delta = None);
  check "moved counter delta" true (List.assoc "t.y" delta = 1.);
  check "new counter delta" true (List.assoc "t.z" delta = 4.);
  Obs.reset ();
  check "reset clears counters" true (Obs.counters () = [])

(* --- spans --------------------------------------------------------------- *)

let test_spans () =
  Obs.reset ();
  check "disabled by default here" false (Obs.is_enabled ());
  ignore (Obs.with_span "ignored" (fun () -> 1));
  check "no events recorded while disabled" true (Obs.drain () = []);
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let r =
    Obs.with_span ~cat:"test" "outer" (fun () ->
        Obs.add_int "span.work" 3;
        Obs.with_span "inner" (fun () -> ());
        17)
  in
  check_int "with_span returns the body's value" 17 r;
  (try
     Obs.with_span "raiser" (fun () -> failwith "boom")
   with Failure _ -> ());
  Obs.instant "marker";
  let events = Obs.drain () in
  let names = List.map (fun (e : Obs.event) -> e.Obs.name) events in
  check "outer recorded" true (List.mem "outer" names);
  check "inner recorded" true (List.mem "inner" names);
  check "span recorded on exception" true (List.mem "raiser" names);
  check "instant recorded" true (List.mem "marker" names);
  let outer =
    List.find (fun (e : Obs.event) -> e.Obs.name = "outer") events
  in
  check "counter delta attached to span" true
    (List.assoc_opt "span.work" outer.Obs.args = Some (Obs.Float 3.));
  check "drain clears" true (Obs.drain () = []);
  (* chronological order: events sorted by start time *)
  let ts = List.map (fun (e : Obs.event) -> e.Obs.ts_us) events in
  check "drain is chronological" true (List.sort compare ts = ts)

let test_chrome_writer () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  Obs.with_span ~cat:"stage" "alpha" (fun () -> Obs.add_int "w" 1);
  Obs.instant "beta";
  with_temp_file ".json" @@ fun path ->
  Obs.write_sink (Obs.Chrome path) (Obs.drain () @ Obs.counter_events ());
  let j = Json.parse (read_file path) in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  check "three events" true (List.length events = 3);
  List.iter
    (fun e ->
      let ph = Json.str_exn (Option.get (Json.member "ph" e)) in
      check "valid phase" true (List.mem ph [ "X"; "i"; "C" ]);
      check "ts present and sane" true
        (Json.num_exn (Option.get (Json.member "ts" e)) >= 0.);
      check "pid present" true
        (Json.num_exn (Option.get (Json.member "pid" e)) > 0.))
    events;
  let names =
    List.map (fun e -> Json.str_exn (Option.get (Json.member "name" e))) events
  in
  check "span, instant and counter all present" true
    (List.mem "alpha" names && List.mem "beta" names && List.mem "w" names)

(* --- core detection -------------------------------------------------------- *)

let test_online_cores () =
  check "at least one core" true (Obs.Hw.online_cores () >= 1);
  with_env_var "PDAT_FORCE_CORES" "3" (fun () ->
      check_int "PDAT_FORCE_CORES overrides detection" 3
        (Obs.Hw.online_cores ()))

(* --- pipeline: trace golden file ------------------------------------------ *)

let gen_config =
  { Netlist.Generate.n_inputs = 6; n_gates = 42; n_flops = 8; n_outputs = 6 }

let test_pipeline_trace_golden () =
  let d = Netlist.Generate.random ~seed:11 ~config:gen_config () in
  let env = Pdat.Environment.unconstrained d in
  with_temp_file ".json" @@ fun path ->
  let r =
    Pdat.Pipeline.run ~validate:true ~lint:Analysis.Lint.Warn
      ~trace:(Obs.Chrome path) ~design:d ~env ()
  in
  check "tracing restored to disabled" false (Obs.is_enabled ());
  let j = Json.parse (read_file path) in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let span_names =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "name" e) with
        | Some (Json.Str "X"), Some (Json.Str name) -> Some name
        | _ -> None)
      events
  in
  List.iter
    (fun stage ->
      check (Printf.sprintf "stage %S has a span" stage) true
        (List.mem stage span_names))
    [ "lint"; "mine"; "refine"; "prove"; "rewire"; "resynth"; "baseline";
      "validate" ];
  (* the counters the report carries must also surface in the trace *)
  let counter_names =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "name" e) with
        | Some (Json.Str "C"), Some (Json.Str name) -> Some name
        | _ -> None)
      events
  in
  check "rsim cycle counter in trace" true (List.mem "rsim.cycles" counter_names);
  check "report counters non-empty" true
    (r.Pdat.Pipeline.report.Pdat.Pipeline.counters <> []);
  check "report counts rsim cycles" true
    (List.mem_assoc "rsim.cycles" r.Pdat.Pipeline.report.Pdat.Pipeline.counters)

let test_pdat_trace_env_var () =
  let d = Netlist.Generate.random ~seed:3 ~config:gen_config () in
  let env = Pdat.Environment.unconstrained d in
  with_temp_file ".jsonl" @@ fun path ->
  let _ =
    with_env_var "PDAT_TRACE" path (fun () ->
        Pdat.Pipeline.run ~design:d ~env ())
  in
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  check "jsonl sink wrote events" true (lines <> []);
  (* every line is a standalone JSON object *)
  List.iter
    (fun line ->
      match Json.parse line with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "jsonl line is not an object")
    lines

(* --- histograms --------------------------------------------------------- *)

let test_histogram_percentiles () =
  Obs.reset ();
  (* 1..100 in a scrambled order: percentiles must not depend on
     insertion order *)
  let xs = List.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  List.iter (Obs.observe "t.lat") xs;
  match Obs.histogram "t.lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 100 h.Obs.count;
      Alcotest.(check (float 1e-9)) "min" 1.0 h.Obs.min_v;
      Alcotest.(check (float 1e-9)) "max" 100.0 h.Obs.max_v;
      Alcotest.(check (float 1e-9)) "p50" 50.0 h.Obs.p50;
      Alcotest.(check (float 1e-9)) "p95" 95.0 h.Obs.p95

let test_histogram_empty () =
  Obs.reset ();
  Alcotest.(check bool) "no samples, no histogram" true
    (Obs.histogram "never.observed" = None);
  Alcotest.(check (list string)) "no distributions" []
    (List.map fst (Obs.histograms ()))

let test_histogram_reset () =
  Obs.reset ();
  Obs.observe "m.x" 1.0;
  Obs.observe "m.x" 3.0;
  Obs.reset ();
  (* samples recorded before a reset must not leak into the next window *)
  Obs.observe "m.x" 2.0;
  (match Obs.histogram "m.x" with
  | Some h ->
      Alcotest.(check int) "count after reset" 1 h.Obs.count;
      Alcotest.(check (float 1e-9)) "p50 after reset" 2.0 h.Obs.p50
  | None -> Alcotest.fail "histogram missing after reset");
  Obs.reset ();
  Alcotest.(check bool) "reset clears distributions" true
    (Obs.histogram "m.x" = None)

(* --- cost attribution ---------------------------------------------------- *)

let test_attr_billing () =
  Obs.reset ();
  (* a charge with no key in scope is dropped, not misfiled *)
  Obs.Attr.charge_call ~wall_s:1.0 ~conflicts:5;
  check "untagged charge is a no-op" true (Obs.Attr.export () = []);
  Obs.Attr.with_key "C1:0" (fun () ->
      Obs.Attr.charge_call ~wall_s:0.5 ~conflicts:3;
      Obs.Attr.charge_call ~wall_s:0.25 ~conflicts:1);
  Obs.Attr.with_key "C2:0" (fun () ->
      Obs.Attr.charge_call ~wall_s:0.125 ~conflicts:0);
  (match Obs.Attr.export () with
  | [ r1; r2 ] ->
      check "rows sorted by key" true
        (r1.Obs.Attr.a_key = "C1:0" && r2.Obs.Attr.a_key = "C2:0");
      check_int "calls accumulated" 2 r1.Obs.Attr.a_sat_calls;
      check_int "conflicts accumulated" 4 r1.Obs.Attr.a_conflicts;
      Alcotest.(check (float 1e-9)) "wall accumulated" 0.75 r1.Obs.Attr.a_wall_s;
      check_int "second key billed on its own row" 1 r2.Obs.Attr.a_sat_calls
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  (* the key scope is restored even when the body raises *)
  (try Obs.Attr.with_key "C9:0" (fun () -> failwith "boom")
   with Failure _ -> ());
  Obs.Attr.charge_call ~wall_s:0.1 ~conflicts:1;
  check_int "key restored after raise: charge dropped again" 2
    (List.length (Obs.Attr.export ()));
  Obs.reset ();
  check "reset clears the attribution table" true (Obs.Attr.export () = [])

let test_attr_delta_and_top () =
  Obs.reset ();
  Obs.Attr.with_key "(base-aggregate)" (fun () ->
      Obs.Attr.charge_call ~wall_s:1.0 ~conflicts:100);
  Obs.Attr.with_key "C1:0" (fun () ->
      Obs.Attr.charge_call ~wall_s:0.1 ~conflicts:2);
  let since = Obs.Attr.export () in
  Obs.Attr.with_key "C1:0" (fun () ->
      Obs.Attr.charge_call ~wall_s:0.1 ~conflicts:8);
  Obs.Attr.with_key "C2:0" (fun () ->
      Obs.Attr.charge_call ~wall_s:0.1 ~conflicts:10);
  Obs.Attr.with_key "C3:0" (fun () ->
      Obs.Attr.charge_call ~wall_s:0.1 ~conflicts:10);
  let d = Obs.Attr.delta ~since (Obs.Attr.export ()) in
  check "delta drops unmoved rows" true
    (List.for_all (fun r -> r.Obs.Attr.a_key <> "(base-aggregate)") d);
  (match List.find_opt (fun r -> r.Obs.Attr.a_key = "C1:0") d with
  | Some r -> check_int "delta is windowed, not cumulative" 8 r.Obs.Attr.a_conflicts
  | None -> Alcotest.fail "C1:0 missing from delta");
  let top = Obs.Attr.top ~k:2 d in
  check_int "top honors k" 2 (List.length top);
  (* conflicts desc, then SAT calls desc, then key asc: C2/C3 tie on
     both counters and the tie breaks on the key *)
  check "deterministic ranking" true
    (List.map (fun r -> r.Obs.Attr.a_key) top = [ "C2:0"; "C3:0" ]);
  check "aggregate buckets never surface in top" true
    (List.for_all
       (fun r -> r.Obs.Attr.a_key.[0] <> '(')
       (Obs.Attr.top (Obs.Attr.export ())))

(* two disjoint blocks, each with two true constants and one
   deliberately false claim: the false claim is refuted by an aggregate
   round, whose cost the prover bills to the candidates the round
   killed — so the cost table is non-empty *)
let twin_with_refuted () =
  let d = D.create "twin_r" in
  let block name =
    let a = D.add_input d name in
    let na = D.add_cell d C.Inv [| a |] in
    let zero = D.add_cell d C.And2 [| a; na |] in
    let one = D.add_cell d C.Inv [| zero |] in
    let r = D.add_dff d ~d:zero () in
    D.add_output d ("y_" ^ name) r;
    D.add_output d ("o_" ^ name) one;
    [
      Engine.Candidate.Const (zero, false);
      Engine.Candidate.Const (r, false);
      (* false: [one] is constantly high *)
      Engine.Candidate.Const (one, false);
    ]
  in
  let cands = block "a" @ block "b" in
  (d, cands)

(* the cost-table signature we require to be reproducible: everything
   except wall time, which is deliberately not part of the contract *)
let attr_sig (st : Engine.Induction.stats) =
  List.map
    (fun (r : Obs.Attr.row) ->
      (r.Obs.Attr.a_key, r.Obs.Attr.a_sat_calls, r.Obs.Attr.a_conflicts))
    st.Engine.Induction.top_costs

let test_attr_prover_billing () =
  let d, cands = twin_with_refuted () in
  let run () =
    Obs.reset ();
    let proved, st = Engine.Induction.prove_parallel ~assume:D.net_true d cands in
    (proved, attr_sig st)
  in
  let proved, sig1 = run () in
  check_int "the four true constants proved" 4 (List.length proved);
  check "refuted candidates produced cost rows" true (sig1 <> []);
  check "only refuted candidates are billed" true
    (List.for_all
       (fun (key, _, _) ->
         not
           (List.exists
              (fun c -> Engine.Candidate.key c = key)
              proved))
       sig1);
  (* same run again: the table is byte-reproducible, wall time aside *)
  let _, sig2 = run () in
  check "cost table identical across runs" true (sig1 = sig2);
  Obs.reset ()

(* --- structured run log -------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let log_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.parse

let event_name o =
  match Json.member "event" o with Some (Json.Str s) -> s | _ -> ""

let test_log_jsonl () =
  check "level_of_string accepts synonyms" true
    (Obs.Log.level_of_string "WARNING" = Some Obs.Log.Warn);
  check "level_of_string rejects garbage" true
    (Obs.Log.level_of_string "loud" = None);
  with_temp_file ".jsonl" @@ fun path ->
  check "inactive before set" false (Obs.Log.active ());
  Obs.Log.event "dropped-without-a-sink";
  Obs.Log.set path;
  check "active after set" true (Obs.Log.active ());
  Obs.Log.event ~stage:"prove"
    ~kv:[ ("attempt", Obs.Int 0); ("wall_s", Obs.Float 0.25) ]
    "stage-start";
  Obs.Log.event ~level:Obs.Log.Debug "invisible";
  Obs.Log.event ~level:Obs.Log.Warn
    ~kv:[ ("reason", Obs.Str "say \"hi\"") ]
    "warned";
  Obs.Log.close ();
  check "inactive after close" false (Obs.Log.active ());
  let objs = log_lines path in
  check_int "debug filtered below the Info threshold" 2 (List.length objs);
  List.iter
    (fun o ->
      check "ts present" true (Json.member "ts" o <> None);
      check "level present" true (Json.member "level" o <> None))
    objs;
  let first = List.nth objs 0 in
  check "event name" true (event_name first = "stage-start");
  check "level label" true (Json.member "level" first = Some (Json.Str "info"));
  check "stage field" true (Json.member "stage" first = Some (Json.Str "prove"));
  check "int kv" true (Json.member "attempt" first = Some (Json.Num 0.));
  check "float kv" true (Json.member "wall_s" first = Some (Json.Num 0.25));
  let second = List.nth objs 1 in
  check "warn level" true (Json.member "level" second = Some (Json.Str "warn"));
  check "string kv escapes round-trip" true
    (Json.member "reason" second = Some (Json.Str "say \"hi\""))

let test_pipeline_log_and_metrics () =
  let d = Netlist.Generate.random ~seed:11 ~config:gen_config () in
  let env = Pdat.Environment.unconstrained d in
  with_temp_file ".jsonl" @@ fun log_path ->
  with_temp_file ".txt" @@ fun metrics_path ->
  let r =
    Pdat.Pipeline.run ~log:log_path ~metrics_out:metrics_path ~design:d ~env ()
  in
  check "pipeline closed the log it opened" false (Obs.Log.active ());
  let evs = log_lines log_path in
  let names = List.map event_name evs in
  List.iter
    (fun n ->
      check (Printf.sprintf "log has a %S event" n) true (List.mem n names))
    [ "run-start"; "stage-start"; "stage-end"; "run-end" ];
  check "stage events carry the stage name" true
    (List.exists
       (fun o ->
         event_name o = "stage-end"
         && Json.member "stage" o = Some (Json.Str "mine")
         && Json.member "wall_s" o <> None)
       evs);
  (match List.find_opt (fun o -> event_name o = "run-end") evs with
  | Some o ->
      check "run-end reports the proved count" true
        (Json.member "proved" o
        = Some
            (Json.Num
               (float_of_int r.Pdat.Pipeline.report.Pdat.Pipeline.proved)))
  | None -> Alcotest.fail "no run-end event");
  (* --metrics-out dumped the recorder as OpenMetrics text *)
  let m = read_file metrics_path in
  check "metrics end with the EOF trailer" true
    (String.length m >= 6 && String.sub m (String.length m - 6) 6 = "# EOF\n");
  check "metrics include the SAT call counter" true
    (contains m "pdat_sat_calls_total")

let test_pdat_log_env_var () =
  let d = Netlist.Generate.random ~seed:3 ~config:gen_config () in
  let env = Pdat.Environment.unconstrained d in
  with_temp_file ".jsonl" @@ fun path ->
  let _ =
    with_env_var "PDAT_LOG" path (fun () -> Pdat.Pipeline.run ~design:d ~env ())
  in
  check "PDAT_LOG-selected file got events" true
    (List.mem "run-end" (List.map event_name (log_lines path)))

(* --- OpenMetrics exposition ---------------------------------------------- *)

let test_openmetrics_golden () =
  Obs.reset ();
  Obs.add_int "sat.calls" 3;
  Obs.observe "solve.s" 0.0005;
  Obs.observe "solve.s" 0.02;
  Obs.observe "solve.s" 5.0;
  let expected =
    String.concat "\n"
      [
        "# TYPE pdat_sat_calls counter";
        "pdat_sat_calls_total 3";
        "# TYPE pdat_solve_s histogram";
        "pdat_solve_s_bucket{le=\"1e-05\"} 0";
        "pdat_solve_s_bucket{le=\"0.0001\"} 0";
        "pdat_solve_s_bucket{le=\"0.001\"} 1";
        "pdat_solve_s_bucket{le=\"0.01\"} 1";
        "pdat_solve_s_bucket{le=\"0.1\"} 2";
        "pdat_solve_s_bucket{le=\"1\"} 2";
        "pdat_solve_s_bucket{le=\"10\"} 3";
        "pdat_solve_s_bucket{le=\"+Inf\"} 3";
        "pdat_solve_s_sum 5.0205";
        "pdat_solve_s_count 3";
        "# EOF";
        "";
      ]
  in
  Alcotest.(check string) "golden exposition" expected (Obs.openmetrics ());
  check "byte-deterministic across calls" true
    (Obs.openmetrics () = Obs.openmetrics ());
  Obs.reset ();
  Alcotest.(check string) "empty recorder is just the trailer" "# EOF\n"
    (Obs.openmetrics ())

let test_write_file_atomic () =
  let dir = Filename.temp_file "pdat_atomic" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
  @@ fun () ->
  let path = Filename.concat dir "out.txt" in
  Obs.write_file_atomic path "first\n";
  Obs.write_file_atomic path "second\n";
  Alcotest.(check string) "last write wins" "second\n" (read_file path);
  check "no tmp file left behind" true
    (Sys.readdir dir |> Array.to_list |> List.for_all (fun f -> f = "out.txt"))

let () =
  Alcotest.run "obs"
    [
      ( "histograms",
        [
          Alcotest.test_case "percentiles over scrambled input" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "empty distributions" `Quick test_histogram_empty;
          Alcotest.test_case "reset drops samples" `Quick test_histogram_reset;
        ] );
      ( "obs",
        [
          Alcotest.test_case "monotonic clock" `Quick test_clock;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "chrome writer emits valid JSON" `Quick
            test_chrome_writer;
          Alcotest.test_case "online core detection" `Quick test_online_cores;
        ] );
      ( "trace",
        [
          Alcotest.test_case "pipeline --trace golden file" `Quick
            test_pipeline_trace_golden;
          Alcotest.test_case "PDAT_TRACE env var, jsonl sink" `Quick
            test_pdat_trace_env_var;
        ] );
      ( "attr",
        [
          Alcotest.test_case "billing, scoping and reset" `Quick
            test_attr_billing;
          Alcotest.test_case "delta window and deterministic top" `Quick
            test_attr_delta_and_top;
          Alcotest.test_case "prover billing is reproducible" `Quick
            test_attr_prover_billing;
        ] );
      ( "log",
        [
          Alcotest.test_case "leveled JSONL events" `Quick test_log_jsonl;
          Alcotest.test_case "pipeline --log + --metrics-out" `Quick
            test_pipeline_log_and_metrics;
          Alcotest.test_case "PDAT_LOG env var" `Quick test_pdat_log_env_var;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "golden exposition text" `Quick
            test_openmetrics_golden;
          Alcotest.test_case "atomic file writes" `Quick test_write_file_atomic;
        ] );
    ]
