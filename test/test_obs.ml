(* Tests for the observability layer (lib/obs): counters, spans,
   histograms, atomic file writes, a parseable --trace file whose spans
   cover every pipeline stage, and the prover's spans inside it. *)

module D = Netlist.Design
module C = Netlist.Cell

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_env_var name value f =
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name "") f

(* --- a minimal JSON reader (no external deps) --------------------------- *)
(* Just enough to validate what Obs.write_sink emits; rejects anything
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

let trace_events path =
  match Json.member "traceEvents" (Json.parse (read_file path)) with
  | Some (Json.List l) -> l
  | _ -> Alcotest.fail "no traceEvents array"

let events_of_phase ph =
  List.filter (fun e -> Json.member "ph" e = Some (Json.Str ph))

let event_name e =
  match Json.member "name" e with Some (Json.Str s) -> s | _ -> ""

(* [arg e key]: the trace event's [args.key], if present *)
let arg e key = Option.bind (Json.member "args" e) (Json.member key)

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
  let events = Obs.drain () in
  let names = List.map (fun (e : Obs.event) -> e.Obs.name) events in
  check "outer recorded" true (List.mem "outer" names);
  check "inner recorded" true (List.mem "inner" names);
  check "span recorded on exception" true (List.mem "raiser" names);
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
  Obs.with_span ~cat:"stage"
    ~args:(fun () -> [ ("note", Obs.Str "say \"hi\"\\") ])
    "alpha"
    (fun () -> Obs.add_int "w" 1);
  Obs.observe "beta" 0.5;
  with_temp_file ".json" @@ fun path ->
  Obs.write_sink (Obs.Chrome path) (Obs.drain () @ Obs.counter_events ());
  let events = trace_events path in
  check "three events" true (List.length events = 3);
  List.iter
    (fun e ->
      let ph = Json.str_exn (Option.get (Json.member "ph" e)) in
      check "valid phase" true (List.mem ph [ "X"; "C" ]);
      check "ts present and sane" true
        (Json.num_exn (Option.get (Json.member "ts" e)) >= 0.);
      check "pid present" true
        (Json.num_exn (Option.get (Json.member "pid" e)) > 0.))
    events;
  check "span, counter, then histogram" true
    (List.map event_name events = [ "alpha"; "w"; "beta" ]);
  check "string arg escapes round-trip" true
    (arg (List.hd events) "note" = Some (Json.Str "say \"hi\"\\"));
  let last = List.nth events 2 in
  check "histogram count" true (arg last "count" = Some (Json.Num 1.));
  check "histogram p95" true (arg last "p95" = Some (Json.Num 0.5))

(* --- core detection -------------------------------------------------------- *)

let test_online_cores () =
  check "at least one core" true (Obs.Hw.online_cores () >= 1)

(* --- pipeline: trace golden file ------------------------------------------ *)

let gen_config =
  { Netlist.Generate.n_inputs = 6; n_gates = 42; n_flops = 8; n_outputs = 6 }

let test_pipeline_trace_golden () =
  let d = Netlist.Generate.random ~seed:11 ~config:gen_config () in
  let env = Pdat.Environment.unconstrained d in
  with_temp_file ".json" @@ fun path ->
  (* histograms are process-wide: start from an empty recorder so the
     trace's final events are this run's *)
  Obs.reset ();
  ignore
    (Pdat.Pipeline.run ~validate:true ~lint:Analysis.Lint.Warn
       ~time_budget:60. ~trace:(Obs.Chrome path) ~design:d ~env ()
      : Pdat.Pipeline.result);
  check "tracing restored to disabled" false (Obs.is_enabled ());
  let events = trace_events path in
  let spans = events_of_phase "X" events in
  let span_names = List.map event_name spans in
  List.iter
    (fun stage ->
      check (Printf.sprintf "stage %S has a span" stage) true
        (List.mem stage span_names))
    [ "lint"; "mine"; "refine"; "prove"; "rewire"; "audit"; "resynth";
      "baseline"; "validate" ];
  (* a budgeted stage's span carries the allocation it started with;
     an unbudgeted one has none *)
  let alloc_s stage =
    arg (List.find (fun e -> event_name e = stage) spans) "alloc_s"
  in
  List.iter
    (fun stage ->
      match alloc_s stage with
      | Some (Json.Num a) ->
          check (Printf.sprintf "%s alloc_s within the budget" stage) true
            (a > 0. && a <= 60.)
      | _ -> Alcotest.failf "stage %S has no alloc_s arg" stage)
    [ "mine"; "refine"; "prove"; "validate" ];
  check "rewire is not budgeted" true (alloc_s "rewire" = None);
  let counter name =
    List.find_map
      (fun e -> if event_name e = name then arg e "value" else None)
      (events_of_phase "C" events)
  in
  check "rsim cycle counter in trace" true (counter "rsim.cycles" <> None);
  (* the per-SAT-call latency histogram closes the trace, its count
     equal to the run's SAT calls *)
  let last = List.nth events (List.length events - 1) in
  check "sat.call_s histogram closes the trace" true
    (event_name last = "sat.call_s"
    && Json.member "ph" last = Some (Json.Str "C"));
  check "histogram count is the SAT call count" true
    (arg last "count" = counter "sat.calls");
  (* inside prove, from a cold start: one span per prover tier, and one
     sat-call span per SAT call, their conflicts summing to prove's *)
  let prove = List.find (fun e -> event_name e = "prove") spans in
  let field e key = Json.num_exn (Option.get (Json.member key e)) in
  let num e key =
    match arg e key with Some (Json.Num v) -> v | _ -> 0.
  in
  let inside e =
    field e "ts" >= field prove "ts"
    && field e "ts" <= field prove "ts" +. field prove "dur"
  in
  let in_prove = List.filter (fun e -> e != prove && inside e) spans in
  let named n = List.filter (fun e -> event_name e = n) in_prove in
  List.iter
    (fun tier ->
      check_int (Printf.sprintf "one %s span inside prove" tier) 1
        (List.length (named tier)))
    [ "cache"; "base"; "step" ];
  check_int "an encode span per side inside prove" 2
    (List.length (named "encode"));
  let calls = named "sat-call" in
  check "prove made SAT calls" true (calls <> []);
  check_int "one sat-call span per SAT call"
    (int_of_float (num prove "sat.calls"))
    (List.length calls);
  check_int "sat-call conflicts sum to prove's"
    (int_of_float (num prove "sat.conflicts"))
    (int_of_float
       (List.fold_left (fun acc e -> acc +. num e "sat.conflicts") 0. calls));
  check "every sat-call names its side" true
    (List.for_all
       (fun e ->
         List.mem (arg e "side") [ Some (Json.Str "base"); Some (Json.Str "step") ])
       calls)

let test_pdat_trace_env_var () =
  let d = Netlist.Generate.random ~seed:3 ~config:gen_config () in
  let env = Pdat.Environment.unconstrained d in
  with_temp_file ".json" @@ fun path ->
  let _ =
    with_env_var "PDAT_TRACE" path (fun () ->
        Pdat.Pipeline.run ~design:d ~env ())
  in
  check "PDAT_TRACE-selected file is a Chrome trace with stage spans" true
    (List.mem "mine" (List.map event_name (events_of_phase "X" (trace_events path))))

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

(* --- prover spans ----------------------------------------------------------- *)

(* two disjoint blocks, each with two true constants and one
   deliberately false claim, which a base-side model refutes *)
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

let test_prover_spans () =
  let d, cands = twin_with_refuted () in
  (* one traced proof: its fates, and its spans without their times *)
  let run () =
    Obs.reset ();
    Obs.enable ();
    Fun.protect ~finally:Obs.disable @@ fun () ->
    let fates = Hashtbl.create 8 in
    let proved, _ =
      Engine.Induction.prove_parallel ~attributions:fates ~assume:D.net_true d
        cands
    in
    let spans =
      List.map (fun (e : Obs.event) -> (e.Obs.name, e.Obs.args)) (Obs.drain ())
    in
    (proved, fates, spans)
  in
  let proved, fates, spans = run () in
  check_int "the four true constants proved" 4 (List.length proved);
  check "one span per tier, in order, around the SAT calls" true
    (List.filter
       (fun n -> n <> "sat-call" && n <> "encode")
       (List.map fst spans)
    = [ "cache"; "base"; "step" ]);
  (* each side's encoding may open in the same clock tick as its side's
     span, so its place among them is not checked *)
  let encodes spans = List.filter (fun (n, _) -> n = "encode") spans in
  check_int "an encode span per side" 2 (List.length (encodes spans));
  let calls = List.filter (fun (n, _) -> n = "sat-call") spans in
  check "a SAT call on each side" true
    (List.for_all
       (fun side ->
         List.exists (fun (_, a) -> List.assoc_opt "side" a = Some (Obs.Str side)) calls)
       [ "base"; "step" ]);
  let listed =
    List.concat_map
      (fun (_, a) ->
        match List.assoc_opt "refuted" a with
        | Some (Obs.Str "") -> []
        | Some (Obs.Str keys) -> String.split_on_char ' ' keys
        | _ -> Alcotest.fail "a sat-call span has no refuted arg")
      calls
  in
  let refuted =
    Hashtbl.fold
      (fun c v acc ->
        match v with
        | Engine.Induction.V_refuted _ | Engine.Induction.V_not_inductive ->
            Engine.Candidate.key c :: acc
        | _ -> acc)
      fates []
  in
  check_int "the false claims were refuted" 2 (List.length refuted);
  check "the listed keys are exactly the refuted candidates" true
    (List.sort compare listed = List.sort compare refuted);
  let _, _, again = run () in
  let others = List.filter (fun (n, _) -> n <> "encode") in
  check "same span names and args on a second run" true
    (others spans = others again && encodes spans = encodes again);
  Obs.reset ()

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
          Alcotest.test_case "PDAT_TRACE env var" `Quick
            test_pdat_trace_env_var;
        ] );
      ( "prover",
        [
          Alcotest.test_case "spans per tier and per call" `Quick
            test_prover_spans;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "atomic file writes" `Quick test_write_file_atomic;
        ] );
    ]
