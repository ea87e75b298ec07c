(* Tests for the [pdat perf] comparison engine (lib/report/perf):
   envelope loading with schema refusal, the two-condition noise gate,
   and the byte-deterministic markdown delta table. *)

module P = Report.Perf

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* fixtures need stable basenames (they appear in the markdown header),
   so they live in a throwaway directory instead of Filename.temp_file *)
let with_fixture_dir f =
  let dir = Filename.temp_file "pdat_perf" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let write dir name contents =
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let base_json =
  {|{
  "schema_version": 1,
  "target": "sat",
  "sat_calls": 100,
  "t_prove_s": 2.0
}|}

(* +25% on a stage timing: it clears the relative tolerance and the
   absolute floor, so it must gate *)
let regressed_json =
  {|{
  "schema_version": 1,
  "target": "sat",
  "sat_calls": 120,
  "t_prove_s": 2.5
}|}

(* --- loading ------------------------------------------------------------- *)

let test_load () =
  with_fixture_dir @@ fun dir ->
  let b = P.load (write dir "base.json" base_json) in
  check_int "schema parsed" 1 b.P.b_schema;
  check_str "target parsed" "sat" b.P.b_target;
  check "scalars sorted by name" true
    (List.map fst b.P.b_fields = [ "sat_calls"; "t_prove_s" ]);
  check "missing file raises" true
    (try
       ignore (P.load (Filename.concat dir "absent.json"));
       false
     with P.Perf_error _ -> true);
  check "non-object JSON raises" true
    (try
       ignore (P.load (write dir "arr.json" "[1,2]"));
       false
     with P.Perf_error _ -> true);
  check "missing schema_version refused" true
    (try
       ignore (P.load (write dir "old.json" {|{"target": "sat", "t_x_s": 1}|}));
       false
     with P.Perf_error msg -> msg <> "" && String.length msg > 0)

(* --- gating -------------------------------------------------------------- *)

let test_gate_identical () =
  with_fixture_dir @@ fun dir ->
  let b = P.load (write dir "base.json" base_json) in
  let deltas = P.compare_benches ~base:b b in
  check "identical envelopes: no regression" true (P.regressions deltas = []);
  check "every metric still reported" true (List.length deltas = 2)

let test_gate_regression () =
  with_fixture_dir @@ fun dir ->
  let b = P.load (write dir "base.json" base_json) in
  let c = P.load (write dir "cur.json" regressed_json) in
  let regs = P.regressions (P.compare_benches ~base:b c) in
  check "timing flagged" true
    (List.map (fun d -> d.P.d_metric) regs = [ "t_prove_s" ]);
  (* the counter moved too, but only timings may gate *)
  check "counter rows never gate" true
    (List.for_all (fun d -> d.P.d_metric <> "sat_calls") regs)

(* the two-condition rule: an increase must clear BOTH the relative
   tolerance and the absolute floor before it counts *)
let test_gate_two_condition () =
  let bench fields =
    { P.b_path = "x.json"; b_schema = 1; b_target = "sat"; b_fields = fields }
  in
  (* +100% relative but only 10ms absolute: under the 50ms floor *)
  let b = bench [ ("t_x_s", 0.010) ] in
  let c = bench [ ("t_x_s", 0.020) ] in
  check "micro-noise under the absolute floor never gates" true
    (P.regressions (P.compare_benches ~base:b c) = []);
  (* +60ms absolute but only +0.6% relative: under the tolerance *)
  let b = bench [ ("t_x_s", 10.0) ] in
  let c = bench [ ("t_x_s", 10.06) ] in
  check "sub-tolerance drift on big timings never gates" true
    (P.regressions (P.compare_benches ~base:b c) = []);
  (* both conditions cleared: gates *)
  let b = bench [ ("t_x_s", 1.0) ] in
  let c = bench [ ("t_x_s", 1.3) ] in
  check "real slide gates" true
    (P.regressions (P.compare_benches ~base:b c) <> [])

let test_gate_mismatches () =
  with_fixture_dir @@ fun dir ->
  let b = P.load (write dir "base.json" base_json) in
  let v2 =
    P.load
      (write dir "v2.json" {|{"schema_version": 2, "target": "sat", "t_x_s": 1}|})
  in
  check "schema mismatch refused" true
    (try
       ignore (P.compare_benches ~base:b v2);
       false
     with P.Perf_error _ -> true);
  let other =
    P.load
      (write dir "o.json" {|{"schema_version": 1, "target": "absint", "t_x_s": 1}|})
  in
  check "target mismatch refused" true
    (try
       ignore (P.compare_benches ~base:b other);
       false
     with P.Perf_error _ -> true)

(* schema growth: metrics present on only one side are informational
   gaps, not failures — old baselines must stay comparable *)
let test_gate_skips_one_sided () =
  with_fixture_dir @@ fun dir ->
  let b = P.load (write dir "base.json" base_json) in
  let c =
    P.load
      (write dir "grown.json"
         {|{
  "schema_version": 1,
  "target": "sat",
  "sat_calls": 100,
  "t_prove_s": 2.0,
  "t_brand_new_stage_s": 99.0
}|})
  in
  let deltas = P.compare_benches ~base:b c in
  check "one-sided metrics skipped" true
    (List.for_all (fun d -> d.P.d_metric <> "t_brand_new_stage_s") deltas);
  check "grown envelope still passes" true (P.regressions deltas = [])

(* --- the markdown table -------------------------------------------------- *)

let golden_markdown =
  "## Perf delta: base.json \xe2\x86\x92 cur.json\n\n\
   Thresholds: \xc2\xb115% relative, 0.050s absolute floor. Only timing \
   rows gate.\n\n\
   | metric | base | current | \xce\x94% | gate |\n\
   |---|---|---|---|---|\n\
   | sat_calls | 100 | 120 | +20.0 | \xe2\x80\x94 |\n\
   | t_prove_s | 2 | 2.5 | +25.0 | **REGRESSION** |\n\n\
   **1 regression.**\n"

let test_markdown_golden () =
  with_fixture_dir @@ fun dir ->
  let b = P.load (write dir "base.json" base_json) in
  let c = P.load (write dir "cur.json" regressed_json) in
  let deltas = P.compare_benches ~base:b c in
  let md = P.markdown_table ~base:b c deltas in
  check_str "golden delta table" golden_markdown md;
  check "byte-deterministic across calls" true
    (md = P.markdown_table ~base:b c deltas);
  let clean = P.markdown_table ~base:b b (P.compare_benches ~base:b b) in
  check "clean table reports no regressions" true
    (String.length clean >= 17
    && String.sub clean (String.length clean - 17) 17 = "\nNo regressions.\n")

let () =
  Alcotest.run "perf"
    [
      ( "load",
        [ Alcotest.test_case "envelope parsing and refusals" `Quick test_load ] );
      ( "gate",
        [
          Alcotest.test_case "identical runs pass" `Quick test_gate_identical;
          Alcotest.test_case "injected regression flagged" `Quick
            test_gate_regression;
          Alcotest.test_case "two-condition noise rule" `Quick
            test_gate_two_condition;
          Alcotest.test_case "schema/target mismatches refused" `Quick
            test_gate_mismatches;
          Alcotest.test_case "one-sided metrics skipped" `Quick
            test_gate_skips_one_sided;
        ] );
      ( "markdown",
        [
          Alcotest.test_case "golden delta table" `Quick test_markdown_golden;
        ] );
    ]
