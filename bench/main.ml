(* Benchmark and reproduction harness.

   Usage:  main.exe [target...] [--full] [--json] [--trace]

   Targets: table1 table2 fig5 fig6 fig7 ablation lint all (default:
   all).  Each figure target regenerates the corresponding paper
   table/figure as text rows (variant, area, gate count, deltas vs the
   "Full" baseline); `lint` times the structural lint on all three
   cores (failing on any Error finding) and the certificate audit on an
   Ibex rv32i certified rewire.  Every argument is checked before any
   target runs: an unknown one prints the usage line and exits 2.

   `--json` additionally writes BENCH_<target>.json next to the binary:
   machine-readable per-variant, per-stage wall-clock timings and
   observability counters for CI trend tracking.

   `--trace` writes TRACE_<target>.json (Chrome trace-event format,
   loadable in chrome://tracing / Perfetto) per target: one span per
   pipeline stage, with SAT/rsim/cache counters attached.

   By default Figure 7 runs on a scaled-down RIDECORE configuration
   (16-entry ROB / 48 physical registers) so the whole harness finishes
   in ~25 minutes; pass `--full` for the paper-scale 100k-gate core
   (about 1 minute per variant on a 2-vCPU machine, RV32e about 3).
   Table II always reports the full-size core. *)

let fast = not (Array.exists (( = ) "--full") Sys.argv)
let json = Array.exists (( = ) "--json") Sys.argv
let trace = Array.exists (( = ) "--trace") Sys.argv

(* --- JSON emission ------------------------------------------------------ *)

let json_escape s =
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

(* p50/p95/max of every named latency distribution accumulated so far
   (e.g. per-SAT-call wall time) — the same summaries the run report
   prints, here in machine-readable form. *)
let histograms_json () =
  String.concat ", "
    (List.map
       (fun (name, h) ->
         Printf.sprintf
           "\"%s\": {\"count\": %d, \"p50\": %g, \"p95\": %g, \"max\": %g}"
           (json_escape name) h.Obs.count h.Obs.p50 h.Obs.p95 h.Obs.max_v)
       (Obs.histograms ()))

let write_bench_json target fields_of_entries =
  let path = Printf.sprintf "BENCH_%s.json" target in
  let contents =
    Printf.sprintf
      "{\n\
      \  \"schema_version\": %d,\n\
      \  \"commit\": \"%s\",\n\
      \  \"target\": \"%s\",\n\
      \  \"fast\": %b,\n\
      \  \"histograms\": {%s},\n\
       %s}\n"
      Report.Meta.schema_version
      (json_escape (Report.Meta.git_commit ()))
      (json_escape target) fast (histograms_json ()) fields_of_entries
  in
  Obs.write_file_atomic path contents;
  Format.printf "wrote %s@." path

let counters_json cs =
  String.concat ", "
    (List.map
       (fun (name, v) -> Printf.sprintf "\"%s\": %g" (json_escape name) v)
       cs)

let report_json (r : Pdat.Pipeline.report) =
  let stages =
    String.concat ", "
      (List.map
         (fun (name, s) -> Printf.sprintf "\"%s\": %.3f" (json_escape name) s)
         r.Pdat.Pipeline.stage_seconds)
  in
  Printf.sprintf
    "{\"variant\": \"%s\", \"seconds\": %.3f, \"proved\": %d, \
     \"sat_calls\": %d, \"stages\": {%s}, \"counters\": {%s}}"
    (json_escape r.Pdat.Pipeline.variant)
    r.Pdat.Pipeline.seconds r.Pdat.Pipeline.proved
    r.Pdat.Pipeline.induction.Engine.Induction.sat_calls stages
    (counters_json r.Pdat.Pipeline.counters)

let figure title figs =
  List.iter
    (fun fig ->
      let results =
        List.map
          (fun v -> Experiments.Runner.run_full ~fast v)
          (Experiments.Variants.by_figure fig)
      in
      let rows = List.map fst results in
      Format.printf "%a@."
        (Experiments.Runner.pp_rows ~title:(title ^ " / " ^ fig))
        rows;
      if json then
        let entries =
          List.filter_map
            (fun (_, res) ->
              Option.map
                (fun r -> report_json r.Pdat.Pipeline.report)
                res)
            results
        in
        write_bench_json fig
          (Printf.sprintf "  \"entries\": [\n    %s\n  ]\n"
             (String.concat ",\n    " entries)))
    figs

let run_table1 () = Format.printf "%a@." Experiments.Tables.pp_table1 ()
let run_table2 () = Format.printf "%a@." Experiments.Tables.pp_table2 ()

let run_fig5 () =
  figure "Figure 5: Ibex variants (cutpoint-based PDAT)"
    [ "fig5-isa"; "fig5-mibench"; "fig5-special" ]

let run_fig6 () = figure "Figure 6: obfuscated Cortex-M0 (port-based PDAT)" [ "fig6" ]
let run_fig7 () =
  if fast then
    Format.printf
      "(RIDECORE scaled to ROB=16/PRF=48/IQ=8 for this run; pass --full for \
       the 100k-gate configuration)@.";
  figure "Figure 7: RIDECORE (port-based PDAT)" [ "fig7" ]

(* --- ablations ---------------------------------------------------------- *)

let run_ablation () =
  (* A2: constraint style — port vs cutpoint on the same subset *)
  Format.printf "== Ablation A2: port-based vs cutpoint-based (Ibex, rv32i) ==@.";
  let t = Cores.Ibex_like.build () in
  let d = t.Cores.Ibex_like.design in
  let run_style label env =
    let r = Pdat.Pipeline.run ~design:d ~env () in
    Format.printf "%-10s %a@." label Pdat.Pipeline.pp_report r.Pdat.Pipeline.report
  in
  run_style "cutpoint"
    (Pdat.Environment.riscv_cutpoint d ~nets:(Cores.Ibex_like.cutpoint_nets t)
       Isa.Subset.rv32i);
  run_style "port" (Pdat.Environment.riscv_port d ~port:"instr_rdata" Isa.Subset.rv32i);
  (* A3: engine knobs — simulation depth and induction depth *)
  Format.printf "@.== Ablation A3: engine knobs (Ibex, rv32i, cutpoint) ==@.";
  let env () =
    Pdat.Environment.riscv_cutpoint d ~nets:(Cores.Ibex_like.cutpoint_nets t)
      Isa.Subset.rv32i
  in
  List.iter
    (fun (label, rsim, k) ->
      let r =
        Pdat.Pipeline.run ~rsim
          ~induction:
            { Engine.Induction.k; call_conflict_budget = 30_000;
              total_conflict_budget = 2_000_000; time_budget_s = infinity }
          ~design:d ~env:(env ()) ()
      in
      Format.printf "%-28s %a@." label Pdat.Pipeline.pp_report
        r.Pdat.Pipeline.report)
    [
      ("sim 64 cycles, k=1",
       { Engine.Rsim.default with Engine.Rsim.cycles = 64; runs = 1 }, 1);
      ("sim 384 cycles x2, k=1",
       { Engine.Rsim.default with Engine.Rsim.cycles = 384; runs = 2 }, 1);
      ("sim 384 cycles x2, k=2",
       { Engine.Rsim.default with Engine.Rsim.cycles = 384; runs = 2 }, 2);
    ]

(* --- static analysis ---------------------------------------------------- *)

let run_lint () =
  Format.printf "== Netlist lint & rewire-certificate audit ==@.";
  let lint_one label d =
    let t0 = Obs.Clock.now_s () in
    let diags = Analysis.Lint.run d in
    let dt = Obs.Clock.now_s () -. t0 in
    let e, w, i = Analysis.Diag.count diags in
    Format.printf
      "%-10s %6d cells: %d error(s), %d warning(s), %d info in %.2fs@." label
      (Netlist.Design.num_cells d) e w i dt;
    if e > 0 then begin
      Format.eprintf "FAIL: %s has Error-severity lint findings@." label;
      exit 1
    end;
    (label, Netlist.Design.num_cells d, e, w, i, dt)
  in
  let ibex = Cores.Ibex_like.build () in
  let row1 = lint_one "ibex" ibex.Cores.Ibex_like.design in
  let row2 =
    lint_one "cm0"
      (Netlist.Obfuscate.run (Cores.Cm0_like.build ()).Cores.Cm0_like.design)
  in
  let row3 =
    lint_one "ridecore"
      (let config =
         if fast then Cores.Ridecore_like.fast_config
         else Cores.Ridecore_like.default_config
       in
       (Cores.Ridecore_like.build ~config ()).Cores.Ridecore_like.design)
  in
  let rows = [ row1; row2; row3 ] in
  (* certified rewire + audit on the Ibex rv32i kernel: ternary
     reachability's constants stand in for the inductive prover so the
     target stays in seconds, the certificate/audit path is identical *)
  let d = ibex.Cores.Ibex_like.design in
  let env =
    Pdat.Environment.riscv_cutpoint d
      ~nets:(Cores.Ibex_like.cutpoint_nets ibex) Isa.Subset.rv32i
  in
  let proved =
    Engine.Absint.constants (Engine.Absint.run env.Pdat.Environment.model)
    |> Pdat.Property_library.restrict_to_original ~original:d
  in
  let rewired, certificate = Pdat.Rewire.apply_certified d proved in
  let t0 = Obs.Clock.now_s () in
  let audit =
    Analysis.Audit.run ~original:d ~rewired ~proved ~certificate ()
  in
  let audit_s = Obs.Clock.now_s () -. t0 in
  Format.printf
    "ibex rv32i certified rewire: %d proved, %d edit(s), audit %s in %.2fs@."
    (List.length proved)
    (Analysis.Certificate.length certificate)
    (if Analysis.Diag.errors audit = [] then "accepted" else "REJECTED")
    audit_s;
  if Analysis.Diag.errors audit <> [] then begin
    Format.eprintf "FAIL: audit rejected an uncorrupted certificate@.";
    exit 1
  end;
  if json then
    write_bench_json "lint"
      (Printf.sprintf
         "  \"designs\": [\n    %s\n  ],\n  \"certificate_edits\": %d,\n  \
          \"audit_accepted\": true,\n  \"audit_seconds\": %.3f\n"
         (String.concat ",\n    "
            (List.map
               (fun (label, cells, e, w, i, dt) ->
                 Printf.sprintf
                   "{\"design\": \"%s\", \"cells\": %d, \"errors\": %d, \
                    \"warnings\": %d, \"info\": %d, \"seconds\": %.3f}"
                   (json_escape label) cells e w i dt)
               rows))
         (Analysis.Certificate.length certificate)
         audit_s)

(* With --trace, each target records spans for its whole run and writes
   them as TRACE_<target>.json; the file is written even when the target
   fails so the trace of a failing run is not lost. *)
let with_target_trace target f =
  if not trace then f ()
  else begin
    let was_enabled = Obs.is_enabled () in
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        let path = Printf.sprintf "TRACE_%s.json" target in
        Obs.write_sink (Obs.Chrome path)
          (Obs.drain () @ Obs.counter_events ());
        Format.printf "wrote %s@." path;
        if not was_enabled then Obs.disable ())
      f
  end

let targets =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("ablation", run_ablation);
    ("lint", run_lint);
  ]

let () =
  let flags = [ "--full"; "--json"; "--trace" ] in
  let names =
    List.filter
      (fun a -> not (List.mem a flags))
      (List.tl (Array.to_list Sys.argv))
  in
  let names = if names = [] then [ "all" ] else names in
  (match List.find_opt (fun a -> a <> "all" && not (List.mem_assoc a targets)) names with
  | Some other ->
      Format.eprintf "unknown argument %s@.usage: main.exe [%s|all ...] %s@." other
        (String.concat "|" (List.map fst targets))
        "[--full] [--json] [--trace]";
      exit 2
  | None -> ());
  List.iter
    (fun name ->
      let run =
        if name = "all" then fun () -> List.iter (fun (_, run) -> run ()) targets
        else List.assoc name targets
      in
      with_target_trace name run)
    names
