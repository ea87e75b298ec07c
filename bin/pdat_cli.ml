(* pdat — command-line driver for the PDAT framework.

   Subcommands:
     list                      catalog of experiment variants
     run ID [...]              run catalog variants or whole figures
     reduce --core C --subset S [--port|--cutpoint] [-o out.v]
                               custom reduction with Verilog export
     export --core C -o out.v  dump a core's baseline netlist
     report --core C --subset S [--dump-cex DIR] [--out-dir DIR]
                               provenance-tracked run + REPORT_<core>.{json,md}
     lint [FILE.v ...] [--core C ...]
                               static netlist lint; exit 1 on errors
     chaos --core C --subset S [--dir D]
                               crash-safety matrix; exit 1 on any failure
     perf BASE.json CUR.json [...]
                               BENCH delta table + regression gate;
                               exit 1 on regression, 2 on a bad file
     table1 | table2           paper tables

   `pdat table1`, `pdat table2` and `pdat run fig5-isa fig5-mibench
   fig5-special fig6 fig7` regenerate every table and figure of the
   paper. *)

open Cmdliner

let fast =
  let doc = "Use the reduced RIDECORE configuration." in
  Arg.(value & flag & info [ "fast" ] ~doc)

let cache_dir_arg =
  let doc =
    "Directory for the persistent proof cache; candidates with a recorded \
     verdict for the same (netlist, assumption) skip the SAT prover on \
     later runs."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~doc ~docv:"DIR")

let make_cache = Option.map (fun d -> Engine.Proof_cache.create ~dir:d ())

let run_dir_arg =
  let doc =
    "Journal the run: an append-only, checksummed $(b,journal.jsonl) in \
     $(docv) records stage completions, making the run resumable after a crash (see $(b,--resume))."
  in
  Arg.(value & opt (some string) None & info [ "run-dir" ] ~doc ~docv:"DIR")

let resume_flag =
  let doc =
    "Resume from the journal in $(b,--run-dir): completed stages are \
     replayed instead of recomputed; a torn tail from a crash is \
     truncated.  Fails if the journal belongs to a different \
     netlist/environment."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* ---------------- list ---------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun fig ->
        Format.printf "%s:@." fig;
        List.iter
          (fun v ->
            Format.printf "  %-28s %s@." v.Experiments.Variants.id
              v.Experiments.Variants.label)
          (Experiments.Variants.by_figure fig))
      Experiments.Variants.figures
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiment variant catalog")
    Term.(const run $ const ())

(* ---------------- run ----------------------------------------------- *)

let run_cmd =
  let ids =
    let doc = "A variant id, or a figure id to run all of its variants." in
    Arg.(non_empty & pos_all string [] & info [] ~doc ~docv:"ID")
  in
  let run fast cache_dir ids =
    (* every id is resolved before anything runs, so a typo is refused
       at once, not after the earlier ids' runs *)
    let resolve id =
      if List.mem id Experiments.Variants.figures then `Figure id
      else
        match Experiments.Variants.find id with
        | v -> `Variant v
        | exception Not_found ->
            Format.eprintf "unknown variant or figure %s (try `pdat list')@."
              id;
            exit 1
    in
    let targets = List.map resolve ids in
    let cache = make_cache cache_dir in
    List.iter
      (function
        | `Figure id ->
            Format.printf "%a@."
              (Experiments.Runner.pp_rows
                 ~title:(Experiments.Variants.title id))
              (Experiments.Runner.run_figure ~fast ?cache id)
        | `Variant v ->
            Format.printf "%a@."
              (Experiments.Runner.pp_rows ?title:None)
              [ Experiments.Runner.run ~fast ?cache v ])
      targets
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run catalog variants, or every variant of a figure, through the \
          PDAT pipeline")
    Term.(const run $ fast $ cache_dir_arg $ ids)

(* ---------------- core / subset parsing ------------------------------- *)

let core_arg =
  let doc = "Core: ibex, cm0 (obfuscated) or ridecore." in
  Arg.(required & opt (some (enum [ ("ibex", `Ibex); ("cm0", `Cm0); ("ridecore", `Ridecore) ])) None
       & info [ "core" ] ~doc)

let build_core ?(fast = false) kind =
  match kind with
  | `Ibex ->
      let t = Cores.Ibex_like.build () in
      (t.Cores.Ibex_like.design, Some (Cores.Ibex_like.cutpoint_nets t))
  | `Cm0 ->
      let t = Cores.Cm0_like.build () in
      (Netlist.Obfuscate.run t.Cores.Cm0_like.design, None)
  | `Ridecore ->
      let config =
        if fast then Cores.Ridecore_like.fast_config
        else Cores.Ridecore_like.default_config
      in
      ((Cores.Ridecore_like.build ~config ()).Cores.Ridecore_like.design, None)

let riscv_subsets =
  [ ("rv32imcz", Isa.Subset.rv32imcz); ("rv32imc", Isa.Subset.rv32imc);
    ("rv32im", Isa.Subset.rv32im); ("rv32ic", Isa.Subset.rv32ic);
    ("rv32i", Isa.Subset.rv32i); ("rv32e", Isa.Subset.rv32e);
    ("mibench-all", Isa.Workloads.riscv_all);
    ("mibench-networking", Isa.Workloads.riscv Isa.Workloads.Networking);
    ("mibench-security", Isa.Workloads.riscv Isa.Workloads.Security);
    ("mibench-automotive", Isa.Workloads.riscv Isa.Workloads.Automotive);
    ("reduced-addressing", Isa.Subset.rv32i_reduced_addressing);
    ("safety-critical", Isa.Subset.rv32i_safety_critical);
    ("no-parallelism", Isa.Subset.rv32i_no_parallelism);
    ("risc16", Isa.Subset.risc16) ]

let arm_subsets =
  [ ("armv6m", Isa.Subset.armv6m_full);
    ("interesting", Isa.Subset.armv6m_interesting);
    ("mibench-all", Isa.Workloads.arm_all);
    ("mibench-networking", Isa.Workloads.arm Isa.Workloads.Networking);
    ("mibench-security", Isa.Workloads.arm Isa.Workloads.Security);
    ("mibench-automotive", Isa.Workloads.arm Isa.Workloads.Automotive) ]

let subset_arg =
  let doc = "ISA subset name (e.g. rv32i, mibench-all, interesting)." in
  Arg.(required & opt (some string) None & info [ "subset" ] ~doc)

let out_arg =
  let doc = "Write the resulting netlist as structural Verilog." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)

(* Environment construction shared by `reduce' and `report'. *)
let make_env ~port core subset_name design cut_nets =
  match core with
  | `Ibex | `Ridecore -> (
      let subset =
        try List.assoc subset_name riscv_subsets
        with Not_found ->
          Format.eprintf "unknown RISC-V subset %s@." subset_name;
          exit 1
      in
      let rv32e = subset_name = "rv32e" in
      match cut_nets with
      | Some nets when not port ->
          Pdat.Environment.riscv_cutpoint ~rv32e design ~nets subset
      | _ ->
          Pdat.Environment.riscv_port ~rv32e design ~port:"instr_rdata" subset)
  | `Cm0 ->
      let subset =
        try List.assoc subset_name arm_subsets
        with Not_found ->
          Format.eprintf "unknown ARM subset %s@." subset_name;
          exit 1
      in
      Pdat.Environment.arm_port design ~port:"instr_rdata" subset

(* ---------------- reduce --------------------------------------------- *)

let validate_flag =
  let doc =
    "Differentially validate the reduction against the original design; \
     on any divergence the baseline design is returned instead."
  in
  Arg.(value & flag & info [ "validate" ] ~doc)

let time_budget_arg =
  let doc =
    "Wall-clock budget in seconds for the whole pipeline; stages degrade \
     gracefully (shorter mining, inconclusive proofs drop candidates)."
  in
  Arg.(value & opt (some float) None & info [ "time-budget" ] ~doc ~docv:"SECONDS")

let inject_arg =
  let fault =
    let parse s =
      match Pdat.Faults.of_name s with
      | Some k -> Ok k
      | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown fault %S (expected %s)" s
                 (String.concat ", " (List.map Pdat.Faults.name Pdat.Faults.all))))
    in
    Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Pdat.Faults.name k))
  in
  let doc =
    "Self-test: inject the named fault at its stage boundary (implies the \
     validator should catch it). One of flip-constant, bogus-invariant, \
     miswire, perturb-cell."
  in
  Arg.(value & opt (some fault) None & info [ "inject" ] ~doc ~docv:"FAULT")

let lint_gate_arg =
  let doc =
    "Static-analysis gate: $(b,off), $(b,warn) (lint the input and audit the \
     rewire certificate, recording findings in the report) or $(b,strict) \
     (additionally refuse Error-severity findings)."
  in
  Arg.(value
       & opt (enum [ ("off", Analysis.Lint.Off); ("warn", Analysis.Lint.Warn);
                     ("strict", Analysis.Lint.Strict) ])
           Analysis.Lint.Warn
       & info [ "lint" ] ~doc ~docv:"MODE")

let trace_arg =
  let doc =
    "Write an execution trace to $(docv) as Chrome trace-event JSON (open \
     in chrome://tracing or Perfetto): one span per pipeline stage, each \
     carrying its SAT/rsim/cache counters and, under $(b,--time-budget), \
     its budget allocation; then the run's counter totals and latency \
     histogram summaries. The $(b,PDAT_TRACE) environment variable is the \
     flagless equivalent."
  in
  Term.(
    const (Option.map (fun path -> Obs.Chrome path))
    $ Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE"))

let reduce_cmd =
  let port_flag =
    Arg.(value & flag & info [ "port" ] ~doc:"Force port-based constraints.")
  in
  let run fast cache_dir core subset_name port out validate time_budget
      lint inject_kind trace run_dir resume =
    if inject_kind <> None && not validate then begin
      Format.eprintf "--inject requires --validate to mean anything@.";
      exit 1
    end;
    if resume && run_dir = None then begin
      Format.eprintf "--resume needs --run-dir to locate the journal@.";
      exit 1
    end;
    let design, cut_nets = build_core ~fast core in
    let env = make_env ~port core subset_name design cut_nets in
    let inject =
      Option.map (fun kind -> { Pdat.Faults.kind; seed = 7 }) inject_kind
    in
    let result =
      match
        Pdat.Pipeline.run ?cache:(make_cache cache_dir) ~validate
          ?time_budget ~lint ?inject
          ?trace ?run_dir ~resume ~design ~env ()
      with
      | r -> r
      | exception Pdat.Pipeline.Rejected diags ->
          Format.eprintf "input netlist rejected by the static gate:@.";
          List.iter
            (fun d -> Format.eprintf "  %s@." (Analysis.Diag.to_string d))
            diags;
          exit 1
      | exception Pdat.Journal.Mismatch reason ->
          Format.eprintf "cannot resume: %s@." reason;
          exit 1
    in
    Format.printf "%a@." Pdat.Pipeline.pp_report result.Pdat.Pipeline.report;
    Option.iter
      (fun path ->
        Netlist.Verilog.write_file result.Pdat.Pipeline.reduced path;
        Format.printf "wrote %s@." path)
      out;
    (* in self-test mode, an uncaught fault is a hard failure *)
    match inject_kind with
    | Some _
      when result.Pdat.Pipeline.report.Pdat.Pipeline.injected_fault <> None
           && not result.Pdat.Pipeline.report.Pdat.Pipeline.validated ->
        ()
    | Some k ->
        Format.eprintf "injected fault %s was NOT caught@." (Pdat.Faults.name k);
        exit 1
    | None -> ()
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Reduce a core for an ISA subset and optionally export Verilog")
    Term.(const run $ fast $ cache_dir_arg $ core_arg
          $ subset_arg $ port_flag $ out_arg $ validate_flag
          $ time_budget_arg $ lint_gate_arg $ inject_arg $ trace_arg
          $ run_dir_arg $ resume_flag)

(* ---------------- lint ------------------------------------------------ *)

let core_label = function
  | `Ibex -> "ibex"
  | `Cm0 -> "cm0"
  | `Ridecore -> "ridecore"

let lint_cmd =
  let files =
    let doc = "Structural-Verilog netlists to lint." in
    Arg.(value & pos_all file [] & info [] ~doc ~docv:"FILE.v")
  in
  let cores =
    let doc = "Also lint a built-in core (repeatable): ibex, cm0, ridecore." in
    Arg.(value
         & opt_all (enum [ ("ibex", `Ibex); ("cm0", `Cm0); ("ridecore", `Ridecore) ]) []
         & info [ "core" ] ~doc ~docv:"CORE")
  in
  let mode =
    let doc =
      "$(b,strict) exits 1 on any Error-severity finding; $(b,warn) always \
       exits 0."
    in
    Arg.(value
         & opt (enum [ ("warn", Analysis.Lint.Warn); ("strict", Analysis.Lint.Strict) ])
             Analysis.Lint.Strict
         & info [ "mode" ] ~doc ~docv:"MODE")
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Also print Info-severity findings (ternary constants).")
  in
  let run fast mode verbose cores files =
    let targets =
      List.map
        (fun f -> (f, fun () -> Netlist.Verilog.read_file f))
        files
      @ List.map
          (fun c -> (core_label c, fun () -> fst (build_core ~fast c)))
          cores
    in
    if targets = [] then begin
      Format.eprintf "nothing to lint: pass FILE.v arguments and/or --core@.";
      exit 2
    end;
    let failed = ref false in
    List.iter
      (fun (label, load) ->
        match load () with
        | exception Netlist.Verilog.Parse_error { line; reason } ->
            Format.printf "%s:%d: parse error: %s@." label line reason;
            failed := true
        | exception e ->
            Format.printf "%s: cannot load: %s@." label (Printexc.to_string e);
            failed := true
        | d ->
            let diags = Analysis.Lint.run d in
            List.iter
              (fun diag ->
                if verbose || diag.Analysis.Diag.severity <> Analysis.Diag.Info
                then
                  Format.printf "%s: %s@." label (Analysis.Diag.to_string diag))
              diags;
            let e, w, i = Analysis.Diag.count diags in
            Format.printf "%s: %d cell(s), %d error(s), %d warning(s), %d info@."
              label (Netlist.Design.num_cells d) e w i;
            if e > 0 then failed := true)
      targets;
    if !failed && mode = Analysis.Lint.Strict then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the structural netlist lint over Verilog files and/or cores")
    Term.(const run $ fast $ mode $ verbose $ cores $ files)

(* ---------------- export --------------------------------------------- *)

let export_cmd =
  let run fast core out =
    let design, _ = build_core ~fast core in
    let d, _ = Synthkit.Optimize.run design in
    (match out with
    | Some path ->
        Netlist.Verilog.write_file d path;
        Format.printf "wrote %s@." path
    | None -> print_string (Netlist.Verilog.to_string d));
    Format.printf "%a@." Netlist.Stats.pp (Netlist.Stats.of_design d)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a core's synthesized baseline netlist")
    Term.(const run $ fast $ core_arg $ out_arg)

(* ---------------- report ---------------------------------------------- *)

let report_cmd =
  let port_flag =
    Arg.(value & flag & info [ "port" ] ~doc:"Force port-based constraints.")
  in
  let dump_cex_arg =
    let doc =
      "Write replayable VCD counterexample waveforms for refuted candidates \
       into $(docv) (created if missing); the report's waveform index \
       references them by file name."
    in
    Arg.(value & opt (some string) None & info [ "dump-cex" ] ~doc ~docv:"DIR")
  in
  let out_dir_arg =
    let doc =
      "Directory receiving $(b,REPORT_<core>.json) and $(b,REPORT_<core>.md)."
    in
    Arg.(value & opt string "." & info [ "out-dir" ] ~doc ~docv:"DIR")
  in
  let run fast cache_dir core subset_name port validate time_budget
      dump_cex out_dir trace run_dir resume =
    if resume && run_dir = None then begin
      Format.eprintf "--resume needs --run-dir to locate the journal@.";
      exit 1
    end;
    let design, cut_nets = build_core ~fast core in
    let env = make_env ~port core subset_name design cut_nets in
    let prov = Report.Provenance.create () in
    let result =
      match
        Pdat.Pipeline.run ?cache:(make_cache cache_dir) ~validate
          ?time_budget ~lint:Analysis.Lint.Warn ~provenance:prov ?dump_cex
          ?trace ?run_dir ~resume ~design ~env ()
      with
      | r -> r
      | exception Pdat.Pipeline.Rejected diags ->
          Format.eprintf "input netlist rejected by the static gate:@.";
          List.iter
            (fun d -> Format.eprintf "  %s@." (Analysis.Diag.to_string d))
            diags;
          exit 1
      | exception Pdat.Journal.Mismatch reason ->
          Format.eprintf "cannot resume: %s@." reason;
          exit 1
    in
    let target = core_label core in
    (try Unix.mkdir out_dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let resume_prov =
      Option.map
        (fun ri ->
          {
            Report.Render.rs_journal = ri.Pdat.Pipeline.journal_path;
            rs_resumed = ri.Pdat.Pipeline.resumed;
            rs_stages = ri.Pdat.Pipeline.resumed_stages;
            rs_dropped_lines = ri.Pdat.Pipeline.journal_dropped_lines;
          })
        result.Pdat.Pipeline.report.Pdat.Pipeline.resume
    in
    let json = Report.Render.json ~target ?resume:resume_prov prov in
    let md =
      Report.Render.markdown ~target
        ~timings:result.Pdat.Pipeline.report.Pdat.Pipeline.stage_seconds
        ~histograms:(Obs.histograms ())
        ~commit:(Report.Meta.git_commit ()) ?resume:resume_prov prov
    in
    let write path s =
      Obs.write_file_atomic path s;
      Format.eprintf "wrote %s@." path
    in
    write (Filename.concat out_dir ("REPORT_" ^ target ^ ".json")) json;
    write (Filename.concat out_dir ("REPORT_" ^ target ^ ".md")) md;
    print_string md
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run the pipeline with full provenance tracking and emit the \
          machine-readable and human run reports")
    Term.(const run $ fast $ cache_dir_arg $ core_arg
          $ subset_arg $ port_flag $ validate_flag
          $ time_budget_arg $ dump_cex_arg $ out_dir_arg $ trace_arg
          $ run_dir_arg $ resume_flag)

(* ---------------- chaos ------------------------------------------------ *)

let chaos_cmd =
  let port_flag =
    Arg.(value & flag & info [ "port" ] ~doc:"Force port-based constraints.")
  in
  let dir_arg =
    let doc =
      "Scratch directory for the matrix's cache and run directories \
       (created if missing)."
    in
    Arg.(value & opt string "_chaos" & info [ "dir" ] ~doc ~docv:"DIR")
  in
  let run fast core subset_name port dir =
    let design, cut_nets = build_core ~fast core in
    let env = make_env ~port core subset_name design cut_nets in
    let scenarios = Pdat.Chaos_harness.matrix ~dir ~design ~env () in
    List.iter
      (fun s ->
        Format.printf "%-16s %s  %s@." s.Pdat.Chaos_harness.name
          (if s.Pdat.Chaos_harness.ok then "ok  " else "FAIL")
          s.Pdat.Chaos_harness.detail)
      scenarios;
    if not (Pdat.Chaos_harness.all_ok scenarios) then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the crash-safety chaos matrix (cache truncation, SIGTERM + \
          resume) and verify every scenario lands on the undisturbed run's \
          result")
    Term.(const run $ fast $ core_arg $ subset_arg $ port_flag $ dir_arg)

(* ---------------- perf ------------------------------------------------- *)

let perf_cmd =
  let files =
    let doc =
      "BENCH envelopes to compare: the first is the baseline, every \
       following file is diffed against it."
    in
    Arg.(non_empty & pos_all string [] & info [] ~doc ~docv:"BENCH.json")
  in
  let rel_tol_arg =
    let doc =
      "Relative increase tolerated on gated metrics (timings) before a \
       regression is declared."
    in
    Arg.(value & opt float 0.15 & info [ "rel-tol" ] ~doc ~docv:"FRAC")
  in
  let abs_floor_arg =
    let doc =
      "Absolute floor in seconds for timing metrics: an increase below it \
       never gates, whatever the relative change (noise guard)."
    in
    Arg.(value & opt float 0.05 & info [ "abs-floor" ] ~doc ~docv:"SECONDS")
  in
  let out_arg =
    let doc = "Also write the markdown delta table(s) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")
  in
  let run rel_tol abs_floor_s out files =
    let thresholds = { Report.Perf.rel_tol; abs_floor_s } in
    match files with
    | [] | [ _ ] ->
        Format.eprintf
          "perf needs a baseline and at least one current BENCH file@.";
        exit 2
    | base_path :: rest -> (
        try
          let base = Report.Perf.load base_path in
          let regressed = ref false in
          let buf = Buffer.create 2048 in
          List.iter
            (fun path ->
              let cur = Report.Perf.load path in
              let deltas =
                Report.Perf.compare_benches ~thresholds ~base cur
              in
              if Report.Perf.regressions deltas <> [] then regressed := true;
              Buffer.add_string buf
                (Report.Perf.markdown_table ~thresholds ~base cur deltas);
              Buffer.add_char buf '\n')
            rest;
          let text = Buffer.contents buf in
          print_string text;
          Option.iter
            (fun path ->
              Obs.write_file_atomic path text;
              Format.eprintf "wrote %s@." path)
            out;
          if !regressed then exit 1
        with Report.Perf.Perf_error msg ->
          Format.eprintf "perf: %s@." msg;
          exit 2)
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Compare schema-versioned BENCH_*.json envelopes with noise-aware \
          thresholds and gate on regressions (exit 1 on a regression, 2 on \
          a missing/mismatched file)")
    Term.(const run $ rel_tol_arg $ abs_floor_arg $ out_arg $ files)

(* ---------------- tables ---------------------------------------------- *)

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Print the paper's Table I")
    Term.(const (fun () -> Format.printf "%a@." Experiments.Tables.pp_table1 ()) $ const ())

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Print the paper's Table II")
    Term.(const (fun () -> Format.printf "%a@." Experiments.Tables.pp_table2 ()) $ const ())

let () =
  let info =
    Cmd.info "pdat" ~version:"1.0.0"
      ~doc:"Property-driven automatic generation of reduced-ISA hardware"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; reduce_cmd; report_cmd; export_cmd; lint_cmd;
            chaos_cmd; perf_cmd; table1_cmd; table2_cmd ]))
