(* End-to-end benchmark of `pdat reduce`.

   Usage:
     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
     main.exe --list-metrics

   W is one of the workloads below, or `all` to run every workload in
   turn.  N (default 53759 = 0xD1FF, the CLI's validation seed) seeds
   the differential validation's stimulus.  S (default [run_seconds]):
   repetitions run until S seconds have passed, and at least three.

   Each repetition reduces a core for an ISA subset the way `pdat
   reduce` does ([Pdat.Pipeline.run] with lint warn and the default
   induction options), in a fresh process (this executable re-executed),
   so set-up is cold and peak memory belongs to that repetition alone.
   The load is a closed loop: one client, one reduction at a time.

   Without --trace a run prints the end-to-end metrics and writes
   BENCH_e2e.json: a schema-versioned envelope with flat
   `<workload>.<metric>` scalars, so `pdat perf` diffs two runs.  With
   --trace 1 it runs two untraced repetitions and one traced replay of
   the pipeline's layer calls, prints the per-layer metrics, and writes
   TRACE_e2e_<workload>.json (Chrome trace-event format) and
   BENCH_e2e_trace.json.

   Every repetition is checked: it must not raise or fall back to the
   baseline, its validation (when on) must be Equivalent, its audit must
   report no Error, and its candidate counts, gates and area must equal
   the workload's reference in bench_e2e/e2e_expected.json.  The last
   stdout line is one JSON object {correct, attempted, failed,
   metrics}; the exit code is 1 if any repetition failed.

   --list-metrics prints BENCHMARK.json, the benchmark's declaration
   (a runtest rule checks the committed copy against it). *)

let now = Obs.Clock.now_s

(* ---------------- workloads --------------------------------------------- *)

type core = Ibex | Cm0 | Ridecore

(* the proof cache a repetition starts from *)
type cache = No_cache | Fresh_cache | Primed_cache

type workload = {
  name : string;
  why : string;
  core : core;
  validate : bool;
  jobs : int;
  cache : cache;
  resume : bool;
      (* repetitions resume a journal whose run was stopped at the prove
         boundary, so mining and refinement are replayed, not re-run *)
}

let workloads =
  [
    {
      name = "ibex-rv32i-cold";
      why =
        "The default path on Ibex (cutpoint env, rv32i, validate) from an \
         empty proof cache: simulation, the serial prover with \
         counterexample propagation, cache writes, audit.";
      core = Ibex;
      validate = true;
      jobs = 1;
      cache = Fresh_cache;
      resume = false;
    };
    {
      name = "ibex-rv32i-warm";
      why =
        "A primed proof cache answers every candidate, so SAT is bypassed: \
         a prover change must not move it, a simulation change moves it \
         most.";
      core = Ibex;
      validate = true;
      jobs = 1;
      cache = Primed_cache;
      resume = false;
    };
    {
      name = "cm0-plain-mibench-all";
      why =
        "A second ISA and environment: ARM port constraints on the \
         un-obfuscated CM0, the only validation with many observations, \
         serial prover.";
      core = Cm0;
      validate = true;
      jobs = 1;
      cache = No_cache;
      resume = false;
    };
    {
      name = "ridecore-small-rv32i-resume-j2";
      why =
        "Resumes a small RIDECORE (50k-cell model) at the prove boundary \
         with 2 prover workers: proof-dominated, covers the fork pool and \
         join round, bypasses simulation.";
      core = Ridecore;
      validate = false;
      jobs = 2;
      cache = No_cache;
      resume = true;
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s (expected %s or all)\n" name
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2

(* Sizes.  On a 2-core box the CLI's own configurations take 20 s (Ibex),
   25 s (plain CM0), 120 s (obfuscated CM0) and 90 s (the `--fast`
   RIDECORE) per reduction, too long for the several repetitions per run
   that keep timings steady on a shared host; these take 2-8 s.  RIDECORE
   is one size below `--fast` (ROB 8 / PRF 40 / IQ 4). *)
let small_ridecore =
  { Cores.Ridecore_like.rob_entries = 8; phys_regs = 40; iq_entries = 4;
    pht_entries = 16; btb_entries = 4 }

(* One simulation run at half the CLI's cycle counts for mining (256) and
   refinement (1024), both at the CLI's seed: the candidate set, and so
   the prover's work, is the same for every workload seed.  Seeding them
   instead moves prover time by 10-20% between seeds on CM0 and
   RIDECORE, more than the benchmark's bounds. *)
let mine_config = { Engine.Rsim.default with Engine.Rsim.cycles = 256; runs = 1 }
let refine_config = { Engine.Rsim.default with Engine.Rsim.cycles = 1024; runs = 1 }

(* one validation run of the CLI's 256 cycles, stimulus from the seed *)
let validate_config seed = { Pdat.Validate.default with Pdat.Validate.runs = 1; seed }

let build_design = function
  | Ibex ->
      let t = Cores.Ibex_like.build () in
      (t.Cores.Ibex_like.design, Some (Cores.Ibex_like.cutpoint_nets t))
  | Cm0 -> ((Cores.Cm0_like.build ()).Cores.Cm0_like.design, None)
  | Ridecore ->
      ((Cores.Ridecore_like.build ~config:small_ridecore ()).Cores.Ridecore_like.design,
       None)

let build_env core design cut_nets =
  match (core, cut_nets) with
  | Ibex, Some nets -> Pdat.Environment.riscv_cutpoint design ~nets Isa.Subset.rv32i
  | Cm0, _ -> Pdat.Environment.arm_port design ~port:"instr_rdata" Isa.Workloads.arm_all
  | (Ibex | Ridecore), _ ->
      Pdat.Environment.riscv_port design ~port:"instr_rdata" Isa.Subset.rv32i

type setup = {
  design : Netlist.Design.t;
  env : Pdat.Environment.t;
  build_s : float;  (* core build *)
  env_s : float;    (* environment: monitor, cutpoints, stimulus *)
}

let setup w =
  let t0 = now () in
  let design, cut_nets = build_design w.core in
  let t1 = now () in
  let env = build_env w.core design cut_nets in
  { design; env; build_s = t1 -. t0; env_s = now () -. t1 }

let reduce w ~seed ?cache ?run_dir ~resume s =
  Pdat.Pipeline.run ~rsim:mine_config ~refine:refine_config
    ~induction:Engine.Induction.default_options ~jobs:w.jobs ?cache ~sieve:false
    ~absint:false ~validate:w.validate ~validate_config:(validate_config seed)
    ~lint:Analysis.Lint.Warn ?run_dir ~resume ~design:s.design ~env:s.env ()

(* ---------------- metrics ----------------------------------------------- *)

type better = Lower | Higher

type metric = { m_name : string; m_unit : string; m_better : better }

let end_to_end =
  [
    ({ m_name = "reduce_s"; m_unit = "s"; m_better = Lower }, 0.25);
    ({ m_name = "setup_s"; m_unit = "s"; m_better = Lower }, 0.25);
    ({ m_name = "peak_rss_mb"; m_unit = "MB"; m_better = Lower }, 0.1);
    (* deterministic: a speed-only change must leave them identical *)
    ({ m_name = "gate_reduction_pct"; m_unit = "%"; m_better = Higher }, 0.);
    ({ m_name = "area_reduction_pct"; m_unit = "%"; m_better = Higher }, 0.);
  ]

let per_layer =
  let m m_name m_unit m_better = { m_name; m_unit; m_better } in
  [
    m "reduce.traced_s" "s" Lower;
    m "setup.build_s" "s" Lower;
    m "setup.env_s" "s" Lower;
    m "setup.model_cells" "count" Lower;
    m "sim64.ns_per_cell_cycle" "ns" Lower;
    m "lint.self_s" "s" Lower;
    m "mine.self_s" "s" Lower;
    m "mine.alloc_mw" "Mword" Lower;
    m "mine.rsim_cycles" "count" Lower;
    m "mine.candidates" "count" Lower;
    m "mine.ns_per_cell_cycle" "ns" Lower;
    m "refine.self_s" "s" Lower;
    m "refine.alloc_mw" "Mword" Lower;
    m "refine.rsim_cycles" "count" Lower;
    m "refine.survivors" "count" Lower;
    m "refine.kill_ratio" "ratio" Higher;
    m "refine.ns_per_cell_cycle" "ns" Lower;
    m "prove.self_s" "s" Lower;
    m "prove.alloc_mw" "Mword" Lower;
    m "prove.sat_calls" "count" Lower;
    m "prove.conflicts" "count" Lower;
    m "prove.decisions" "count" Lower;
    m "prove.propagations" "count" Lower;
    m "prove.rounds" "count" Lower;
    m "prove.proved" "count" Higher;
    m "prove.proved_ratio" "ratio" Higher;
    m "prove.sat_call_p50_s" "s" Lower;
    m "prove.sat_call_p90_s" "s" Lower;
    m "prove.workers" "count" Higher;
    m "prove.worker_wall_max_s" "s" Lower;
    m "prove.worker_idle_frac" "ratio" Lower;
    m "prove.workers_failed" "count" Lower;
    m "cache.hits" "count" Higher;
    m "cache.misses" "count" Lower;
    m "cache.hit_ratio" "ratio" Higher;
    m "cache.stored" "count" Lower;
    m "cache.flush_s" "s" Lower;
    m "cache.bytes" "B" Lower;
    m "rewire.self_s" "s" Lower;
    m "rewire.edits" "count" Higher;
    m "audit.self_s" "s" Lower;
    m "audit.errors" "count" Lower;
    m "resynth.self_s" "s" Lower;
    m "resynth.cells_removed" "count" Higher;
    m "baseline.self_s" "s" Lower;
    m "validate.self_s" "s" Lower;
    m "validate.observations" "count" Higher;
    m "gc.major_collections" "count" Lower;
    m "gc.top_heap_mb" "MB" Lower;
    m "run.cpu_s" "s" Lower;
    m "trace.overhead_pct" "%" Lower;
  ]

let run_seconds = 20

let unit_of name =
  match
    List.find_opt
      (fun m -> m.m_name = name)
      (List.map fst end_to_end @ per_layer)
  with
  | Some m -> m.m_unit
  | None -> invalid_arg name

(* ---------------- JSON output ------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* every digit measured; JSON has no nan/inf *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let benchmark_json () =
  let better = function Lower -> "lower" | Higher -> "higher" in
  let list items = "[\n    " ^ String.concat ",\n    " items ^ "\n  ]" in
  Printf.sprintf
    "{\n\
    \  \"command\": [\"bash\", \"bench_e2e/run.sh\"],\n\
    \  \"paths\": [\"bench_e2e\"],\n\
    \  \"run_seconds\": %d,\n\
    \  \"workloads\": %s,\n\
    \  \"end_to_end\": %s,\n\
    \  \"per_layer\": %s\n\
     }\n"
    run_seconds
    (list
       (List.map
          (fun w ->
            Printf.sprintf "{\"name\": %s, \"why\": %s}" (json_string w.name)
              (json_string w.why))
          workloads))
    (list
       (List.map
          (fun (m, bound) ->
            Printf.sprintf
              "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}"
              (json_string m.m_name) (json_string m.m_unit)
              (json_string (better m.m_better))
              bound)
          end_to_end))
    (list
       (List.map
          (fun m ->
            Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s}"
              (json_string m.m_name) (json_string m.m_unit)
              (json_string (better m.m_better)))
          per_layer))

(* ---------------- files and processes ----------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_tree src dst =
  mkdir_p dst;
  Array.iter
    (fun n ->
      let s = Filename.concat src n and d = Filename.concat dst n in
      match (Unix.lstat s).Unix.st_kind with
      | Unix.S_DIR -> copy_tree s d
      | Unix.S_REG ->
          let contents = In_channel.with_open_bin s In_channel.input_all in
          Out_channel.with_open_bin d (fun oc -> output_string oc contents)
      | _ -> ())
    (Sys.readdir src)

let rec tree_bytes path =
  let st = Unix.lstat path in
  match st.Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc n -> acc + tree_bytes (Filename.concat path n))
        0 (Sys.readdir path)
  | _ -> st.Unix.st_size

(* VmHWM: the process's peak resident set; forked prover workers have
   their own and are not counted *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l -> (
            match Scanf.sscanf l "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.
            | exception (Scanf.Scan_failure _ | End_of_file) -> scan ())
      in
      scan ())

(* where the benchmark keeps caches, journals and child results; removed
   at the end of each workload *)
let work_root = "_bench_e2e"

let exe = Sys.executable_name

(* Runs this executable as a child with [args]; its stdout goes to our
   stderr so our last stdout line stays the JSON result. *)
let spawn ?(env = Unix.environment ()) args =
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin
      Unix.stderr Unix.stderr
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* ---------------- repetitions (child processes) ------------------------- *)

(* what a reduction produced; the reference pins it per workload *)
type outcome = {
  refined : int;  (* candidates handed to the prover *)
  proved : int;
  gates_before : int;
  gates_after : int;
  area_before : float;
  area_after : float;
}

type rep = {
  reduce_s : float;  (* Proof_cache.create to Pipeline.run returning *)
  rss_mb : float;
  outcome : outcome;
  cache_hits : int;
  problems : string list;  (* failed correctness conditions *)
}

type replay = {
  r_outcome : outcome;
  r_mined : int;
  r_metrics : (string * float) list;  (* per-layer metrics *)
  r_problems : string list;
}

type child_result =
  | Setup_done of float
  | Rep_done of rep
  | Replay_done of replay

let cache_dir w dir =
  match w.cache with
  | No_cache -> None
  | Fresh_cache | Primed_cache -> Some (Filename.concat dir "cache")

let run_dir w dir = if w.resume then Some (Filename.concat dir "run") else None

let outcome_of ~refined ~proved ~before ~after =
  {
    refined;
    proved;
    gates_before = Netlist.Stats.gate_count before;
    gates_after = Netlist.Stats.gate_count after;
    area_before = before.Netlist.Stats.area;
    area_after = after.Netlist.Stats.area;
  }

let validation_problem w = function
  | _ when not w.validate -> None
  | Some (Pdat.Validate.Equivalent _) -> None
  | Some o -> Some ("validation: " ^ Pdat.Validate.describe o)
  | None -> Some "validation did not run"

let audit_problem audit =
  match Analysis.Diag.errors audit with
  | [] -> None
  | e :: _ -> Some ("audit: " ^ Analysis.Diag.to_string e)

(* One reduction.  [resume] replays the journal the prep run left in
   [dir]/run; the cache, if any, lives in [dir]/cache as staged by the
   parent. *)
let run_rep w ~seed ~dir ~resume =
  let s = setup w in
  let t0 = now () in
  let cache = Option.map (fun dir -> Engine.Proof_cache.create ~dir ()) (cache_dir w dir) in
  let r = reduce w ~seed ?cache ?run_dir:(run_dir w dir) ~resume s in
  let reduce_s = now () -. t0 in
  let rp = r.Pdat.Pipeline.report in
  let resume_problem =
    match rp.Pdat.Pipeline.resume with
    | _ when not resume -> None
    | Some ri
      when ri.Pdat.Pipeline.resumed
           && ri.Pdat.Pipeline.resumed_stages = [ "mine"; "refine" ] ->
        None
    | _ -> Some "mining and refinement were not replayed from the journal"
  in
  {
    reduce_s;
    rss_mb = peak_rss_mb ();
    outcome =
      (* the report's [mined] counts the candidates left after refinement *)
      outcome_of ~refined:rp.Pdat.Pipeline.mined ~proved:rp.Pdat.Pipeline.proved
        ~before:rp.Pdat.Pipeline.before ~after:rp.Pdat.Pipeline.after;
    cache_hits = rp.Pdat.Pipeline.induction.Engine.Induction.cache_hits;
    problems =
      List.filter_map Fun.id
        [
          Option.map (fun r -> "fell back to the baseline: " ^ r)
            rp.Pdat.Pipeline.fallback_reason;
          validation_problem w rp.Pdat.Pipeline.validation;
          audit_problem rp.Pdat.Pipeline.audit;
          resume_problem;
        ];
  }

(* 256 seeded random cycles of set_input/eval/step on the model: the
   simulator's raw speed, which mining, refinement, counterexample
   propagation and validation all pay per cell and cycle *)
let sim64_ns_per_cell_cycle ~seed (env : Pdat.Environment.t) =
  let model = env.Pdat.Environment.model in
  let sim = Netlist.Sim64.create model in
  let rng = Random.State.make [| seed |] in
  let inputs = Netlist.Design.inputs model in
  let cycles = 256 in
  let t0 = now () in
  for _ = 1 to cycles do
    List.iter
      (fun (_, n) -> Netlist.Sim64.set_input sim n (Random.State.bits64 rng))
      inputs;
    List.iter
      (fun (n, v) -> Netlist.Sim64.set_input sim n v)
      (env.Pdat.Environment.stimulus.Engine.Stimulus.drive rng);
    Netlist.Sim64.eval sim;
    Netlist.Sim64.step sim
  done;
  (now () -. t0) *. 1e9
  /. float_of_int (cycles * Netlist.Design.num_cells model)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let allocated_words (g : Gc.stat) =
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* The traced run: [Pipeline.run]'s layer calls replayed in its order,
   each in a span under one `reduce` root, with the Obs counters and GC
   allocation each one moved.  The resume workload's candidates come
   from an untimed mine/refine here, equal to what its journal holds.
   Layers are flat under the root, so a layer's self time is its span. *)
let run_replay w ~seed ~dir ~trace_path =
  let s = setup w in
  let design = s.design and env = s.env in
  let model = env.Pdat.Environment.model in
  let assume = env.Pdat.Environment.assume in
  let stimulus = env.Pdat.Environment.stimulus in
  let cells = float_of_int (Netlist.Design.num_cells model) in
  let mine () =
    Pdat.Property_library.mine ~config:mine_config ~model ~assume ~stimulus ()
    |> Pdat.Property_library.restrict_to_original ~original:design
  in
  let refine mined = Engine.Rsim.refine ~config:refine_config ~assume model stimulus mined in
  let prepped =
    if w.resume then
      let mined = mine () in
      Some (mined, refine mined)
    else None
  in
  (* the pipeline clamps its worker count the same way *)
  let jobs = max 1 (min w.jobs (Obs.Hw.online_cores ())) in
  let layers = Hashtbl.create 16 in
  let layer name f =
    let g0 = Gc.quick_stat () in
    let c0 = Obs.counters () in
    let alloc () = allocated_words (Gc.quick_stat ()) -. allocated_words g0 in
    let r, dur =
      Obs.with_span_timed ~cat:"layer"
        ~args:(fun () -> [ ("alloc_words", Obs.Float (alloc ())) ])
        name f
    in
    Hashtbl.replace layers name (dur, alloc (), Obs.counters_delta ~since:c0);
    r
  in
  let n l = float_of_int (List.length l) in
  let fi = float_of_int in
  let ratio a b = if b = 0. then 0. else a /. b in
  Obs.reset ();
  Obs.enable ();
  let cpu0 = cpu_s () in
  let (outcome, mined, problems, counts), reduce_s =
    Obs.with_span_timed ~cat:"layer" "reduce" (fun () ->
        let cache =
          Option.map (fun dir -> Engine.Proof_cache.create ~dir ()) (cache_dir w dir)
        in
        let input_lint =
          layer "lint" (fun () ->
              match Analysis.Lint.well_formed design with
              | [] -> Analysis.Lint.run design
              | errs -> raise (Pdat.Pipeline.Rejected errs))
        in
        let mined, refined =
          match prepped with
          | Some p -> p
          | None ->
              let mined = layer "mine" mine in
              (mined, layer "refine" (fun () -> refine mined))
        in
        let proved, st =
          layer "prove" (fun () ->
              (* the pipeline's counterexample propagation: 24 cycles *)
              Engine.Induction.prove_parallel
                ~options:Engine.Induction.default_options ~cex:(stimulus, 24)
                ~jobs ?cache ~sieve:false ~assume model refined)
        in
        layer "cache-flush" (fun () -> Option.iter Engine.Proof_cache.flush cache);
        let rewired, certificate =
          layer "rewire" (fun () -> Pdat.Rewire.apply_certified design proved)
        in
        let audit =
          layer "audit" (fun () ->
              Analysis.Audit.run ~pre_lint:input_lint ~original:design ~rewired
                ~proved ~certificate ())
        in
        let reduced =
          layer "resynth" (fun () -> fst (Synthkit.Optimize.run rewired))
        in
        let _, before = layer "baseline" (fun () -> Pdat.Pipeline.baseline design) in
        let validation =
          if w.validate then
            Some
              (layer "validate" (fun () ->
                   Pdat.Validate.run ~config:(validate_config seed) ~original:design
                     ~reduced ~env ()))
          else None
        in
        let hist f = match Obs.histogram "sat.call_s" with Some h -> f h | None -> 0. in
        ( outcome_of ~refined:(List.length refined) ~proved:(List.length proved)
            ~before ~after:(Netlist.Stats.of_design reduced),
          List.length mined,
          List.filter_map Fun.id [ validation_problem w validation; audit_problem audit ],
          [
            ("mine.candidates", n mined);
            ("refine.survivors", n refined);
            ("refine.kill_ratio", 1. -. ratio (n refined) (n mined));
            ("prove.sat_calls", fi st.Engine.Induction.sat_calls);
            ("prove.conflicts", fi st.Engine.Induction.conflicts);
            ("prove.decisions", fi st.Engine.Induction.decisions);
            ("prove.propagations", fi st.Engine.Induction.propagations);
            ("prove.rounds", fi st.Engine.Induction.rounds);
            ("prove.proved", n proved);
            ("prove.proved_ratio", ratio (n proved) (n refined));
            ("prove.sat_call_p50_s", hist (fun h -> h.Obs.p50));
            ("prove.sat_call_p90_s", hist (fun h -> h.Obs.p90));
            ("prove.workers", fi st.Engine.Induction.workers);
            ("prove.worker_wall_max_s", st.Engine.Induction.worker_wall_max_s);
            ("prove.worker_idle_frac", st.Engine.Induction.worker_idle_frac);
            ("prove.workers_failed", fi st.Engine.Induction.workers_failed);
            ("cache.hits", fi st.Engine.Induction.cache_hits);
            ("cache.misses", fi st.Engine.Induction.cache_misses);
            ("cache.hit_ratio", ratio (fi st.Engine.Induction.cache_hits) (n refined));
            ( "cache.stored",
              match cache with
              | Some c -> fi (Engine.Proof_cache.stats c).Engine.Proof_cache.stored
              | None -> 0. );
            ( "cache.bytes",
              Option.fold ~none:0. ~some:(fun d -> fi (tree_bytes d)) (cache_dir w dir) );
            ("rewire.edits", fi (Analysis.Certificate.length certificate));
            ("audit.errors", n (Analysis.Diag.errors audit));
            ( "resynth.cells_removed",
              fi (Netlist.Design.num_cells rewired - Netlist.Design.num_cells reduced) );
            ( "validate.observations",
              match validation with
              | Some (Pdat.Validate.Equivalent { observations; _ }) -> fi observations
              | Some _ | None -> 0. );
          ] ))
  in
  let cpu = cpu_s () -. cpu0 in
  Obs.write_sink (Obs.Chrome trace_path) (Obs.drain () @ Obs.counter_events ());
  Obs.disable ();
  (* after the timed span, so its heap does not warm the reduction's *)
  let probe_ns = sim64_ns_per_cell_cycle ~seed env in
  let layer_stat name f = Option.fold ~none:0. ~some:f (Hashtbl.find_opt layers name) in
  let self name = layer_stat name (fun (d, _, _) -> d) in
  let rsim_cycles name =
    layer_stat name (fun (_, _, cs) -> Option.value (List.assoc_opt "rsim.cycles" cs) ~default:0.)
  in
  let per_layer_of name =
    [
      (name ^ ".self_s", self name);
      (name ^ ".alloc_mw", layer_stat name (fun (_, a, _) -> a /. 1e6));
      (name ^ ".rsim_cycles", rsim_cycles name);
      (name ^ ".ns_per_cell_cycle", ratio (self name *. 1e9) (rsim_cycles name *. cells));
    ]
  in
  let gc = Gc.quick_stat () in
  let measured =
    counts
    @ List.concat_map per_layer_of
        [ "lint"; "mine"; "refine"; "prove"; "rewire"; "audit"; "resynth"; "baseline"; "validate" ]
    @ [
        ("reduce.traced_s", reduce_s);
        ("setup.build_s", s.build_s);
        ("setup.env_s", s.env_s);
        ("setup.model_cells", cells);
        ("sim64.ns_per_cell_cycle", probe_ns);
        ("cache.flush_s", self "cache-flush");
        ("gc.major_collections", fi gc.Gc.major_collections);
        ("gc.top_heap_mb", fi (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
        ("run.cpu_s", cpu);
      ]
  in
  {
    r_outcome = outcome;
    r_mined = mined;
    (* in the declared order; the parent adds trace.overhead_pct *)
    r_metrics =
      List.filter_map
        (fun m ->
          if m.m_name = "trace.overhead_pct" then None
          else Some (m.m_name, List.assoc m.m_name measured))
        per_layer;
    r_problems = problems;
  }

let child_main = function
  | role :: wname :: seed :: dir :: out :: extra ->
      let w = find_workload wname in
      let seed = int_of_string seed in
      let result =
        match (role, extra) with
        | "setup", [] ->
            let s = setup w in
            Setup_done (s.build_s +. s.env_s)
        | "prep", [] -> Rep_done (run_rep w ~seed ~dir ~resume:false)
        | "rep", [] -> Rep_done (run_rep w ~seed ~dir ~resume:w.resume)
        | "replay", [ trace_path ] -> Replay_done (run_replay w ~seed ~dir ~trace_path)
        | _ -> invalid_arg ("child role " ^ role)
      in
      Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc result [])
  | _ -> invalid_arg "child arguments"

(* ---------------- the parent: one run of one workload ------------------- *)

type run_result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  details : (string * float) list;  (* extra BENCH scalars *)
}

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0.
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let reference =
  lazy
    (Report.Perf.load (Filename.concat "bench_e2e" "e2e_expected.json"))
      .Report.Perf.b_fields

(* differences from the workload's reference *)
let reference_problems w fields =
  List.filter_map
    (fun (field, v) ->
      match List.assoc_opt (w.name ^ "." ^ field) (Lazy.force reference) with
      | None -> Some (Printf.sprintf "no reference for %s" field)
      | Some expected when Float.abs (expected -. v) > 1e-3 ->
          Some (Printf.sprintf "%s is %.17g, reference %.17g" field v expected)
      | Some _ -> None)
    fields

let outcome_fields o =
  [
    ("refined", float_of_int o.refined);
    ("proved", float_of_int o.proved);
    ("gates_before", float_of_int o.gates_before);
    ("gates_after", float_of_int o.gates_after);
    ("area_before", o.area_before);
    ("area_after", o.area_after);
  ]

let pp_outcome o =
  Printf.sprintf "refined %d, proved %d, gates %d -> %d, area %.1f -> %.1f"
    o.refined o.proved o.gates_before o.gates_after o.area_before o.area_after

let report_problems label problems =
  List.iter (fun p -> Printf.eprintf "FAIL %s: %s\n%!" label p) problems

let status_problem = function
  | Unix.WEXITED 0 -> []
  | Unix.WEXITED c -> [ Printf.sprintf "exited with code %d" c ]
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> [ Printf.sprintf "killed by signal %d" s ]

(* set-up samples per run, each in a fresh set-up-only process.  They
   run back to back before anything heavy: a process started right after
   a large repetition exits pays extra page faults, up to +60% on Ibex's
   80 ms set-up. *)
let setup_samples = 7

let run_workload ~seed ~seconds ~trace w =
  let work = Filename.concat work_root (Printf.sprintf "%d-%s" (Unix.getpid ()) w.name) in
  remove_tree work;
  mkdir_p work;
  let counter = ref 0 in
  let child ?env role ~dir extra =
    incr counter;
    let out = Filename.concat work (Printf.sprintf "result-%d.bin" !counter) in
    let status =
      spawn ?env ([ "--child"; role; w.name; string_of_int seed; dir; out ] @ extra)
    in
    let result =
      if Sys.file_exists out then
        Some (In_channel.with_open_bin out (fun ic -> (Marshal.from_channel ic : child_result)))
      else None
    in
    (result, status)
  in
  (* a repetition's directory, staged from the pristine prep state *)
  let stage pristine i =
    let dir = Filename.concat work (Printf.sprintf "rep-%d" i) in
    mkdir_p dir;
    Option.iter
      (fun src ->
        copy_tree src (Filename.concat dir (if w.resume then "run" else "cache")))
      pristine;
    dir
  in
  (* prep: the primed cache (warm) or the journal of a run stopped at the
     prove boundary by the chaos hook (resume); returns the pristine
     directory the repetitions are staged from *)
  let prep () =
    let dir = Filename.concat work "prep" in
    mkdir_p dir;
    if w.cache = Primed_cache then
      match child "prep" ~dir [] with
      | Some (Rep_done r), Unix.WEXITED 0 when r.problems = [] ->
          Ok (Some (Filename.concat dir "cache"))
      | Some (Rep_done r), _ -> Error ("priming run: " ^ String.concat "; " r.problems)
      | _, status -> Error ("priming run " ^ String.concat "; " (status_problem status))
    else if w.resume then
      let env = Array.append (Unix.environment ()) [| "PDAT_CHAOS=sigterm:prove" |] in
      let journal = Filename.concat (Filename.concat dir "run") "journal.jsonl" in
      match child ~env "prep" ~dir [] with
      | _, Unix.WSIGNALED s when s = Sys.sigterm && Sys.file_exists journal ->
          Ok (Some (Filename.concat dir "run"))
      | _, status ->
          Error
            ("journal prep was not stopped at the prove boundary ("
            ^ String.concat "; " (status_problem status) ^ ")")
    else Ok None
  in
  let rep_problems (r : rep) =
    let unprimed =
      if w.cache = Primed_cache && r.cache_hits <> r.outcome.refined then
        [ Printf.sprintf "the primed cache answered %d of %d candidates" r.cache_hits
            r.outcome.refined ]
      else []
    in
    r.problems @ unprimed @ reference_problems w (outcome_fields r.outcome)
  in
  let run_rep_child pristine i =
    let dir = stage pristine i in
    let t0 = now () in
    let result, status = child "rep" ~dir [] in
    let wall = now () -. t0 in
    remove_tree dir;
    match result with
    | Some (Rep_done r) ->
        let problems = rep_problems r @ status_problem status in
        report_problems (Printf.sprintf "%s rep %d" w.name i) problems;
        Printf.printf "  rep %d: reduce %.3f s, peak RSS %.0f MB, %s\n%!" i r.reduce_s
          r.rss_mb (pp_outcome r.outcome);
        (Some r, problems = [], wall)
    | Some _ | None ->
        report_problems (Printf.sprintf "%s rep %d" w.name i)
          ("no result" :: status_problem status);
        (None, false, wall)
  in
  Printf.printf "%s (seed %d%s)\n%!" w.name seed (if trace then ", traced" else "");
  let setups =
    if trace then []
    else
      List.init setup_samples (fun _ ->
          match child "setup" ~dir:work [] with
          | Some (Setup_done s), Unix.WEXITED 0 -> Some s
          | _, status ->
              report_problems (w.name ^ " set-up") ("no result" :: status_problem status);
              None)
  in
  let result =
    match prep () with
    | Error e ->
        report_problems w.name [ e ];
        { correct = false; attempted = 1; failed = 1; metrics = []; details = [] }
    | Ok pristine when not trace ->
        let rec reps i elapsed acc =
          if i > 3 && elapsed >= seconds then List.rev acc
          else
            let (_, _, wall) as r = run_rep_child pristine i in
            reps (i + 1) (elapsed +. wall) (r :: acc)
        in
        let results = reps 1 0. [] in
        let good = List.filter_map (fun (r, _, _) -> r) results in
        let failed = List.length (List.filter (fun (_, ok, _) -> not ok) results) in
        let setup_failed = List.mem None setups in
        let setups = List.filter_map Fun.id setups in
        let reduce_s = List.map (fun r -> r.reduce_s) good in
        let rss = List.map (fun r -> r.rss_mb) good in
        let pct before after =
          match good with
          | r :: _ -> Netlist.Stats.delta_pct ~baseline:(before r.outcome) (after r.outcome)
          | [] -> 0.
        in
        let summary name l =
          [
            (name ^ ".min", List.fold_left Float.min infinity l);
            (name ^ ".median", median l);
            (name ^ ".max", List.fold_left Float.max neg_infinity l);
            (name ^ ".samples", float_of_int (List.length l));
          ]
        in
        {
          correct = failed = 0 && not setup_failed;
          attempted = List.length results;
          failed;
          metrics =
            [
              (* the fastest repetition: on a shared host, interference
                 only ever adds time *)
              ("reduce_s", List.fold_left Float.min infinity reduce_s);
              ("setup_s", median setups);
              ("peak_rss_mb", median rss);
              ( "gate_reduction_pct",
                pct
                  (fun o -> float_of_int o.gates_before)
                  (fun o -> float_of_int o.gates_after) );
              ("area_reduction_pct", pct (fun o -> o.area_before) (fun o -> o.area_after));
            ];
          details = summary "reduce_s" reduce_s @ summary "setup_s" setups @ summary "peak_rss_mb" rss;
        }
    | Ok pristine ->
        (* the faster of two untraced repetitions is the reference: a
           run's first repetition is systematically slow *)
        let untraced = List.init 2 (fun i -> run_rep_child pristine (i + 1)) in
        let reps = List.filter_map (fun (r, _, _) -> r) untraced in
        let dir = stage pristine 3 in
        let trace_path = Printf.sprintf "TRACE_e2e_%s.json" w.name in
        let result, status = child "replay" ~dir [ trace_path ] in
        remove_tree dir;
        let replay_problems, metrics =
          match (result, reps) with
          | Some (Replay_done p), r :: _ ->
              Printf.printf "  traced replay: %s; wrote %s\n%!" (pp_outcome p.r_outcome) trace_path;
              let fidelity =
                if p.r_outcome <> r.outcome then
                  [ "the traced replay differs from the untraced repetition: "
                    ^ pp_outcome r.outcome ]
                else []
              in
              let untraced_s = List.fold_left (fun m r -> Float.min m r.reduce_s) infinity reps in
              let traced_s = List.assoc "reduce.traced_s" p.r_metrics in
              ( p.r_problems @ fidelity @ status_problem status
                @ reference_problems w
                    (("mined", float_of_int p.r_mined) :: outcome_fields p.r_outcome),
                p.r_metrics
                @ [ ("trace.overhead_pct", 100. *. (traced_s -. untraced_s) /. untraced_s) ] )
          | _ -> ("no result" :: status_problem status, [])
        in
        report_problems (w.name ^ " traced replay") replay_problems;
        let failed =
          List.length (List.filter (fun (_, ok, _) -> not ok) untraced)
          + if replay_problems = [] then 0 else 1
        in
        { correct = failed = 0; attempted = 3; failed; metrics; details = [] }
  in
  remove_tree work;
  (try Unix.rmdir work_root with Unix.Unix_error _ -> ());
  result

(* ---------------- main -------------------------------------------------- *)

let write_bench ~trace ~seed (fields : (string * float) list) =
  let target = if trace then "e2e_trace" else "e2e" in
  let path = Printf.sprintf "BENCH_%s.json" target in
  let commit = if Sys.file_exists ".git" then Report.Meta.git_commit () else "unknown" in
  let body =
    String.concat ""
      (List.map
         (fun (k, v) -> Printf.sprintf ",\n  %s: %s" (json_string k) (json_number v))
         fields)
  in
  Obs.write_file_atomic path
    (Printf.sprintf
       "{\n  \"schema_version\": %d,\n  \"commit\": %s,\n  \"target\": %s,\n  \
        \"seed\": %d%s\n}\n"
       Report.Meta.schema_version (json_string commit) (json_string target) seed body);
  Printf.printf "wrote %s\n" path

let usage () =
  prerr_endline
    "usage: main.exe --workload W|all [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe --list-metrics";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--child" :: args -> child_main args
  | [ "--list-metrics" ] -> print_string (benchmark_json ())
  | args ->
      let rec parse (w, seed, seconds, trace) = function
        | "--workload" :: v :: rest -> parse (Some v, seed, seconds, trace) rest
        | "--seed" :: v :: rest -> parse (w, int_of_string v, seconds, trace) rest
        | "--seconds" :: v :: rest -> parse (w, seed, float_of_string v, trace) rest
        | "--trace" :: (("0" | "1") as v) :: rest -> parse (w, seed, seconds, v = "1") rest
        | [] -> (w, seed, seconds, trace)
        | _ -> usage ()
      in
      let wname, seed, seconds, trace =
        try
          parse
            (None, Pdat.Validate.default.Pdat.Validate.seed, float_of_int run_seconds, false)
            args
        with Failure _ -> usage ()
      in
      let selected =
        match wname with
        | Some "all" -> workloads
        | Some name -> [ find_workload name ]
        | None -> usage ()
      in
      let results = List.map (fun w -> (w, run_workload ~seed ~seconds ~trace w)) selected in
      (* one workload: metrics by name; several: <workload>.<metric> *)
      let key w m = if List.length selected = 1 then m else w.name ^ "." ^ m in
      let metrics =
        List.concat_map
          (fun (w, r) -> List.map (fun (m, v) -> (key w m, m, v)) r.metrics)
          results
      in
      List.iter
        (fun (k, m, v) -> Printf.printf "%-48s %.6g %s\n" k v (unit_of m))
        metrics;
      if List.for_all (fun (_, r) -> r.metrics <> []) results then
        write_bench ~trace ~seed
          (List.concat_map
             (fun (w, r) ->
               List.map (fun (m, v) -> (w.name ^ "." ^ m, v)) (r.metrics @ r.details))
             results);
      let correct = List.for_all (fun (_, r) -> r.correct) results in
      let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        correct (sum (fun r -> r.attempted)) (sum (fun r -> r.failed))
        (String.concat ", "
           (List.map
              (fun (k, m, v) ->
                Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string k)
                  (json_number v) (json_string (unit_of m)))
              metrics));
      if not correct then exit 1
