exception Rejected of Analysis.Diag.t list

let () =
  Printexc.register_printer (function
    | Rejected diags ->
        Some
          ("Pipeline.Rejected: "
          ^ String.concat "; " (List.map Analysis.Diag.to_string diags))
    | _ -> None)

(* What a journaled (and possibly resumed) run reports about its own
   provenance: which work was replayed from the journal instead of
   recomputed. *)
type resume_info = {
  journal_path : string;
  resumed : bool;
  resumed_stages : string list;
  resumed_shards : int;
  journal_dropped_lines : int;
}

type report = {
  variant : string;
  mined : int;
  proved : int;
  induction : Engine.Induction.stats;
  before : Netlist.Stats.t;
  after : Netlist.Stats.t;
  seconds : float;
  stage_seconds : (string * float) list;
  counters : (string * float) list;
  jobs : int;
  absint : bool;
  proof_budget_s : float;
  validation : Validate.outcome option;
  validated : bool;
  fallback_reason : string option;
  injected_fault : string option;
  lint_gate : Analysis.Lint.gate;
  input_lint : Analysis.Diag.t list;
  certificate_edits : int;
  audit : Analysis.Diag.t list;
  resume : resume_info option;
}

type result = {
  reduced : Netlist.Design.t;
  report : report;
}

let baseline d =
  let d', _ = Synthkit.Optimize.run d in
  (d', Netlist.Stats.of_design d')

let default_refine =
  { Engine.Rsim.default with Engine.Rsim.cycles = 2048; runs = 4 }

(* Requested worker counts are clamped to the cores actually online:
   forking more provers than cores just adds scheduler churn and was
   the root cause of the PR-2 "parallel" prover running at half serial
   speed on a 1-core box. *)
let clamp_jobs requested = max 1 (min requested (Obs.Hw.online_cores ()))

let default_jobs () =
  clamp_jobs
    (match Sys.getenv_opt "PDAT_JOBS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some j when j > 0 -> j
        | _ -> 1)
    | None -> 1)

let default_absint () =
  match Sys.getenv_opt "PDAT_ABSINT" with
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "1" | "true" | "on" | "yes" -> true
      | _ -> false)
  | None -> false

(* Budgeted stages and their relative weights.  The validate entry only
   participates when validation is on, so with it off the proof stage's
   share grows instead of being silently forfeited. *)
let stage_weights ~validate =
  [ ("mine", 1.0); ("refine", 1.0); ("prove", 2.5) ]
  @ (if validate then [ ("validate", 0.7) ] else [])

(* Replayable counterexamples for refuted candidates.  At most
   [max_cex_dumps] waveforms are written per run — enough to explain a
   refutation without turning the dump directory into a VCD landfill;
   records are visited in provenance-id order so the sample is
   deterministic. *)
let max_cex_dumps = 8

let dump_counterexamples ~model prov dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dumped = ref 0 in
  List.iter
    (fun (r : Report.Provenance.cand_record) ->
      if !dumped < max_cex_dumps then
        let cex =
          match r.Report.Provenance.refine_kill with
          | Some { Engine.Rsim.k_cex = Some c; _ } -> Some c
          | Some _ | None -> (
              match r.Report.Provenance.attribution with
              | Some
                  {
                    Engine.Induction.verdict =
                      Engine.Induction.V_refuted { cex = Some c; _ };
                    _;
                  } ->
                  Some c
              | _ -> None)
        in
        match cex with
        | None -> ()
        | Some c -> (
            let path =
              Filename.concat dir
                (Printf.sprintf "cex_inv%d.vcd" r.Report.Provenance.id)
            in
            try
              Engine.Cex.dump
                ~extra:
                  (Engine.Cex.nets_of_candidate model r.Report.Provenance.cand)
                ~path model c;
              Report.Provenance.set_cex_file prov r.Report.Provenance.cand path;
              incr dumped
            with Sys_error _ -> ()))
    (Report.Provenance.records prov)

(* The digest that pins a journal to its run: the environment model +
   assumption (what the miner and prover see) and the original design
   (what gets rewired).  Any structural change to either makes an old
   journal unreplayable, which is exactly right — its candidate keys
   are net/cell ids of those netlists. *)
let run_digest ~absint ~design ~env =
  Digest.to_hex
    (Digest.string
       (Engine.Proof_cache.scope_digest env.Environment.model
          ~assume:env.Environment.assume
       ^ "+"
       ^ Engine.Proof_cache.scope_digest design ~assume:Netlist.Design.net_true
       (* the absint facts are a deterministic function of (model,
          assume), so the flag alone separates strengthened journals
          from unstrengthened ones — replaying one into the other would
          silently change what the prove stage could have proved *)
       ^ (if absint then "+absint" else "")))

let run ?rsim ?(refine = default_refine) ?induction ?jobs ?cache ?sieve:_
    ?absint ?(validate = false) ?validate_config ?validate_stimulus
    ?time_budget ?(lint = Analysis.Lint.Off) ?inject ?provenance ?dump_cex
    ?trace ?log ?metrics_out ?run_dir ?(resume = false) ?retries ~design ~env
    () =
  let absint = match absint with Some a -> a | None -> default_absint () in
  let env_path var =
    match Sys.getenv_opt var with
    | Some p when String.trim p <> "" -> Some p
    | Some _ | None -> None
  in
  let trace =
    match trace with
    | Some _ as t -> t
    | None -> Option.map Obs.sink_of_path (env_path "PDAT_TRACE")
  in
  let log = match log with Some _ as l -> l | None -> env_path "PDAT_LOG" in
  let metrics_out =
    match metrics_out with
    | Some _ as m -> m
    | None -> env_path "PDAT_METRICS_OUT"
  in
  let was_enabled = Obs.is_enabled () in
  if trace <> None then Obs.enable ();
  (* the run log: opened here (unless the caller already opened one),
     closed on every exit path.  PDAT_LOG_LEVEL lowers the threshold to
     debug or raises it to warn/error. *)
  let log_opened =
    match log with
    | Some path when not (Obs.Log.active ()) ->
        let level =
          match Sys.getenv_opt "PDAT_LOG_LEVEL" with
          | Some s -> (
              match Obs.Log.level_of_string s with
              | Some l -> l
              | None -> Obs.Log.Info)
          | None -> Obs.Log.Info
        in
        Obs.Log.set ~level path;
        true
    | Some _ | None -> false
  in
  let counters0 = Obs.counters () in
  let finish_trace () =
    (match trace with
    | Some sink -> Obs.write_sink sink (Obs.drain () @ Obs.counter_events ())
    | None -> ());
    (* metrics snapshot even when the run raises: a crashed run's
       counters are exactly the ones worth scraping *)
    (match metrics_out with
    | Some path -> Obs.write_file_atomic path (Obs.openmetrics ())
    | None -> ());
    if log_opened then Obs.Log.close ();
    if not was_enabled then Obs.disable ()
  in
  Fun.protect ~finally:finish_trace @@ fun () ->
  (* [--dump-cex] without an explicit database still needs somewhere to
     record which candidate each waveform explains *)
  let prov =
    match (provenance, dump_cex) with
    | (Some _ as p), _ -> p
    | None, Some _ -> Some (Report.Provenance.create ())
    | None, None -> None
  in
  let t0 = Obs.Clock.now_s () in
  let jobs =
    match jobs with Some j -> clamp_jobs j | None -> default_jobs ()
  in
  (* a zero or negative budget is not "unlimited" — it is a budget that
     is already spent, so every budgeted stage sees an expired deadline
     and degrades to its empty result immediately *)
  let budget = Option.map (Float.max 0.) time_budget in
  (* journaled run: the write-ahead log that [~resume:true] replays.
     Created (or replayed) before any stage runs, closed on every exit
     path; [Journal.Mismatch] propagates — resuming against a changed
     netlist must be a hard error, not a silent cold start. *)
  let journal, recovered =
    match run_dir with
    | None -> (None, None)
    | Some dir ->
        let digest = run_digest ~absint ~design ~env in
        if resume then begin
          let j, r = Journal.resume ~dir ~digest in
          Obs.add_int "journal.resumes" 1;
          (Some j, Some r)
        end
        else
          ( Some
              (Journal.create ~dir ~digest
                 ~label:env.Environment.description),
            None )
  in
  Fun.protect ~finally:(fun () -> Option.iter Journal.close journal)
  @@ fun () ->
  let recovered_stage name =
    Option.bind recovered (fun r -> List.assoc_opt name r.Journal.r_stages)
  in
  let resumed_stages = ref [] in
  let journal_stage name keys =
    match journal with
    | Some j when recovered_stage name = None ->
        Journal.record_stage j ~name ~items:keys
    | _ -> ()
  in
  (* proportional allocation over the *remaining* budget: each budgeted
     stage, at its start, claims weight/(weight + weights-still-to-come)
     of whatever wall-clock is left, so a stage finishing early donates
     its slack to every later stage and nothing is reserved for stages
     that will not run (the small tail epsilon keeps the untimed
     rewire/resynth/baseline steps from being squeezed to zero) *)
  let weights = stage_weights ~validate in
  let stage_alloc name =
    match budget with
    | None -> None
    | Some b ->
        let now = Obs.Clock.now_s () in
        (* may be <= 0: an exhausted budget yields already-expired
           deadlines, so every stage degrades to its empty result *)
        let remaining = t0 +. b -. now in
        let rec split = function
          | [] -> None
          | (n, w) :: rest when n = name ->
              let later =
                List.fold_left (fun acc (_, w') -> acc +. w') 0. rest
              in
              Some (remaining *. w /. (w +. later +. 0.02))
          | _ :: rest -> split rest
        in
        split weights
  in
  let stage_deadline name =
    Option.map (fun a -> Obs.Clock.now_s () +. a) (stage_alloc name)
  in
  let stage_seconds = ref [] in
  let timed name f =
    (* chaos: PDAT_CHAOS="sigterm:<stage>" kills the process here,
       simulating an operator interrupt at a stage boundary *)
    Engine.Chaos.stage_sigterm name;
    Obs.Log.event ~stage:name "stage-start"
      ~kv:
        (match stage_alloc name with
        | Some a -> [ ("alloc_s", Obs.Float a) ]
        | None -> []);
    let r, dt = Obs.with_span_timed ~cat:"stage" name f in
    stage_seconds := (name, dt) :: !stage_seconds;
    Obs.Log.event ~stage:name "stage-end" ~kv:[ ("wall_s", Obs.Float dt) ];
    r
  in
  Obs.Log.event ~stage:"run" "run-start"
    ~kv:
      [
        ("variant", Obs.Str env.Environment.description);
        ("jobs", Obs.Int jobs);
        ("absint", Obs.Bool absint);
      ];
  let injected = ref None in
  let try_fault hook =
    match inject with
    | Some f when !injected = None -> (
        match hook f with
        | Some (x, what) ->
            injected := Some what;
            Some x
        | None -> None)
    | Some _ | None -> None
  in
  (* Static gate 1: the input netlist.  Basic well-formedness (net
     ranges, arities) is checked whatever the gate — a cell referencing
     a nonexistent net must surface as a located diagnostic, not as an
     array-bounds crash three stages later.  With the gate on, the full
     rule set runs; Strict additionally refuses any Error finding. *)
  let input_lint =
    timed "lint" (fun () ->
        match Analysis.Lint.well_formed design with
        | _ :: _ as errs -> raise (Rejected errs)
        | [] -> (
            match lint with
            | Analysis.Lint.Off -> []
            | Analysis.Lint.Warn | Analysis.Lint.Strict ->
                Analysis.Lint.run design))
  in
  (match (lint, Analysis.Diag.errors input_lint) with
  | Analysis.Lint.Strict, (_ :: _ as errs) -> raise (Rejected errs)
  | _ -> ());
  let mine_attr = Option.map (fun _ -> ref []) prov in
  let candidates =
    match recovered_stage "mine" with
    | Some keys ->
        (* replayed: the journal holds the stage's surviving keys, and
           the digest check guarantees they refer to this netlist *)
        resumed_stages := "mine" :: !resumed_stages;
        timed "mine" (fun () ->
            List.filter_map Engine.Candidate.of_key keys)
    | None ->
        timed "mine" (fun () ->
            Property_library.mine ?config:rsim
              ?deadline:(stage_deadline "mine") ?attribution:mine_attr
              ~model:env.Environment.model ~assume:env.Environment.assume
              ~stimulus:env.Environment.stimulus ()
            |> Property_library.restrict_to_original ~original:design)
  in
  journal_stage "mine" (List.map Engine.Candidate.key candidates);
  (* only post-restrict candidates get provenance ids; set_mined_rounds
     silently skips attribution entries for the dropped ones *)
  (match (prov, mine_attr) with
  | Some p, Some attr ->
      Report.Provenance.register p candidates;
      Report.Provenance.set_mined_rounds p !attr
  | _ -> ());
  (* a long, candidate-focused simulation pass kills most false
     candidates far more cheaply than SAT counterexamples would *)
  let refine_kills = Option.map (fun _ -> ref []) prov in
  let candidates =
    match recovered_stage "refine" with
    | Some keys ->
        resumed_stages := "refine" :: !resumed_stages;
        timed "refine" (fun () ->
            List.filter_map Engine.Candidate.of_key keys)
    | None ->
        timed "refine" (fun () ->
            Engine.Rsim.refine ~config:refine
              ?deadline:(stage_deadline "refine") ?kills:refine_kills
              ~assume:env.Environment.assume env.Environment.model
              env.Environment.stimulus candidates)
  in
  journal_stage "refine" (List.map Engine.Candidate.key candidates);
  (match (prov, refine_kills) with
  | Some p, Some k -> Report.Provenance.set_refine_kills p !k
  | _ -> ());
  let proof_alloc = stage_alloc "prove" in
  let induction_options =
    let base =
      match induction with
      | Some o -> o
      | None -> Engine.Induction.default_options
    in
    match proof_alloc with
    | None -> base
    | Some alloc ->
        (* the prover's unlimited sentinel is [infinity] and an
           exhausted allocation (<= 0) is an already-expired deadline,
           so a plain min merges the two budgets correctly *)
        let b = base.Engine.Induction.time_budget_s in
        { base with Engine.Induction.time_budget_s = Float.min b alloc }
  in
  let attributions = Option.map (fun _ -> Hashtbl.create 128) prov in
  (* the abstract interpreter's conditioned fixpoint over the model:
     cheap (no SAT), sound under the same always-assume semantics as
     the prover, and skipped entirely when the proof stage is being
     replayed from the journal *)
  let absint_fix =
    if absint && recovered_stage "prove" = None then
      Some
        (timed "absint" (fun () ->
             Engine.Absint.run ~assume:env.Environment.assume
               env.Environment.model))
    else None
  in
  (match absint_fix with
  | Some ai ->
      Obs.add_int "absint.facts" (Engine.Absint.n_facts ai);
      Obs.add_int "absint.iterations" (Engine.Absint.iterations ai)
  | None -> ());
  let proved, istats =
    match recovered_stage "prove" with
    | Some keys ->
        (* the whole proof stage completed in the prior run: its proved
           set is final (the journal records it after the join round) *)
        resumed_stages := "prove" :: !resumed_stages;
        timed "prove" (fun () ->
            let proved = List.filter_map Engine.Candidate.of_key keys in
            (match attributions with
            | None -> ()
            | Some tbl ->
                let ptbl = Hashtbl.create 64 in
                List.iter (fun c -> Hashtbl.replace ptbl c ()) proved;
                List.iter
                  (fun c ->
                    Hashtbl.replace tbl c
                      {
                        Engine.Induction.verdict =
                          (if Hashtbl.mem ptbl c then
                             Engine.Induction.V_proved
                               {
                                 k =
                                   max 1 induction_options.Engine.Induction.k;
                               }
                           else Engine.Induction.V_dropped "resumed");
                        shard = None;
                        cache_hit = false;
                      })
                  candidates);
            ( proved,
              {
                Engine.Induction.blank_stats with
                Engine.Induction.n_candidates = List.length candidates;
                n_proved = List.length proved;
              } ))
    | None ->
        let checkpoint =
          Option.map
            (fun j fp shard_proved ->
              Journal.record_shard j ~fp
                ~proved:(List.map Engine.Candidate.key shard_proved))
            journal
        in
        let recovered_shards =
          match recovered with
          | None -> []
          | Some r ->
              List.map
                (fun (fp, keys) ->
                  (fp, List.filter_map Engine.Candidate.of_key keys))
                r.Journal.r_shards
        in
        timed "prove" (fun () ->
            Engine.Induction.prove_parallel ~options:induction_options
              ?attributions ~cex:(env.Environment.stimulus, 24) ~jobs ?cache
              ?absint:absint_fix ?retries ?checkpoint
              ~recovered:recovered_shards
              ~assume:env.Environment.assume env.Environment.model candidates)
  in
  journal_stage "prove" (List.map Engine.Candidate.key proved);
  Option.iter Engine.Proof_cache.flush cache;
  (match (prov, attributions) with
  | Some p, Some tbl -> Report.Provenance.set_attributions p tbl
  | _ -> ());
  (match (prov, dump_cex) with
  | Some p, Some dir ->
      timed "dump-cex" (fun () ->
          dump_counterexamples ~model:env.Environment.model p dir)
  | _ -> ());
  (* the audit must judge certificates against what was actually
     proved, not against a possibly-corrupted hand-off *)
  let genuine_proved = proved in
  let proved =
    match try_fault (fun f -> Faults.corrupt_proved f ~design proved) with
    | Some proved' -> proved'
    | None -> proved
  in
  let rewired, certificate =
    timed "rewire" (fun () -> Rewire.apply_certified design proved)
  in
  Option.iter
    (fun p -> Report.Provenance.record_certificate p certificate)
    prov;
  let rewired =
    match
      try_fault (fun f -> Faults.corrupt_rewired f ~original:design ~rewired)
    with
    | Some d -> d
    | None -> rewired
  in
  (* Static gate 2: the rewiring stage.  Every edit must be justified
     by a *genuinely* proved invariant and replaying the certificate
     must reproduce the rewired netlist — so a corrupted proved set, a
     forged edit or an out-of-band netlist change is caught here,
     before a single validation cycle is simulated. *)
  let audit_diags =
    match lint with
    | Analysis.Lint.Off -> []
    | Analysis.Lint.Warn | Analysis.Lint.Strict ->
        timed "audit" (fun () ->
            Analysis.Audit.run ~pre_lint:input_lint
              ?prov_id:
                (Option.map (fun p c -> Report.Provenance.id_of p c) prov)
              ~original:design ~rewired ~proved:genuine_proved ~certificate ())
  in
  let audit_failed =
    lint = Analysis.Lint.Strict && Analysis.Diag.errors audit_diags <> []
  in
  let reduced =
    timed "resynth" (fun () -> fst (Synthkit.Optimize.run rewired))
  in
  let reduced =
    match try_fault (fun f -> Faults.corrupt_reduced f ~reduced) with
    | Some d -> d
    | None -> reduced
  in
  let base_design, before = timed "baseline" (fun () -> baseline design) in
  let validation, reduced, validated, fallback_reason =
    if audit_failed then
      (* statically rejected: the reduction never ships, no simulation
         needed to know it is wrong *)
      ( None,
        base_design,
        false,
        Some
          (Printf.sprintf "audit: %s"
             (Analysis.Diag.to_string
                (List.hd (Analysis.Diag.errors audit_diags)))) )
    else if not validate then (None, reduced, false, None)
    else
      let outcome =
        timed "validate" (fun () ->
            Validate.run ?config:validate_config
              ?deadline:(stage_deadline "validate")
              ?stimulus:validate_stimulus ~original:design ~reduced ~env ())
      in
      match outcome with
      | Validate.Equivalent _ -> (Some outcome, reduced, true, None)
      | Validate.Divergent _ | Validate.Unsupported _ ->
          (* never ship an unvalidated reduction: degrade to the
             baseline-synthesized original *)
          (Some outcome, base_design, false, Some (Validate.describe outcome))
  in
  let after = Netlist.Stats.of_design reduced in
  Option.iter
    (fun p ->
      Report.Provenance.record_designs p ~original:design ~rewired ~reduced
        ~baseline:base_design)
    prov;
  (* the post-proof stages are deterministic and cheap, so the journal
     records them without payloads — a resume replays candidates up to
     the proof and recomputes everything after it *)
  journal_stage "rewire" [];
  journal_stage "resynth" [];
  if validate then journal_stage "validate" [];
  (match journal with
  | Some j ->
      Journal.record_end j ~ok:(fallback_reason = None);
      Journal.close j
  | None -> ());
  let resume_info =
    Option.map
      (fun j ->
        {
          journal_path = Journal.path j;
          resumed = recovered <> None;
          resumed_stages = List.rev !resumed_stages;
          resumed_shards = istats.Engine.Induction.resumed_shards;
          journal_dropped_lines =
            (match recovered with
            | Some r -> r.Journal.r_dropped_lines
            | None -> 0);
        })
      journal
  in
  Obs.Log.event ~stage:"run" "run-end"
    ~kv:
      [
        ("seconds", Obs.Float (Obs.Clock.now_s () -. t0));
        ("mined", Obs.Int (List.length candidates));
        ("proved", Obs.Int (List.length proved));
        ("validated", Obs.Bool validated);
      ];
  {
    reduced;
    report =
      {
        variant = env.Environment.description;
        mined = List.length candidates;
        proved = List.length proved;
        induction = istats;
        before;
        after;
        seconds = Obs.Clock.now_s () -. t0;
        stage_seconds = List.rev !stage_seconds;
        counters = Obs.counters_delta ~since:counters0;
        jobs;
        absint;
        proof_budget_s = Float.max 0. (Option.value proof_alloc ~default:0.);
        validation;
        validated;
        fallback_reason;
        injected_fault = !injected;
        lint_gate = lint;
        input_lint;
        certificate_edits = Analysis.Certificate.length certificate;
        audit = audit_diags;
        resume = resume_info;
      };
  }

type self_test_entry = {
  fault : Faults.kind;
  injected : string option;
  caught : bool;
  caught_statically : bool;
  cex_files : string list;
}

let self_test ?rsim ?refine ?induction ?jobs ?cache ?validate_config
    ?validate_stimulus ?(lint = Analysis.Lint.Strict) ?(seed = 7) ?dump_cex
    ~design ~env () =
  (match dump_cex with
  | Some d -> (
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | None -> ());
  List.map
    (fun kind ->
      let prov = Report.Provenance.create () in
      let sub =
        Option.map (fun d -> Filename.concat d (Faults.name kind)) dump_cex
      in
      let r =
        run ?rsim ?refine ?induction ?jobs ?cache ~validate:true
          ?validate_config ?validate_stimulus ~lint ~provenance:prov
          ?dump_cex:sub ~inject:{ Faults.kind; seed } ~design ~env ()
      in
      {
        fault = kind;
        injected = r.report.injected_fault;
        caught =
          r.report.injected_fault <> None
          && (not r.report.validated)
          && r.report.fallback_reason <> None;
        caught_statically = Analysis.Diag.errors r.report.audit <> [];
        cex_files =
          List.filter_map
            (fun (cr : Report.Provenance.cand_record) ->
              cr.Report.Provenance.cex_file)
            (Report.Provenance.records prov);
      })
    Faults.all

let area_delta_pct r =
  Netlist.Stats.delta_pct ~baseline:r.before.Netlist.Stats.area
    r.after.Netlist.Stats.area

let gate_delta_pct r =
  Netlist.Stats.delta_pct
    ~baseline:(float_of_int (Netlist.Stats.gate_count r.before))
    (float_of_int (Netlist.Stats.gate_count r.after))

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>%s: mined=%d proved=%d (%a)@,area %.1f -> %.1f um^2 (%.1f%%), gates %d -> %d (%.1f%%), %.1fs"
    r.variant r.mined r.proved Engine.Induction.pp_stats r.induction
    r.before.Netlist.Stats.area r.after.Netlist.Stats.area (area_delta_pct r)
    (Netlist.Stats.gate_count r.before)
    (Netlist.Stats.gate_count r.after)
    (gate_delta_pct r) r.seconds;
  if r.jobs > 1 then Format.fprintf fmt " [jobs=%d]" r.jobs;
  if r.absint then Format.fprintf fmt " [absint]";
  (match r.resume with
  | Some ri when ri.resumed ->
      Format.fprintf fmt "@,resumed from %s: %d stage(s) [%s], %d shard(s)%s"
        ri.journal_path
        (List.length ri.resumed_stages)
        (String.concat ", " ri.resumed_stages)
        ri.resumed_shards
        (if ri.journal_dropped_lines > 0 then
           Printf.sprintf " (%d torn line(s) truncated)"
             ri.journal_dropped_lines
         else "")
  | Some _ | None -> ());
  (match r.injected_fault with
  | Some s -> Format.fprintf fmt "@,fault injected: %s" s
  | None -> ());
  (if r.lint_gate <> Analysis.Lint.Off then begin
     let e, w, i = Analysis.Diag.count r.input_lint in
     Format.fprintf fmt "@,lint (%s): %d error(s), %d warning(s), %d info"
       (Analysis.Lint.gate_name r.lint_gate)
       e w i;
     match Analysis.Diag.errors r.audit with
     | [] ->
         Format.fprintf fmt "@,audit: certificate ok (%d edit(s))"
           r.certificate_edits
     | err :: _ ->
         Format.fprintf fmt "@,audit: REJECTED — %s"
           (Analysis.Diag.to_string err)
   end);
  (match r.validation with
  | Some o -> Format.fprintf fmt "@,validation: %a" Validate.pp o
  | None -> ());
  (match r.fallback_reason with
  | Some s -> Format.fprintf fmt "@,FELL BACK to baseline: %s" s
  | None -> ());
  Format.fprintf fmt "@]"
