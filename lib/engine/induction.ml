module D = Netlist.Design
module S = Sat.Solver
module L = Sat.Lit

type options = {
  k : int;
  call_conflict_budget : int;
  total_conflict_budget : int;
  time_budget_s : float;
}

let default_options =
  { k = 1; call_conflict_budget = 200_000; total_conflict_budget = -1;
    time_budget_s = infinity }

type stats = {
  n_candidates : int;
  n_proved : int;
  sat_calls : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  rounds : int;
  budget_exhausted : bool;
  deadline_exceeded : bool;
  workers : int;
  workers_failed : int;
  worker_failures : (int * string) list;
  worker_retries : int;
  worker_fallbacks : int;
  resumed_shards : int;
  worker_times : (int * float * float) list;
  shard_sizes : int list;
  cache_hits : int;
  cache_misses : int;
  worker_seconds : float;
  top_costs : Obs.Attr.row list;
  worker_wall_max_s : float;
  worker_wall_mean_s : float;
  worker_idle_frac : float;
}

let blank_stats =
  {
    n_candidates = 0;
    n_proved = 0;
    sat_calls = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    rounds = 0;
    budget_exhausted = false;
    deadline_exceeded = false;
    workers = 0;
    workers_failed = 0;
    worker_failures = [];
    worker_retries = 0;
    worker_fallbacks = 0;
    resumed_shards = 0;
    worker_times = [];
    shard_sizes = [];
    cache_hits = 0;
    cache_misses = 0;
    worker_seconds = 0.;
    top_costs = [];
    worker_wall_max_s = 0.;
    worker_wall_mean_s = 0.;
    worker_idle_frac = 0.;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "candidates=%d proved=%d sat_calls=%d conflicts=%d rounds=%d%s%s"
    s.n_candidates s.n_proved s.sat_calls s.conflicts s.rounds
    (if s.budget_exhausted then " (budget exhausted)" else "")
    (if s.deadline_exceeded then " (deadline exceeded)" else "");
  if s.workers > 0 then begin
    Format.fprintf fmt " workers=%d shards=[%s] worker_wall=%.1fs"
      s.workers
      (String.concat ";" (List.map string_of_int s.shard_sizes))
      s.worker_seconds;
    if s.resumed_shards > 0 then
      Format.fprintf fmt " resumed=%d" s.resumed_shards;
    if s.workers_failed > 0 then
      Format.fprintf fmt " (%d worker failure%s: %s; %d retr%s, %d fallback%s)"
        s.workers_failed
        (if s.workers_failed = 1 then "" else "s")
        (String.concat "; "
           (List.map
              (fun (i, why) -> Printf.sprintf "#%d %s" i why)
              s.worker_failures))
        s.worker_retries
        (if s.worker_retries = 1 then "y" else "ies")
        s.worker_fallbacks
        (if s.worker_fallbacks = 1 then "" else "s")
  end;
  if s.cache_hits + s.cache_misses > 0 then
    Format.fprintf fmt " cache=%d/%d hits" s.cache_hits
      (s.cache_hits + s.cache_misses);
  if s.worker_wall_max_s > 0. then
    Format.fprintf fmt " balance=max %.2fs mean %.2fs idle %.0f%%"
      s.worker_wall_max_s s.worker_wall_mean_s (100. *. s.worker_idle_frac)

(* Per-candidate fate, for the provenance layer.  Only [V_refuted]
   carries a counterexample: a base-side SAT model is a trace from
   reset, so it replays exactly in the simulator; a step-side kill
   starts from a free state and proves nothing about reachability. *)
type verdict =
  | V_proved of { k : int }
  | V_refuted of { frame : int; cex : Cex.t option }
  | V_sim_killed
  | V_not_inductive
  | V_dropped of string
  | V_cached of Proof_cache.verdict

let verdict_label = function
  | V_proved _ -> "proved"
  | V_refuted _ -> "refuted"
  | V_sim_killed -> "sim-killed"
  | V_not_inductive -> "not-inductive"
  | V_dropped _ -> "dropped"
  | V_cached Proof_cache.Proved -> "cached-proved"
  | V_cached Proof_cache.Disproved -> "cached-disproved"

let verdict_proves = function
  | V_proved _ | V_cached Proof_cache.Proved -> true
  | V_refuted _ | V_sim_killed | V_not_inductive | V_dropped _
  | V_cached Proof_cache.Disproved ->
      false

(* A candidate's claim at a given frame, as a bare literal list (the
   clause asserting it), optionally under a guard literal. *)
let claim_lits u ~frame = function
  | Candidate.Const (n, b) ->
      let l = Unroll.lit u ~frame n in
      [ (if b then l else L.negate l) ]
  | Candidate.Implies { a; b; _ } ->
      [ L.negate (Unroll.lit u ~frame a); Unroll.lit u ~frame b ]

let claim_clause u ~frame ~guard cand =
  L.negate guard :: claim_lits u ~frame cand

(* violation literal: true in a model ⇒ the candidate fails at [frame] *)
let violation_lit u ~frame = function
  | Candidate.Const (n, b) ->
      let l = Unroll.lit u ~frame n in
      if b then L.negate l else l
  | Candidate.Implies { a; b; _ } ->
      let s = Unroll.solver u in
      let v = L.pos (S.new_var s) in
      S.add_clause s [ L.negate v; Unroll.lit u ~frame a ];
      S.add_clause s [ L.negate v; L.negate (Unroll.lit u ~frame b) ];
      v

(* does the candidate hold at [frame] in the current model? *)
let holds_in_model u ~frame = function
  | Candidate.Const (n, b) -> S.lit_value (Unroll.solver u) (Unroll.lit u ~frame n) = b
  | Candidate.Implies { a; b; _ } ->
      (not (S.lit_value (Unroll.solver u) (Unroll.lit u ~frame a)))
      || S.lit_value (Unroll.solver u) (Unroll.lit u ~frame b)

type side = {
  u : Unroll.t;
  viol : L.t array;          (* aggregated violation literal per candidate *)
  check_frames : int list;   (* frames where claims are checked *)
  hyp_actives : L.t array option;  (* step side only: hypothesis guards *)
}

let or_lits u lits =
  match lits with
  | [ l ] -> l
  | _ ->
      let s = Unroll.solver u in
      let v = L.pos (S.new_var s) in
      (* v -> (l1 | l2 | ...): enough for the "model implies violation"
         direction that the kill loop relies on *)
      S.add_clause s (L.negate v :: lits);
      v

let candidate_nets acc = function
  | Candidate.Const (n, _) -> n :: acc
  | Candidate.Implies { a; b; _ } -> a :: b :: acc

(* The side encodes the cone of [roots], by default [assume] and the
   nets of every claim it makes.  Candidates only ever die, so the
   cone computed from the initial set covers every later check. *)
let build_side ?roots d ~assume ~init ~n_frames ~check_frames
    ~with_hypothesis ~known ~hypotheses candidates =
  let roots =
    match roots with
    | Some r -> r
    | None ->
        List.fold_left candidate_nets
          (Array.fold_left candidate_nets [ assume ] candidates)
          (known @ hypotheses)
  in
  let solver = S.create () in
  let u = Unroll.create solver d ~init ~roots ~frames:n_frames in
  for f = 0 to n_frames - 1 do
    S.add_clause solver [ Unroll.lit u ~frame:f assume ]
  done;
  let tl = Unroll.lit_true u in
  (* [known] are established invariants of the reachable state space:
     sound to assert at every frame of either side (strengthening) *)
  List.iter
    (fun cand ->
      for f = 0 to n_frames - 1 do
        S.add_clause solver (claim_clause u ~frame:f ~guard:tl cand)
      done)
    known;
  (* [hypotheses] are unverified co-candidates from other shards: they
     may only be assumed where this side's own candidates assume theirs
     — the induction window of the step side, never the base side *)
  if with_hypothesis then
    List.iter
      (fun cand ->
        for f = 0 to n_frames - 2 do
          S.add_clause solver (claim_clause u ~frame:f ~guard:tl cand)
        done)
      hypotheses;
  let hyp_actives =
    if not with_hypothesis then None
    else begin
      (* own candidates' window claims are selector-guarded: the guard
         is assumed while the candidate is alive and retired on its
         kill, physically deleting the claim clauses from the solver *)
      let guards =
        Array.map
          (fun cand ->
            let g = S.new_selector solver in
            for f = 0 to n_frames - 2 do
              S.add_guarded solver ~guard:g (claim_lits u ~frame:f cand)
            done;
            g)
          candidates
      in
      Some guards
    end
  in
  let viol =
    Array.map
      (fun cand ->
        or_lits u (List.map (fun f -> violation_lit u ~frame:f cand) check_frames))
      candidates
  in
  { u; viol; check_frames; hyp_actives }

exception Out_of_budget

let prove ?(options = default_options) ?cex ?(known = []) ?(hypotheses = [])
    ?fates ~assume d candidate_list =
  let candidates = Array.of_list candidate_list in
  let n = Array.length candidates in
  let ckey = Array.map Candidate.key candidates in
  let attr0 = Obs.Attr.export () in
  let alive = Array.make n true in
  let sat_calls = ref 0 in
  (* Fate tracking (optional, for provenance): each candidate's first
     cause of death, or its proof.  [fate.(i)] is write-once. *)
  let want_fates = fates <> None in
  let fate : verdict option array = Array.make (if want_fates then n else 0) None in
  let set_fate i v = if want_fates && fate.(i) = None then fate.(i) <- Some v in
  let inputs_arr = lazy (Array.of_list (List.map snd (D.inputs d))) in
  (* Called immediately after a Sat answer, while the model is live:
     find the first check frame where candidate [i] fails and pull the
     input literals of frames [0..f] out of the model. *)
  let extract_cex side i =
    let u = side.u in
    match
      List.find_opt
        (fun f -> not (holds_in_model u ~frame:f candidates.(i)))
        (List.sort compare side.check_frames)
    with
    | None -> None
    | Some f ->
        let inputs = Lazy.force inputs_arr in
        let frames =
          Array.init (f + 1) (fun frame ->
              Array.map (fun nnet -> Unroll.value u ~frame nnet) inputs)
        in
        Some (f, { Cex.inputs; frames })
  in
  let record_kill side ~is_base i why =
    if want_fates then
      match why with
      | `Inconclusive -> set_fate i (V_dropped "inconclusive")
      | `Model ->
          if is_base then
            match extract_cex side i with
            | Some (frame, c) -> set_fate i (V_refuted { frame; cex = Some c })
            | None -> set_fate i (V_dropped "spurious-model")
          else set_fate i V_not_inductive
  in
  (* counterexample propagation: replay each CEX forward in the
     bit-parallel simulator to mass-kill non-inductive candidates that
     would otherwise each cost their own SAT query.  The replay loads
     the model's frame-0 state and drives the model's inputs up to the
     check frame: the model has no value for a flop outside the check
     frame's cone, so the simulator computes it from frame 0.  Random
     stimulus then drives the 64 lanes apart, and a lane is checked
     only while every cycle since the replay has met [assume]. *)
  let cex_propagate =
    match cex with
    | None -> fun _ () -> ()
    | Some (stimulus, cycles) ->
        let sim = Netlist.Sim64.create d in
        let set = Netlist.Sim64.set_input sim in
        let feed = Stimulus.feed d stimulus in
        let rng = Random.State.make [| 0xCE11 |] in
        let probes = Candidate.probes candidates in
        let kill i _ =
          alive.(i) <- false;
          set_fate i V_sim_killed
        in
        let word b = if b then -1L else 0L in
        fun side () ->
          let u = side.u in
          Netlist.Sim64.load_state sim (fun q -> word (Unroll.value u ~frame:0 q));
          for frame = 0 to List.fold_left max 0 side.check_frames - 1 do
            Array.iter
              (fun n -> set n (word (Unroll.value u ~frame n)))
              (Lazy.force inputs_arr);
            Netlist.Sim64.eval sim;
            Netlist.Sim64.step sim
          done;
          let live = ref (-1L) in
          for _ = 1 to cycles do
            Stimulus.next_cycle feed rng set;
            Netlist.Sim64.eval sim;
            live := Int64.logand !live (Netlist.Sim64.read sim assume);
            Candidate.iter_violated probes sim ~lanes:!live ~alive kill;
            Netlist.Sim64.step sim
          done
  in
  let budget_left =
    ref
      (if options.total_conflict_budget < 0 then None
       else Some options.total_conflict_budget)
  in
  (* [infinity] means unlimited; any finite non-positive budget is an
     already-expired deadline, so the very first SAT call returns
     Unknown and every candidate is conservatively dropped — uniform
     with Rsim and the raw solver. *)
  let deadline =
    if options.time_budget_s = infinity then None
    else Some (Obs.Clock.now_s () +. Float.max 0. options.time_budget_s)
  in
  let deadline_hit = ref false in
  let k = max 1 options.k in
  let base =
    build_side d ~assume ~init:`Reset ~n_frames:k
      ~check_frames:(List.init k (fun i -> i))
      ~with_hypothesis:false ~known ~hypotheses:[] candidates
  in
  let step =
    build_side d ~assume ~init:`Free ~n_frames:(k + 1) ~check_frames:[ k ]
      ~with_hypothesis:true ~known ~hypotheses candidates
  in
  let rounds = ref 0 in
  let exhausted = ref false in
  let alive_indices () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) then acc := i :: !acc
    done;
    !acc
  in
  let kill_from_model side ~is_base =
    let killed = ref [] in
    Array.iteri
      (fun i a ->
        if a then
          let ok =
            List.for_all
              (fun f -> holds_in_model side.u ~frame:f candidates.(i))
              side.check_frames
          in
          if not ok then begin
            alive.(i) <- false;
            record_kill side ~is_base i `Model;
            killed := i :: !killed
          end)
      alive;
    List.rev !killed
  in
  (* an aggregate round whose model refuted candidates is those
     candidates' cost: each gets an equal share of the round's
     conflicts and wall, and the one call that settled it — without
     this, kernels the aggregates settle outright would attribute
     nothing per-candidate *)
  let bill_round solver killed ~c0 ~t0 =
    let nk = List.length killed in
    let share_c = (S.num_conflicts solver - c0) / nk in
    let share_w = (Obs.Clock.now_s () -. t0) /. float_of_int nk in
    List.iter
      (fun i ->
        Obs.Attr.with_key ckey.(i) (fun () ->
            Obs.Attr.charge_call ~wall_s:share_w ~conflicts:share_c))
      killed
  in
  let budgeted_solve solver assumptions =
    incr sat_calls;
    let before = S.num_conflicts solver in
    let budget =
      let b = options.call_conflict_budget in
      match !budget_left with
      | None -> b
      | Some total -> if b < 0 then total else min b total
    in
    let r = S.solve ~assumptions ~conflict_budget:budget ?deadline solver in
    (match (r, deadline) with
    | S.Unknown, Some t when Obs.Clock.now_s () >= t -> deadline_hit := true
    | _ -> ());
    let spent = S.num_conflicts solver - before in
    (match !budget_left with
    | None -> ()
    | Some total ->
        let remaining = total - spent in
        if remaining <= 0 then raise Out_of_budget;
        budget_left := Some remaining);
    r
  in
  (* Both sides keep one long-lived solver.  On the step side each
     candidate's window claims live under its selector guard, assumed
     while the candidate is alive; a kill retires the selector,
     physically deleting those clauses. *)
  let step_solver = Unroll.solver step.u in
  let step_guards =
    match step.hyp_actives with Some g -> g | None -> [||]
  in
  let retired = Array.make n false in
  let sync_kills () =
    Array.iteri
      (fun j a ->
        if (not a) && not retired.(j) then begin
          retired.(j) <- true;
          S.retire step_solver step_guards.(j)
        end)
      alive
  in
  let base_pass () =
    let solver = Unroll.solver base.u in
    (* The base side has no hypothesis assumptions, so a candidate's
       base validity never depends on the alive set: one complete pass
       settles it forever and the fixpoint never returns here. *)
    let rec aggregate () =
      match alive_indices () with
      | [] -> ()
      | idxs ->
          incr rounds;
          let r = S.new_selector solver in
          S.add_guarded solver ~guard:r
            (List.map (fun i -> base.viol.(i)) idxs);
          let c0 = S.num_conflicts solver in
          let t0 = Obs.Clock.now_s () in
          let res =
            Obs.Attr.with_key "(base-aggregate)" (fun () ->
                budgeted_solve solver [ r ])
          in
          S.retire solver r;
          (match res with
          | S.Sat ->
              let killed = kill_from_model base ~is_base:true in
              if killed <> [] then begin
                bill_round solver killed ~c0 ~t0;
                cex_propagate base ();
                aggregate ()
              end
              else
                (* the model satisfied only spurious violation literals
                   of implication candidates; check individually *)
                individual idxs
          | S.Unsat -> ()
          | S.Unknown -> individual idxs)
    and individual idxs =
      List.iter
        (fun i ->
          if alive.(i) then
            match
              Obs.Attr.with_key ckey.(i) (fun () ->
                  budgeted_solve solver [ base.viol.(i) ])
            with
            | S.Sat ->
                ignore (kill_from_model base ~is_base:true : int list);
                if alive.(i) then begin
                  alive.(i) <- false;
                  record_kill base ~is_base:true i `Model
                end;
                cex_propagate base ()
            | S.Unsat -> ()
            | S.Unknown ->
                (* inconclusive: conservatively drop *)
                alive.(i) <- false;
                record_kill base ~is_base:true i `Inconclusive)
        idxs
    in
    aggregate ()
  in
  let step_fixpoint () =
    let solver = step_solver in
    sync_kills ();
    let assumptions_alive () =
      List.map (fun i -> step_guards.(i)) (alive_indices ())
    in
    let rec aggregate () =
      match alive_indices () with
      | [] -> ()
      | idxs ->
          incr rounds;
          let r = S.new_selector solver in
          S.add_guarded solver ~guard:r
            (List.map (fun i -> step.viol.(i)) idxs);
          let c0 = S.num_conflicts solver in
          let t0 = Obs.Clock.now_s () in
          let res =
            Obs.Attr.with_key "(step-aggregate)" (fun () ->
                budgeted_solve solver (r :: assumptions_alive ()))
          in
          S.retire solver r;
          (match res with
          | S.Sat ->
              let killed = kill_from_model step ~is_base:false in
              if killed <> [] then begin
                bill_round solver killed ~c0 ~t0;
                cex_propagate step ();
                sync_kills ();
                aggregate ()
              end
              else individual ()
          | S.Unsat -> ()
          | S.Unknown -> individual ())
    and individual () =
      (* Re-check every alive candidate on its own, and repeat until a
         pass kills nothing: a kill withdraws a hypothesis that earlier
         Unsat answers in the pass may have rested on. *)
      let progress = ref true in
      while !progress do
        progress := false;
        List.iter
          (fun i ->
            if alive.(i) then
              match
                Obs.Attr.with_key ckey.(i) (fun () ->
                    budgeted_solve solver
                      (step.viol.(i) :: assumptions_alive ()))
              with
              | S.Sat ->
                  ignore (kill_from_model step ~is_base:false : int list);
                  if alive.(i) then begin
                    alive.(i) <- false;
                    record_kill step ~is_base:false i `Model
                  end;
                  cex_propagate step ();
                  sync_kills ();
                  progress := true
              | S.Unsat -> ()
              | S.Unknown ->
                  alive.(i) <- false;
                  record_kill step ~is_base:false i `Inconclusive;
                  sync_kills ();
                  progress := true)
          (alive_indices ())
      done
    in
    aggregate ()
  in
  (try
     base_pass ();
     step_fixpoint ()
   with Out_of_budget ->
     exhausted := true;
     if want_fates then
       Array.iteri
         (fun i a -> if a then set_fate i (V_dropped "conflict-budget"))
         alive;
     Array.fill alive 0 n false);
  let proved = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then proved := candidates.(i) :: !proved
  done;
  (match fates with
  | None -> ()
  | Some tbl ->
      Array.iteri
        (fun i a ->
          let v =
            if a then V_proved { k }
            else
              match fate.(i) with
              | Some v -> v
              | None -> V_dropped "unaccounted"
          in
          Hashtbl.replace tbl candidates.(i) v)
        alive);
  let snap_base = S.snapshot (Unroll.solver base.u) in
  let snap_step = S.snapshot (Unroll.solver step.u) in
  ( !proved,
    {
      blank_stats with
      n_candidates = n;
      n_proved = List.length !proved;
      sat_calls = !sat_calls;
      conflicts = snap_base.S.conflicts + snap_step.S.conflicts;
      decisions = snap_base.S.decisions + snap_step.S.decisions;
      propagations = snap_base.S.propagations + snap_step.S.propagations;
      rounds = !rounds;
      budget_exhausted = !exhausted;
      deadline_exceeded = !deadline_hit;
      top_costs = Obs.Attr.top (Obs.Attr.delta ~since:attr0 (Obs.Attr.export ()));
    } )

(* Reference prover, retained as the differential-test oracle and the
   bench baseline: the pre-incremental snapshot/restore discipline.
   Every pass re-encodes the unrolled transition relation into fresh
   solvers and pays one solver round-trip per candidate, so no learned
   clause or selector survives between checks.  Slow but
   obviously correct — on complete runs (no budget/deadline drop) its
   proved set is the greatest mutual-induction fixpoint, which is
   exactly what [prove] computes incrementally. *)
let prove_snapshot ?(options = default_options) ?(known = [])
    ?(hypotheses = []) ~assume d candidate_list =
  let candidates = Array.of_list candidate_list in
  let n = Array.length candidates in
  let ckey = Array.map Candidate.key candidates in
  let alive = Array.make n true in
  let sat_calls = ref 0 in
  let rounds = ref 0 in
  let k = max 1 options.k in
  let deadline =
    if options.time_budget_s = infinity then None
    else Some (Obs.Clock.now_s () +. Float.max 0. options.time_budget_s)
  in
  let solve_one solver assumptions =
    incr sat_calls;
    S.solve ~assumptions ~conflict_budget:options.call_conflict_budget
      ?deadline solver
  in
  (* the oracle keeps the whole design in every frame *)
  let roots = List.init (D.num_nets d) Fun.id in
  let continue = ref true in
  while !continue do
    continue := false;
    incr rounds;
    let base =
      build_side ~roots d ~assume ~init:`Reset ~n_frames:k
        ~check_frames:(List.init k (fun i -> i))
        ~with_hypothesis:false ~known ~hypotheses:[] candidates
    in
    Array.iteri
      (fun i a ->
        if a then
          match
            Obs.Attr.with_key ckey.(i) (fun () ->
                solve_one (Unroll.solver base.u) [ base.viol.(i) ])
          with
          | S.Sat | S.Unknown ->
              alive.(i) <- false;
              continue := true
          | S.Unsat -> ())
      alive;
    let step =
      build_side ~roots d ~assume ~init:`Free ~n_frames:(k + 1)
        ~check_frames:[ k ] ~with_hypothesis:true ~known ~hypotheses candidates
    in
    let hyp_guards =
      match step.hyp_actives with Some g -> g | None -> [||]
    in
    let assumptions () =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if alive.(i) then acc := hyp_guards.(i) :: !acc
      done;
      !acc
    in
    Array.iteri
      (fun i a ->
        if a then
          match
            Obs.Attr.with_key ckey.(i) (fun () ->
                solve_one (Unroll.solver step.u)
                  (step.viol.(i) :: assumptions ()))
          with
          | S.Sat | S.Unknown ->
              alive.(i) <- false;
              continue := true
          | S.Unsat -> ())
      alive
  done;
  let proved = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then proved := candidates.(i) :: !proved
  done;
  ( !proved,
    {
      blank_stats with
      n_candidates = n;
      n_proved = List.length !proved;
      sat_calls = !sat_calls;
      rounds = !rounds;
    } )

(* ------------------------------------------------------------------ *)
(* Parallel prover: shard, fork, supervise, join.                      *)
(* ------------------------------------------------------------------ *)

(* A shard is identified across runs by the digest of its candidate
   keys: the journal checkpoints proved sets under this fingerprint, and
   a resumed run recognizes its shards by it even though pids, fds and
   timings all differ. *)
let shard_fingerprint cands =
  let keys = List.sort compare (List.map Candidate.key cands) in
  Digest.to_hex (Digest.string (String.concat "\n" keys))

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match float_of_string_opt (String.trim s) with Some f -> f | None -> default)
  | None -> default

let default_retries () = max 0 (env_int "PDAT_RETRIES" 2)
let retry_backoff_s () = Float.max 0. (env_float "PDAT_RETRY_BACKOFF_S" 0.1)
let stall_timeout_s () = Float.max 1. (env_float "PDAT_STALL_TIMEOUT_S" 30.)

(* Everything a worker ships back through its result pipe: the proof
   outcome plus its own telemetry, so the coordinator's trace shows the
   worker as a first-class span with its counters attached. *)
type worker_result = {
  w_proved : Candidate.t list;
  w_stats : stats;
  w_wall_s : float;
  w_cpu_s : float;  (* user + system CPU, from [Unix.times] *)
  w_events : Obs.event list;
  w_counters : (string * float) list;
  w_fates : (Candidate.t * verdict) list;  (* empty unless requested *)
  w_hists : (string * float array) list;   (* histogram samples *)
  w_attr : Obs.Attr.row list;              (* per-candidate cost rows *)
}

let status_str = function
  | Unix.WEXITED n -> Printf.sprintf "exit status %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

type attribution = {
  verdict : verdict;
  shard : int option;  (* worker index, parallel fresh candidates only *)
  cache_hit : bool;
}

let prove_parallel ?(options = default_options) ?cex ?(jobs = 1) ?cache
    ?attributions ?retries ?checkpoint ?(recovered = []) ?sieve:_
    ~assume d candidate_list =
  let retries = match retries with Some r -> max 0 r | None -> default_retries () in
  let attr0 = Obs.Attr.export () in
  let want_fates = attributions <> None in
  let attribute cand verdict shard cache_hit =
    match attributions with
    | None -> ()
    | Some tbl -> Hashtbl.replace tbl cand { verdict; shard; cache_hit }
  in
  let sc =
    Option.map (fun c -> (c, Proof_cache.scope c ~design:d ~assume)) cache
  in
  (* split the input into cache-resolved candidates and genuine work *)
  let cached_proved = ref [] and fresh = ref [] in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun cand ->
      match sc with
      | None -> fresh := cand :: !fresh
      | Some (c, scope) -> (
          match Proof_cache.find c scope cand with
          | Some Proof_cache.Proved ->
              incr hits;
              attribute cand (V_cached Proof_cache.Proved) None true;
              cached_proved := cand :: !cached_proved
          | Some Proof_cache.Disproved ->
              incr hits;
              attribute cand (V_cached Proof_cache.Disproved) None true
          | None ->
              incr misses;
              fresh := cand :: !fresh))
    candidate_list;
  let known = List.rev !cached_proved in
  let fresh = List.rev !fresh in
  let n_total = List.length candidate_list in
  let position = Hashtbl.create (max 16 n_total) in
  List.iteri (fun i cand -> Hashtbl.replace position cand i) candidate_list;
  let in_input_order l =
    List.sort
      (fun a b -> compare (Hashtbl.find position a) (Hashtbl.find position b))
      l
  in
  let finish ~proved ~st ~workers ~worker_failures ~worker_retries
      ~worker_fallbacks ~resumed_shards ~worker_times ~shard_sizes
      ~worker_seconds =
    let workers_failed = List.length worker_failures in
    (* verdicts are recorded only for runs that completed cleanly: a
       candidate dropped because a budget ran out is not a refutation
       and must stay re-provable.  Worker crashes no longer poison the
       record — supervision (retry, then in-process fallback) guarantees
       every shard was genuinely proved by someone. *)
    (match sc with
    | Some (c, scope)
      when (not st.budget_exhausted) && not st.deadline_exceeded ->
        let proved_tbl = Hashtbl.create 64 in
        List.iter (fun cand -> Hashtbl.replace proved_tbl cand ()) proved;
        List.iter
          (fun cand ->
            Proof_cache.record c scope cand
              (if Hashtbl.mem proved_tbl cand then Proof_cache.Proved
               else Proof_cache.Disproved))
          fresh
    | _ -> ());
    let all_proved = in_input_order (known @ proved) in
    (* load-balance gauges over the surviving workers' own wall clocks;
       idle fraction is how much of the slowest worker's window the
       average worker spent waiting (0 for a serial run) *)
    let walls = List.map (fun (_, w, _) -> w) worker_times in
    let wall_max = List.fold_left Float.max 0. walls in
    let wall_mean =
      match walls with
      | [] -> 0.
      | _ -> List.fold_left ( +. ) 0. walls /. float_of_int (List.length walls)
    in
    ( all_proved,
      {
        st with
        n_candidates = n_total;
        n_proved = List.length all_proved;
        top_costs =
          Obs.Attr.top (Obs.Attr.delta ~since:attr0 (Obs.Attr.export ()));
        worker_wall_max_s = wall_max;
        worker_wall_mean_s = wall_mean;
        worker_idle_frac =
          (if wall_max > 0. then 1. -. (wall_mean /. wall_max) else 0.);
        workers;
        workers_failed;
        worker_failures;
        worker_retries;
        worker_fallbacks;
        resumed_shards;
        worker_times;
        shard_sizes;
        cache_hits = !hits;
        cache_misses = !misses;
        worker_seconds;
      } )
  in
  let serial () =
    let fates = if want_fates then Some (Hashtbl.create 64) else None in
    let proved, st =
      prove ~options ?cex ~known ?fates ~assume d fresh
    in
    (match fates with
    | None -> ()
    | Some f -> Hashtbl.iter (fun cand v -> attribute cand v None false) f);
    finish ~proved ~st ~workers:0 ~worker_failures:[] ~worker_retries:0
      ~worker_fallbacks:0 ~resumed_shards:0 ~worker_times:[] ~shard_sizes:[]
      ~worker_seconds:0.
  in
  if fresh = [] then
    finish ~proved:[] ~st:blank_stats ~workers:0 ~worker_failures:[]
      ~worker_retries:0 ~worker_fallbacks:0 ~resumed_shards:0 ~worker_times:[]
      ~shard_sizes:[] ~worker_seconds:0.
  else if jobs <= 1 then serial ()
  else begin
    let shards = Shard.partition d ~jobs fresh in
    if List.length shards <= 1 then serial ()
    else begin
      let n_fresh = List.length fresh in
      let worker_options shard_n =
        if options.total_conflict_budget <= 0 then options
        else
          { options with
            total_conflict_budget =
              max 1000 (options.total_conflict_budget * shard_n / n_fresh) }
      in
      let shard_tbls =
        List.map
          (fun shard ->
            let tbl = Hashtbl.create 64 in
            List.iter (fun cand -> Hashtbl.replace tbl cand ()) shard;
            tbl)
          shards
      in
      let hypotheses_for tbl =
        List.filter (fun c -> not (Hashtbl.mem tbl c)) fresh
      in
      let t_fork = Obs.Clock.now_s () in
      (* -------- resume: shards already proved by a prior run -------- *)
      let fingerprints = List.map shard_fingerprint shards in
      let recovered_results, todo =
        List.fold_left2
          (fun (rec_acc, todo_acc) (idx, shard) fp ->
            match List.assoc_opt fp recovered with
            | Some proved ->
                (* trust nothing beyond the fingerprint: keep only
                   candidates that really are in this shard *)
                let tbl = List.nth shard_tbls idx in
                let proved = List.filter (Hashtbl.mem tbl) proved in
                ((idx, shard, proved) :: rec_acc, todo_acc)
            | None -> (rec_acc, (idx, shard) :: todo_acc))
          ([], [])
          (List.mapi (fun i s -> (i, s)) shards)
          fingerprints
      in
      let recovered_results = List.rev recovered_results in
      let resumed_shards = List.length recovered_results in
      if resumed_shards > 0 then
        Obs.add_int "prove.resumed_shards" resumed_shards;
      (* -------- supervised worker pool ------------------------------ *)
      let backoff_base = retry_backoff_s () in
      let stall_after = stall_timeout_s () in
      (* a worker that outlives its own time budget by this much is
         presumed wedged and killed by the coordinator *)
      let watchdog_grace = 5.0 in
      let pending = ref [] (* (idx, shard, attempt, not_before) *) in
      List.iter
        (fun (idx, shard) -> pending := (idx, shard, 0, 0.) :: !pending)
        (List.rev todo);
      let running = ref [] in
      let ok_results = ref [] (* (idx, worker_result) *) in
      let failures = ref [] (* (idx, reason), every failed attempt *) in
      let fallback_tasks = ref [] (* (idx, shard), retries exhausted *) in
      let n_retries = ref 0 in
      let hb_scratch = Bytes.create 256 in
      let chunk = Bytes.create 65536 in
      let spawn (idx, shard, attempt, _) =
        flush stdout;
        flush stderr;
        let res_rd, res_wr = Unix.pipe () in
        let hb_rd, hb_wr = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
            (* child: prove the shard (no cex propagation — workers must
               be deterministic and kill only on real violations), ship
               the result + telemetry through the result pipe, beat on
               the heartbeat pipe once a second, and die without running
               the parent's at_exit machinery *)
            (try
               Unix.close res_rd;
               Unix.close hb_rd;
               Obs.reset ();
               Obs.Attr.set_shard (Some idx);
               (match Chaos.worker_kill_requested ~idx ~attempt with
               | `Exit3 -> Unix._exit 3
               | `Sigkill -> Unix.kill (Unix.getpid ()) Sys.sigkill
               | `No -> ());
               (* heartbeat + in-child deadline watchdog: SIGALRM every
                  second writes one byte to the heartbeat pipe and, past
                  the hard deadline, exits 124 — the in-process half of
                  the rlimit-style watchdog (the coordinator SIGKILL is
                  the other half) *)
               let hard_deadline =
                 let b = options.time_budget_s in
                 if b = infinity then None
                 else Some (Obs.Clock.now_s () +. Float.max 0. b +. 2.0)
               in
               Unix.set_nonblock hb_wr;
               let beat = Bytes.make 1 'b' in
               Sys.set_signal Sys.sigalrm
                 (Sys.Signal_handle
                    (fun _ ->
                      (try ignore (Unix.write hb_wr beat 0 1)
                       with Unix.Unix_error _ -> ());
                      match hard_deadline with
                      | Some t when Obs.Clock.now_s () >= t -> Unix._exit 124
                      | _ -> ()));
               ignore
                 (Unix.setitimer Unix.ITIMER_REAL
                    { Unix.it_interval = 1.0; it_value = 1.0 });
               let t0 = Obs.Clock.now_s () in
               let tm0 = Unix.times () in
               Chaos.worker_delay ~idx;
               let payload =
                 try
                   let fates =
                     if want_fates then Some (Hashtbl.create 64) else None
                   in
                   let proved, st =
                     Obs.with_span ~cat:"worker"
                       (Printf.sprintf "worker-%d" idx)
                       (fun () ->
                         prove
                           ~options:(worker_options (List.length shard))
                           ~known
                           ~hypotheses:
                             (hypotheses_for (List.nth shard_tbls idx))
                           ?fates ~assume d shard)
                   in
                   let tm1 = Unix.times () in
                   Ok
                     {
                       w_proved = proved;
                       w_stats = st;
                       w_wall_s = Obs.Clock.now_s () -. t0;
                       w_cpu_s =
                         tm1.Unix.tms_utime -. tm0.Unix.tms_utime
                         +. tm1.Unix.tms_stime -. tm0.Unix.tms_stime;
                       w_events = Obs.drain ();
                       w_counters = Obs.counters ();
                       w_fates =
                         (match fates with
                         | None -> []
                         | Some f ->
                             Hashtbl.fold (fun c v acc -> (c, v) :: acc) f []);
                       w_hists = Obs.histogram_samples ();
                       w_attr = Obs.Attr.export ();
                     }
                 with e -> Error (Printexc.to_string e)
               in
               (* quiesce the timer before the result write so SIGALRM
                  cannot interrupt the marshalled stream mid-syscall *)
               ignore
                 (Unix.setitimer Unix.ITIMER_REAL
                    { Unix.it_interval = 0.; it_value = 0. });
               let oc = Unix.out_channel_of_descr res_wr in
               Marshal.to_channel oc payload [];
               flush oc
             with _ -> ());
            Unix._exit 0
        | pid ->
            Unix.close res_wr;
            Unix.close hb_wr;
            let now = Obs.Clock.now_s () in
            let kill_after =
              if options.time_budget_s = infinity then None
              else
                Some
                  (now +. Float.max 0. options.time_budget_s +. watchdog_grace)
            in
            running :=
              (idx, shard, attempt, pid, res_rd, hb_rd, Buffer.create 4096,
               ref false, ref false, ref now, kill_after, ref None)
              :: !running
      in
      let reap pid =
        let rec wait () =
          try snd (Unix.waitpid [] pid)
          with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        wait ()
      in
      let handle_failure idx shard attempt reason =
        failures := (idx, reason) :: !failures;
        Obs.add_int "prove.worker_failures" 1;
        Obs.Log.event ~level:Obs.Log.Warn ~stage:"prove" ~shard:idx
          "worker-failure"
          ~kv:[ ("attempt", Obs.Int attempt); ("reason", Obs.Str reason) ];
        if attempt < retries then begin
          incr n_retries;
          Obs.add_int "prove.worker_retries" 1;
          let delay = backoff_base *. (2. ** float_of_int attempt) in
          pending :=
            !pending @ [ (idx, shard, attempt + 1, Obs.Clock.now_s () +. delay) ]
        end
        else
          (* retries exhausted: fall back to proving the shard serially
             in this process once the pool drains — the shard is never
             silently dropped *)
          fallback_tasks := (idx, shard) :: !fallback_tasks
      in
      let finish_worker (idx, shard, attempt, pid, res_rd, hb_rd, buf, res_eof,
                         hb_eof, _, _, killed) =
        if not !res_eof then (try Unix.close res_rd with Unix.Unix_error _ -> ());
        if not !hb_eof then (try Unix.close hb_rd with Unix.Unix_error _ -> ());
        let status = reap pid in
        let data = Buffer.contents buf in
        let payload =
          if String.length data = 0 then Error "empty pipe"
          else
            try Ok (Marshal.from_string data 0 : (worker_result, string) result)
            with Failure _ | End_of_file -> Error "garbled pipe"
        in
        let outcome =
          match (!killed, payload, status) with
          | Some why, _, st ->
              Error (Printf.sprintf "%s (%s)" why (status_str st))
          | None, Ok (Ok r), Unix.WEXITED 0 -> Ok r
          | None, Ok (Error msg), _ -> Error ("worker raised: " ^ msg)
          | None, Error why, Unix.WEXITED 0 -> Error why
          | None, (Ok (Ok _) | Error _), st -> Error (status_str st)
        in
        match outcome with
        | Ok r ->
            ok_results := (idx, r) :: !ok_results;
            Option.iter
              (fun cp -> cp (shard_fingerprint shard) r.w_proved)
              checkpoint
        | Error reason -> handle_failure idx shard attempt reason
      in
      (* progress heartbeat on the structured run log: how many shards
         and candidates are settled, and how much of the stage budget is
         left (the pipeline's stage allocator put it in
         [options.time_budget_s], so this is the honest ETA bound) *)
      let shard_size = Array.of_list (List.map List.length shards) in
      let last_hb = ref 0. in
      let log_heartbeat () =
        if Obs.Log.active () then begin
          let now = Obs.Clock.now_s () in
          if now -. !last_hb >= 1.0 then begin
            last_hb := now;
            let settled_shards =
              List.length !ok_results + List.length recovered_results
            in
            let settled =
              !hits
              + List.fold_left
                  (fun acc (idx, _) -> acc + shard_size.(idx))
                  0 !ok_results
              + List.fold_left
                  (fun acc (idx, _, _) -> acc + shard_size.(idx))
                  0 recovered_results
            in
            let kv =
              [
                ("shards_done", Obs.Int settled_shards);
                ("shards_total", Obs.Int (List.length shards));
                ("candidates_settled", Obs.Int settled);
                ("candidates_total", Obs.Int n_total);
                ("running", Obs.Int (List.length !running));
              ]
              @
              if options.time_budget_s = infinity then []
              else
                [
                  ( "eta_s",
                    Obs.Float
                      (Float.max 0.
                         (t_fork +. options.time_budget_s -. now)) );
                ]
            in
            Obs.Log.event ~stage:"prove" "heartbeat" ~kv
          end
        end
      in
      let rec supervise () =
        log_heartbeat ();
        (* launch every eligible pending task while a slot is free *)
        let now = Obs.Clock.now_s () in
        let eligible, waiting =
          List.partition (fun (_, _, _, nb) -> nb <= now) !pending
        in
        let free = max 0 (max 1 jobs - List.length !running) in
        let to_start, overflow =
          if List.length eligible <= free then (eligible, [])
          else
            let rec split n = function
              | rest when n = 0 -> ([], rest)
              | [] -> ([], [])
              | x :: rest ->
                  let a, b = split (n - 1) rest in
                  (x :: a, b)
            in
            split free eligible
        in
        pending := waiting @ overflow;
        List.iter spawn to_start;
        if !running <> [] then begin
          let res_fds =
            List.filter_map
              (fun (_, _, _, _, res_rd, _, _, res_eof, _, _, _, _) ->
                if !res_eof then None else Some res_rd)
              !running
          and hb_fds =
            List.filter_map
              (fun (_, _, _, _, _, hb_rd, _, _, hb_eof, _, _, _) ->
                if !hb_eof then None else Some hb_rd)
              !running
          in
          let readable, _, _ =
            try Unix.select (res_fds @ hb_fds) [] [] 0.2
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          let now = Obs.Clock.now_s () in
          List.iter
            (fun ((_, _, _, pid, res_rd, hb_rd, buf, res_eof, hb_eof,
                   last_beat, kill_after, killed) as _slot) ->
              if (not !hb_eof) && List.memq hb_rd readable then begin
                match Unix.read hb_rd hb_scratch 0 (Bytes.length hb_scratch) with
                | 0 ->
                    hb_eof := true;
                    Unix.close hb_rd
                | _ -> last_beat := now
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              end;
              if (not !res_eof) && List.memq res_rd readable then begin
                match Unix.read res_rd chunk 0 (Bytes.length chunk) with
                | 0 ->
                    res_eof := true;
                    Unix.close res_rd
                | n -> Buffer.add_subbytes buf chunk 0 n
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              end;
              (* watchdogs: a worker past its deadline + grace, or one
                 whose heartbeat went quiet, is presumed wedged *)
              if (not !res_eof) && !killed = None then begin
                (match kill_after with
                | Some t when now >= t ->
                    killed := Some "deadline watchdog";
                    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
                | _ -> ());
                if
                  !killed = None
                  && (not !hb_eof)
                  && now -. !last_beat > stall_after
                then begin
                  killed :=
                    Some
                      (Printf.sprintf "stalled: no heartbeat for %.0fs"
                         stall_after);
                  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
                end
              end;
              ignore pid)
            !running;
          (* a closed result pipe means the child wrote everything it
             ever will: settle it *)
          let done_, still =
            List.partition
              (fun (_, _, _, _, _, _, _, res_eof, _, _, _, _) -> !res_eof)
              !running
          in
          running := still;
          List.iter finish_worker done_;
          supervise ()
        end
        else if !pending <> [] then begin
          (* everything eligible is in backoff: sleep to the earliest *)
          let next =
            List.fold_left
              (fun acc (_, _, _, nb) -> Float.min acc nb)
              infinity !pending
          in
          let dt = Float.max 0.01 (next -. Obs.Clock.now_s ()) in
          Unix.sleepf (Float.min dt 0.2);
          supervise ()
        end
      in
      supervise ();
      (* -------- serial fallbacks ------------------------------------ *)
      let fallback_results =
        List.rev_map
          (fun (idx, shard) ->
            Obs.add_int "prove.worker_fallbacks" 1;
            Obs.Log.event ~level:Obs.Log.Warn ~stage:"prove" ~shard:idx
              "worker-fallback"
              ~kv:[ ("candidates", Obs.Int (List.length shard)) ];
            let fates = if want_fates then Some (Hashtbl.create 64) else None in
            let proved, st =
              Obs.with_span ~cat:"worker"
                (Printf.sprintf "fallback-%d" idx)
                (fun () ->
                  (* bill the in-process fallback to the shard it covers *)
                  Obs.Attr.set_shard (Some idx);
                  Fun.protect
                    ~finally:(fun () -> Obs.Attr.set_shard None)
                    (fun () ->
                      prove
                        ~options:(worker_options (List.length shard))
                        ~known
                        ~hypotheses:(hypotheses_for (List.nth shard_tbls idx))
                        ?fates ~assume d shard))
            in
            Option.iter
              (fun cp -> cp (shard_fingerprint shard) proved)
              checkpoint;
            let w_fates =
              match fates with
              | None -> []
              | Some f -> Hashtbl.fold (fun c v acc -> (c, v) :: acc) f []
            in
            (idx, proved, st, w_fates))
          !fallback_tasks
      in
      let worker_seconds = Obs.Clock.now_s () -. t_fork in
      let workers = List.length shards in
      let worker_failures = List.rev !failures in
      let worker_times =
        List.rev_map (fun (idx, r) -> (idx, r.w_wall_s, r.w_cpu_s)) !ok_results
      in
      (* fold worker telemetry into this process: spans appear under the
         worker's own pid in the trace, counters into the global table,
         histogram samples into the matching distributions *)
      List.iter
        (fun (_, r) ->
          Obs.inject r.w_events;
          Obs.merge_counters r.w_counters;
          Obs.merge_histogram_samples r.w_hists;
          Obs.Attr.merge r.w_attr)
        !ok_results;
      (* provenance: each fresh candidate's fate, tagged with the shard
         that decided it *)
      if want_fates then begin
        List.iter
          (fun (idx, r) ->
            List.iter
              (fun (cand, v) -> attribute cand v (Some idx) false)
              r.w_fates)
          !ok_results;
        List.iter
          (fun (idx, _, _, w_fates) ->
            List.iter
              (fun (cand, v) -> attribute cand v (Some idx) false)
              w_fates)
          fallback_results;
        (* a recovered shard carries only its proved set; its dropped
           candidates keep the honest "settled by a prior run" tag *)
        List.iter
          (fun (idx, shard, proved) ->
            let proved_tbl = Hashtbl.create 64 in
            List.iter (fun c -> Hashtbl.replace proved_tbl c ()) proved;
            List.iter
              (fun cand ->
                attribute cand
                  (if Hashtbl.mem proved_tbl cand then
                     V_proved { k = max 1 options.k }
                   else V_dropped "resumed")
                  (Some idx) false)
              shard)
          recovered_results
      end;
      let surv_tbl = Hashtbl.create 64 in
      List.iter
        (fun (_, r) ->
          List.iter (fun c -> Hashtbl.replace surv_tbl c ()) r.w_proved)
        !ok_results;
      List.iter
        (fun (_, proved, _, _) ->
          List.iter (fun c -> Hashtbl.replace surv_tbl c ()) proved)
        fallback_results;
      List.iter
        (fun (_, _, proved) ->
          List.iter (fun c -> Hashtbl.replace surv_tbl c ()) proved)
        recovered_results;
      let survivors = List.filter (Hashtbl.mem surv_tbl) fresh in
      (* join round: one serial mutual-induction fixpoint over the union
         of shard survivors.  Workers over-assume (every other shard's
         candidates as step hypotheses), so their survivor union is a
         superset of the serial fixpoint; the greatest fixpoint of a
         superset that still contains it is the same set, so this round
         restores exact agreement with the serial prover.  Recovered
         shards were proved by an identical worker in a prior run, so
         the argument covers them unchanged. *)
      let join_fates = if want_fates then Some (Hashtbl.create 64) else None in
      let joined, jst =
        Obs.with_span ~cat:"prove" "join-round" (fun () ->
            prove ~options ?cex ~known ?fates:join_fates ~assume d
              survivors)
      in
      (* the join round has the final word on shard survivors; keep the
         shard tag from the worker that carried the candidate there *)
      (match (join_fates, attributions) with
      | Some jf, Some tbl ->
          Hashtbl.iter
            (fun cand v ->
              match Hashtbl.find_opt tbl cand with
              | Some prev -> Hashtbl.replace tbl cand { prev with verdict = v }
              | None ->
                  Hashtbl.replace tbl cand
                    { verdict = v; shard = None; cache_hit = false })
            jf
      | _ -> ());
      let shard_stats =
        List.rev_map (fun (_, r) -> r.w_stats) !ok_results
        @ List.rev_map (fun (_, _, st, _) -> st) fallback_results
      in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 shard_stats in
      let any f = List.exists f shard_stats in
      let st =
        {
          jst with
          sat_calls = jst.sat_calls + sum (fun s -> s.sat_calls);
          conflicts = jst.conflicts + sum (fun s -> s.conflicts);
          decisions = jst.decisions + sum (fun s -> s.decisions);
          propagations = jst.propagations + sum (fun s -> s.propagations);
          rounds = jst.rounds + sum (fun s -> s.rounds);
          budget_exhausted =
            jst.budget_exhausted || any (fun s -> s.budget_exhausted);
          deadline_exceeded =
            jst.deadline_exceeded || any (fun s -> s.deadline_exceeded);
        }
      in
      finish ~proved:joined ~st ~workers ~worker_failures
        ~worker_retries:!n_retries
        ~worker_fallbacks:(List.length fallback_results) ~resumed_shards
        ~worker_times ~shard_sizes:(List.map List.length shards)
        ~worker_seconds
    end
  end
