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
  cache_hits : int;
  cache_misses : int;
  worker_wall_max_s : float;
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
    cache_hits = 0;
    cache_misses = 0;
    worker_wall_max_s = 0.;
    worker_idle_frac = 0.;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "candidates=%d proved=%d sat_calls=%d conflicts=%d rounds=%d%s%s"
    s.n_candidates s.n_proved s.sat_calls s.conflicts s.rounds
    (if s.budget_exhausted then " (budget exhausted)" else "")
    (if s.deadline_exceeded then " (deadline exceeded)" else "");
  if s.cache_hits + s.cache_misses > 0 then
    Format.fprintf fmt " cache=%d/%d hits" s.cache_hits
      (s.cache_hits + s.cache_misses)

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
  guards : L.t array;        (* step side only: window-claim selectors *)
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

(* The side encodes the cone of [assume] and the nets of every claim
   it makes.  Candidates only ever die, so the cone computed from the
   initial set covers every later check. *)
let build_side d ~assume ~init ~n_frames ~check_frames ~guarded ~known
    candidates =
  let roots =
    List.fold_left candidate_nets
      (Array.fold_left candidate_nets [ assume ] candidates)
      known
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
  (* step side: each candidate's window claims are selector-guarded.
     The guard is assumed while the candidate is alive and retired on
     its kill, physically deleting the claim clauses from the solver. *)
  let guards =
    if not guarded then [||]
    else
      Array.map
        (fun cand ->
          let g = S.new_selector solver in
          for f = 0 to n_frames - 2 do
            S.add_guarded solver ~guard:g (claim_lits u ~frame:f cand)
          done;
          g)
        candidates
  in
  let viol =
    Array.map
      (fun cand ->
        or_lits u (List.map (fun f -> violation_lit u ~frame:f cand) check_frames))
      candidates
  in
  { u; viol; check_frames; guards }

exception Out_of_budget

let prove ?(options = default_options) ?cex ?(known = []) ?fates ~assume d
    candidate_list =
  let candidates = Array.of_list candidate_list in
  let n = Array.length candidates in
  let sat0 = Obs.counters () in
  let alive = Array.make n true in
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
  let budgeted_solve solver assumptions =
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
  (* One SAT call, as a [sat-call] span whose args are the side, the
     number of candidates alive when it was made, and the keys of the
     candidates its model refuted: on [Sat], the model's kills happen
     inside the span. *)
  let sat_call side ~is_base assumptions =
    let n_alive = Array.fold_left (fun c a -> if a then c + 1 else c) 0 alive in
    let killed = ref [] in
    let args () =
      [
        ("side", Obs.Str (if is_base then "base" else "step"));
        ("alive", Obs.Int n_alive);
        ( "refuted",
          Obs.Str
            (String.concat " "
               (List.map (fun i -> Candidate.key candidates.(i)) !killed)) );
      ]
    in
    Obs.with_span ~cat:"prove" ~args "sat-call" (fun () ->
        let r = budgeted_solve (Unroll.solver side.u) assumptions in
        if r = S.Sat then killed := kill_from_model side ~is_base;
        (r, !killed))
  in
  let base_pass base =
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
          let res, killed = sat_call base ~is_base:true [ r ] in
          S.retire solver r;
          (match res with
          | S.Sat ->
              if killed <> [] then begin
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
            match fst (sat_call base ~is_base:true [ base.viol.(i) ]) with
            | S.Sat ->
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
  (* On the step side each candidate's window claims live under its
     selector guard, assumed while the candidate is alive; a kill
     retires the selector, physically deleting those clauses. *)
  let step_fixpoint step =
    let solver = Unroll.solver step.u in
    let retired = Array.make n false in
    let sync_kills () =
      Array.iteri
        (fun j a ->
          if (not a) && not retired.(j) then begin
            retired.(j) <- true;
            S.retire solver step.guards.(j)
          end)
        alive
    in
    sync_kills ();
    let assumptions_alive () =
      List.map (fun i -> step.guards.(i)) (alive_indices ())
    in
    let rec aggregate () =
      match alive_indices () with
      | [] -> ()
      | idxs ->
          incr rounds;
          let r = S.new_selector solver in
          S.add_guarded solver ~guard:r
            (List.map (fun i -> step.viol.(i)) idxs);
          let res, killed =
            sat_call step ~is_base:false (r :: assumptions_alive ())
          in
          S.retire solver r;
          (match res with
          | S.Sat ->
              if killed <> [] then begin
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
                fst
                  (sat_call step ~is_base:false
                     (step.viol.(i) :: assumptions_alive ()))
              with
              | S.Sat ->
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
  (* Each side keeps one long-lived solver, and its span covers the
     encoding, in an [encode] span of its own, and the pass.  The step
     side is encoded only once the base pass is over, from the same
     initial candidate set, and a side's solver becomes garbage as soon
     as its pass returns: the two solvers are never live together. *)
  let encode f = Obs.with_span ~cat:"prove" "encode" f in
  (try
     Obs.with_span ~cat:"prove" "base" (fun () ->
         base_pass
           (encode (fun () ->
                build_side d ~assume ~init:`Reset ~n_frames:k
                  ~check_frames:(List.init k (fun i -> i))
                  ~guarded:false ~known candidates)));
     Obs.with_span ~cat:"prove" "step" (fun () ->
         step_fixpoint
           (encode (fun () ->
                build_side d ~assume ~init:`Free ~n_frames:(k + 1)
                  ~check_frames:[ k ] ~guarded:true ~known candidates)))
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
  (* only [Sat.Solver.solve] moves the [sat.*] counters *)
  let sat = Obs.counters_delta ~since:sat0 in
  let sat name =
    int_of_float (Option.value ~default:0. (List.assoc_opt ("sat." ^ name) sat))
  in
  ( !proved,
    {
      blank_stats with
      n_candidates = n;
      n_proved = List.length !proved;
      sat_calls = sat "calls";
      conflicts = sat "conflicts";
      decisions = sat "decisions";
      propagations = sat "propagations";
      rounds = !rounds;
      budget_exhausted = !exhausted;
      deadline_exceeded = !deadline_hit;
    } )

let prove_parallel ?(options = default_options) ?cex ?jobs:_ ?cache
    ?attributions ?sieve:_ ~assume d candidate_list =
  let attribute cand verdict =
    Option.iter (fun tbl -> Hashtbl.replace tbl cand verdict) attributions
  in
  (* split the input into cache-resolved candidates and genuine work *)
  let cached_proved = ref [] and fresh = ref [] in
  let hits = ref 0 and misses = ref 0 in
  let sc =
    Obs.with_span ~cat:"prove" "cache" @@ fun () ->
    let sc =
      Option.map (fun c -> (c, Proof_cache.scope c ~design:d ~assume)) cache
    in
    List.iter
      (fun cand ->
        match sc with
        | None -> fresh := cand :: !fresh
        | Some (c, scope) -> (
            match Proof_cache.find c scope cand with
            | Some Proof_cache.Proved ->
                incr hits;
                attribute cand (V_cached Proof_cache.Proved);
                cached_proved := cand :: !cached_proved
            | Some Proof_cache.Disproved ->
                incr hits;
                attribute cand (V_cached Proof_cache.Disproved)
            | None ->
                incr misses;
                fresh := cand :: !fresh))
      candidate_list;
    sc
  in
  let known = List.rev !cached_proved in
  let fresh = List.rev !fresh in
  let proved, st =
    if fresh = [] then ([], blank_stats)
    else prove ~options ?cex ~known ?fates:attributions ~assume d fresh
  in
  let proved_tbl = Hashtbl.create 64 in
  List.iter (fun cand -> Hashtbl.replace proved_tbl cand ()) (known @ proved);
  (* verdicts are recorded only for runs that completed cleanly: a
     candidate dropped because a budget ran out is not a refutation
     and must stay re-provable *)
  (match sc with
  | Some (c, scope) when (not st.budget_exhausted) && not st.deadline_exceeded
    ->
      List.iter
        (fun cand ->
          Proof_cache.record c scope cand
            (if Hashtbl.mem proved_tbl cand then Proof_cache.Proved
             else Proof_cache.Disproved))
        fresh
  | _ -> ());
  let all_proved = List.filter (Hashtbl.mem proved_tbl) candidate_list in
  ( all_proved,
    {
      st with
      n_candidates = List.length candidate_list;
      n_proved = List.length all_proved;
      cache_hits = !hits;
      cache_misses = !misses;
    } )
