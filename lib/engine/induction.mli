(** Mutual k-induction over the candidate set — the Property Checking
    Stage of PDAT.

    The candidates are proved *simultaneously*: the inductive step may
    assume every still-alive candidate in frames [0..k-1] when proving
    frame [k].  Counterexample models evict violated candidates and the
    fixpoint re-runs; the survivors of a round that ends in UNSAT for
    both the base and the step are genuine invariants of the design
    under the environment assumption.

    Conflict budgets make the prover incomplete, never unsound: an
    inconclusive SAT call only drops candidates (paper section VII-C —
    an inconclusive analysis just means a less optimized netlist). *)

type options = {
  k : int;                    (** induction depth, >= 1 *)
  call_conflict_budget : int; (** per aggregate SAT call; -1 = unlimited *)
  total_conflict_budget : int;(** across the whole proof; -1 = unlimited *)
  time_budget_s : float;
      (** wall-clock seconds for the whole proof; [infinity] =
          unlimited, and any finite non-positive value is an
          already-expired deadline (nothing proves).  Measured from the
          [prove] call; once exceeded, every further SAT call returns
          Unknown, so remaining candidates are dropped (incomplete,
          never unsound) and the fixpoint winds down quickly. *)
}

val default_options : options

type stats = {
  n_candidates : int;
  n_proved : int;
  sat_calls : int;
      (** with [conflicts], [decisions] and [propagations]: the delta of
          the matching [sat.*] {!Obs} counter over the {!prove} call *)
  conflicts : int;
  decisions : int;
  propagations : int;
  rounds : int;
  budget_exhausted : bool;
  deadline_exceeded : bool;  (** the wall-clock budget cut the proof short *)
  workers : int;
      (** always 0, like [workers_failed], [worker_wall_max_s] and
          [worker_idle_frac]: the prover forks nothing.  The four are
          kept only so that callers written for the (since removed)
          fork pool still compile *)
  workers_failed : int;
  cache_hits : int;       (** candidates resolved from the proof cache *)
  cache_misses : int;     (** candidates the cache had no verdict for *)
  worker_wall_max_s : float;
  worker_idle_frac : float;
}

val blank_stats : stats
(** All-zero stats — the base for synthesizing a stats record when the
    proof stage itself was replayed from a journal. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Per-candidate verdicts}

    Fate of one candidate through the prover, for the provenance
    layer.  Only a base-side SAT kill carries a counterexample: the
    base case unrolls from reset, so its model is a concrete input
    trace that replays in {!Netlist.Sim64} ({!Cex.replay}) and refutes
    the candidate on real hardware states.  A step-side kill starts
    from an unconstrained state and proves nothing about
    reachability. *)
type verdict =
  | V_proved of { k : int }  (** survived mutual induction at depth [k] *)
  | V_refuted of { frame : int; cex : Cex.t option }
      (** violated at [frame] of the base case; [cex] is the replayable
          refuting input trace from reset *)
  | V_sim_killed
      (** evicted by counterexample propagation (simulator replay of
          another candidate's kill state) *)
  | V_not_inductive  (** killed on the induction step side *)
  | V_dropped of string
      (** conservatively dropped without a refutation: an inconclusive
          SAT call or an exhausted budget — the reason string says
          which *)
  | V_cached of Proof_cache.verdict  (** settled by the proof cache *)

val verdict_label : verdict -> string
(** Short stable tag ("proved", "refuted", ...) for reports. *)

val verdict_proves : verdict -> bool
(** Whether the verdict counts as a proof the rewiring stage may cite:
    [V_proved] and [V_cached Proved]. *)

val prove :
  ?options:options ->
  ?cex:Stimulus.t * int ->
  ?known:Candidate.t list ->
  ?fates:(Candidate.t, verdict) Hashtbl.t ->
  assume:Netlist.Design.net ->
  Netlist.Design.t ->
  Candidate.t list ->
  Candidate.t list * stats
(** Returns the proved subset of the candidates.  [assume] is the
    environment-ok net, forced to 1 in every time frame (use
    {!Netlist.Design.net_true} for an unconstrained environment).

    Each side encodes only the cone of influence of [assume] and the
    nets of the candidates and [known] ({!Unroll}), computed once from
    the initial candidates: they only die, so the cone keeps covering
    every later check.  The step side is encoded after the base pass,
    and each side's solver is dropped when its pass returns, so the
    base solver can be reclaimed before the step solver is built.

    While {!Obs} is tracing, each side's encoding and pass is one span,
    ["base"] then ["step"], and every SAT call inside them is a
    ["sat-call"] span with args [side] (["base"] or ["step"]), [alive]
    (candidates alive when the call was made) and [refuted] (the
    space-separated {!Candidate.key}s of the candidates its model
    refuted; empty on an Unsat or Unknown answer).  Like every span,
    they carry the [sat.*] counter deltas of the work inside them.

    [cex] = [(stimulus, cycles)] enables counterexample propagation:
    after each SAT kill, the simulator loads the model's frame-0 state,
    replays the model's inputs up to the check frame, then runs
    [cycles] cycles under the stimulus, evicting further candidates
    without SAT queries.  Conservative only — an eviction never makes
    the result unsound, it only skips an optimization.

    [known] are established invariants of the design under [assume]
    (e.g. from {!Proof_cache}); they are asserted at every frame of both
    the base and the step side, strengthening the induction for free.
    Soundness requires that they really are invariants.

    [fates], when given, is filled with one {!verdict} per candidate.
    Fate tracking costs nothing on the proof path except counterexample
    extraction at each base-side kill (one literal read per input per
    frame, while the SAT model is live). *)

val prove_parallel :
  ?options:options ->
  ?cex:Stimulus.t * int ->
  ?jobs:int ->
  ?cache:Proof_cache.t ->
  ?attributions:(Candidate.t, verdict) Hashtbl.t ->
  ?sieve:bool ->
  assume:Netlist.Design.net ->
  Netlist.Design.t ->
  Candidate.t list ->
  Candidate.t list * stats
(** The proof stage: settles candidates with a cached verdict up front
    (a ["cache"] span while {!Obs} is tracing), then runs {!prove} on
    the rest with the cached proofs as [known] invariants.  Returns the proved candidates in input order, and
    exactly {!prove}'s proved set when the cache is empty.

    Fresh verdicts are recorded in [cache] only when the run completed
    cleanly (no budget/deadline exhaustion); the caller is responsible
    for {!Proof_cache.flush}.

    [attributions], when given, receives one {!verdict} per input
    candidate: cache hits as [V_cached], fresh candidates with their
    {!prove} fate.

    [jobs] and [sieve] are ignored: nothing reads them.  They are kept
    only so that callers written for the (since removed) fork pool and
    simulation-signature sieve still compile. *)
