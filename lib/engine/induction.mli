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
  conflicts : int;
  decisions : int;     (** SAT branch decisions, summed over solvers *)
  propagations : int;  (** unit propagations, summed over solvers *)
  rounds : int;
  budget_exhausted : bool;
  deadline_exceeded : bool;  (** the wall-clock budget cut the proof short *)
  workers : int;          (** shards of the parallel run (0 = ran serially) *)
  workers_failed : int;   (** failed worker attempts (each was retried
                              or fell back; no shard is ever dropped) *)
  worker_failures : (int * string) list;
      (** (shard index, reason) per failed attempt — a non-zero exit
          status, a fatal signal, a garbled result pipe and a watchdog
          kill are distinguished so the failure is diagnosable from
          stats alone *)
  worker_retries : int;   (** attempts relaunched after a failure *)
  worker_fallbacks : int; (** shards proved serially in-process after
                              exhausting their retries *)
  resumed_shards : int;   (** shards settled from a journal checkpoint
                              instead of being re-proved *)
  worker_times : (int * float * float) list;
      (** (worker index, wall seconds, CPU seconds) per surviving
          worker, measured inside the worker on the monotonic clock *)
  shard_sizes : int list; (** candidates per shard, parallel runs only *)
  cache_hits : int;       (** candidates resolved from the proof cache *)
  cache_misses : int;     (** candidates the cache had no verdict for *)
  worker_seconds : float; (** wall-clock of the fork/collect span *)
  n_static_proved : int;
      (** candidates discharged by the abstract-interpretation tier
          without any SAT call *)
  strengthening_facts : int;
      (** absint invariants outside the candidate set asserted at every
          frame of every solver (k=1 induction strengthening) *)
  top_costs : Obs.Attr.row list;
      (** deterministic top-K most expensive candidates of this run
          ({!Obs.Attr.top} over the run's attribution delta): ranked by
          conflicts, then SAT calls, then key — never by wall time, so
          for a fixed configuration (same jobs/absint) the table is
          byte-reproducible run to run.  Aggregate-round costs are
          shared equally among the candidates the round refuted; rows
          carry the shard that settled them *)
  worker_wall_max_s : float;
      (** slowest surviving worker's own wall clock (0 when serial) *)
  worker_wall_mean_s : float;  (** mean worker wall clock *)
  worker_idle_frac : float;
      (** 1 - mean/max: the fraction of the slowest worker's window the
          average worker spent idle — the shard load-balance gauge *)
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
          SAT call, an exhausted budget, a lost worker — the reason
          string says which *)
  | V_cached of Proof_cache.verdict  (** settled by the proof cache *)
  | V_static_proved
      (** discharged by the abstract-interpretation tier: the
          candidate's violation is impossible in the conditioned
          post-fixpoint, so it never touched SAT *)

val verdict_label : verdict -> string
(** Short stable tag ("proved", "refuted", ...) for reports. *)

val verdict_proves : verdict -> bool
(** Whether the verdict counts as a proof the rewiring stage may cite:
    [V_proved], [V_cached Proved] and [V_static_proved]. *)

type attribution = {
  verdict : verdict;
  shard : int option;
      (** worker index that decided it; [None] for cache hits, serial
          runs and join-round-only candidates *)
  cache_hit : bool;
}

val prove :
  ?options:options ->
  ?cex:Stimulus.t * int ->
  ?known:Candidate.t list ->
  ?hypotheses:Candidate.t list ->
  ?fates:(Candidate.t, verdict) Hashtbl.t ->
  assume:Netlist.Design.net ->
  Netlist.Design.t ->
  Candidate.t list ->
  Candidate.t list * stats
(** Returns the proved subset of the candidates.  [assume] is the
    environment-ok net, forced to 1 in every time frame (use
    {!Netlist.Design.net_true} for an unconstrained environment).

    [cex] = [(stimulus, cycles)] enables counterexample propagation:
    after each SAT kill, the model's state is replayed forward in the
    64-lane simulator for [cycles] cycles under the stimulus, evicting
    further candidates without SAT queries.  Conservative only — an
    eviction never makes the result unsound, it only skips an
    optimization.

    [known] are established invariants of the design under [assume]
    (e.g. from {!Proof_cache}); they are asserted at every frame of both
    the base and the step side, strengthening the induction for free.
    Soundness requires that they really are invariants.

    [hypotheses] are *unverified* co-candidates being proved elsewhere
    (other shards of a parallel run).  They are assumed only where the
    candidate set assumes its own members: frames [0..k-1] of the step
    side, never the base side.  Survivors of a run with hypotheses are
    only proved relative to them — {!prove_parallel}'s join round
    discharges that relativity.

    [fates], when given, is filled with one {!verdict} per candidate.
    Fate tracking costs nothing on the proof path except counterexample
    extraction at each base-side kill (one literal read per input per
    frame, while the SAT model is live). *)

val prove_snapshot :
  ?options:options ->
  ?known:Candidate.t list ->
  ?hypotheses:Candidate.t list ->
  assume:Netlist.Design.net ->
  Netlist.Design.t ->
  Candidate.t list ->
  Candidate.t list * stats
(** The pre-incremental snapshot/restore prover, kept as a
    differential-test oracle and bench baseline: every pass re-encodes
    the transition relation into fresh solvers and pays one solver
    round-trip per candidate per pass, so nothing — learned clauses,
    selectors — is reused between checks.  On complete runs
    (generous budgets, no [Unknown] drops) its proved set is the
    greatest mutual-induction fixpoint and must be byte-identical to
    {!prove}'s.  No counterexample propagation and no fates: this is a
    measurement and verification artifact, not a production path. *)

val shard_fingerprint : ?salt:string -> Candidate.t list -> string
(** Content digest of a shard's candidate set (order-independent, over
    {!Candidate.key}s).  This is the name under which the run journal
    checkpoints a shard's proved set, and the name a resumed run uses
    to recognize it.  [salt] — the absint facts digest on strengthened
    runs — keeps checkpoints written with different strengthening sets
    from resuming each other. *)

val prove_parallel :
  ?options:options ->
  ?cex:Stimulus.t * int ->
  ?jobs:int ->
  ?cache:Proof_cache.t ->
  ?absint:Absint.t ->
  ?attributions:(Candidate.t, attribution) Hashtbl.t ->
  ?retries:int ->
  ?checkpoint:(string -> Candidate.t list -> unit) ->
  ?recovered:(string * Candidate.t list) list ->
  ?sieve:bool ->
  assume:Netlist.Design.net ->
  Netlist.Design.t ->
  Candidate.t list ->
  Candidate.t list * stats
(** Sharded fork-based prover with worker supervision.  Returns exactly
    the proved set of the serial {!prove} (when neither is cut short by
    budgets):

    - when [absint] is given, its static tier runs first: candidates
      the abstract post-fixpoint already proves get [V_static_proved]
      and never touch SAT, the interpreter's remaining facts are
      asserted at every frame of every solver below (strengthening),
      and the facts digest salts both the cache scope and the shard
      fingerprints so strengthened runs share nothing with
      unstrengthened ones,
    - candidates with a cached verdict are settled up front; cached
      proofs join the run as [known] invariants,
    - the rest are partitioned by {!Shard.partition} and proved in
      [jobs] forked workers, each assuming the other shards' candidates
      as step-side [hypotheses] (workers run without [cex] so their
      kills are deterministic and exact),
    - worker result pipes are drained with [Unix.select] as data
      arrives, so a slow worker never blocks collection of the others,
    - every worker heartbeats once a second on a dedicated pipe; the
      coordinator SIGKILLs a worker that goes silent
      ([PDAT_STALL_TIMEOUT_S], default 30) or outlives a finite time
      budget past a grace period, and a worker past its own hard
      deadline exits 124 on its next alarm tick,
    - a worker that crashes, stalls, or writes a garbled result is
      retried up to [retries] times (default [PDAT_RETRIES] or 2) with
      exponential backoff (base [PDAT_RETRY_BACKOFF_S], default 0.1s);
      a shard that exhausts its retries is proved serially in-process —
      {e no shard is ever silently dropped},
    - one serial mutual-induction join round over the union of shard
      survivors restores the greatest fixpoint of the whole set.

    Workers over-assume, so the survivor union is a superset of the
    serial fixpoint; the greatest fixpoint of any superset of the
    fixpoint (within the original set) is that fixpoint, hence the join
    round's result equals the serial one.

    [sieve] is ignored: nothing reads it.  It is kept only so that
    callers written when it switched on the (since removed)
    simulation-signature sieve still compile.

    [checkpoint], when given, is called with
    ([{!shard_fingerprint} shard], proved set) each time a shard is
    settled by a worker or a fallback — the hook the run journal uses.
    [recovered] maps shard fingerprints to proved sets persisted by a
    prior run; a shard whose fingerprint matches skips its worker
    entirely (counted in [resumed_shards]) and feeds its recovered
    survivors straight to the join round, which is sound because the
    prior worker over-assumed exactly like a live one.

    Fresh verdicts are recorded in [cache] only when the run completed
    cleanly (no budget/deadline exhaustion — worker failures are fine,
    since supervision guarantees coverage); the caller is responsible
    for {!Proof_cache.flush}.  [jobs <= 1] (the default), a single
    shard, or a fully cache-resolved candidate list short-circuit to
    the serial path with no forking.

    [attributions], when given, receives one {!attribution} per input
    candidate: cache hits as [V_cached], fresh candidates with the
    verdict from the worker (or join round) that decided them tagged
    with the shard index, and a recovered shard's non-survivors as
    [V_dropped "resumed"].  Workers marshal their fates — including
    counterexamples — back through the result pipe, and their
    histogram samples (e.g. per-SAT-call latency) are merged into the
    coordinator's {!Obs} distributions either way. *)
