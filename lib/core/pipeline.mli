(** The PDAT pipeline (paper Figure 2): Property Checking, Netlist
    Rewiring, Logic Resynthesis — plus the guard layer around them.

    [run] takes the design to be reduced and an {!Environment} built
    over it, mines property-library candidates on the environment's
    model, proves them by mutual k-induction, rewires the original
    netlist with the survivors, and resynthesizes.  The baseline
    against which the paper reports area/gate deltas is the original
    design pushed through the same resynthesis flow with no PDAT
    transformation ({!baseline}).

    The guard layer adds:
    - {b differential validation} ([~validate:true]): the reduced
      design is co-simulated lock-step against the raw original under
      environment-constrained stimuli ({!Validate.run}); on any
      mismatch the pipeline returns the baseline design instead of the
      reduction, recording the reason — [run ~validate] never returns
      an unvalidated reduction;
    - {b deadlines} ([~time_budget]): a wall-clock budget split across
      the budgeted stages in proportion to fixed weights, each stage's
      measured mean share of the run (mine 21.6, refine 44.4, prove
      20.6, validate 5.9 — the validate weight only counts when
      validation is on).  Each stage claims its share of the
      budget {e remaining at its start}, so a stage finishing early
      donates its slack to every later stage, and with validation off
      the proof stage absorbs the validator's share instead of
      forfeiting it.  Every stage degrades gracefully — truncated
      mining and an out-of-time prover only drop candidates, which is
      conservative;
    - {b fault injection} ([~inject]): corrupts one stage hand-off so
      the validator's catch rate can be tested;
    - {b static analysis} ([~lint]): the input netlist is linted
      ({!Analysis.Lint}) and the rewiring stage emits a certificate
      that is audited against the genuinely proved invariant set
      ({!Analysis.Audit}).  [Warn] and [Strict] both fall back to
      {!baseline} on an audit rejection, so a netlist the proofs do
      not certify never ships.  [Warn] records the input findings in
      the report; [Strict] also raises {!Rejected} on an
      Error-severity input finding.  Basic
      well-formedness (net ranges, arities) is checked even with the
      gate [Off], so a malformed input always surfaces as a located
      {!Rejected}, never as a bare exception from deep inside a
      stage. *)

exception Rejected of Analysis.Diag.t list
(** The input netlist was refused by the static gate.  The payload is
    never empty and every diagnostic is located (rule id plus
    net/cell/port).  A printer is registered with [Printexc]. *)

type resume_info = {
  journal_path : string;  (** [<run_dir>/journal.jsonl] *)
  resumed : bool;         (** this run replayed a prior journal *)
  resumed_stages : string list;
      (** stages whose results were replayed instead of recomputed *)
  journal_dropped_lines : int;
      (** torn/corrupt journal tail lines truncated during replay *)
}

type report = {
  variant : string;
  mined : int;
  proved : int;
  induction : Engine.Induction.stats;
  before : Netlist.Stats.t;   (** baseline-optimized original *)
  after : Netlist.Stats.t;    (** the design actually returned *)
  seconds : float;
  stage_seconds : (string * float) list;
      (** wall-clock per stage, in execution order: ["mine"],
          ["refine"], ["prove"], ["rewire"], ["resynth"], ["baseline"],
          and ["validate"] when enabled *)
  proof_budget_s : float;
      (** wall-clock granted to the proof stage by the budget allocator;
          [0.] when the run had no [~time_budget] *)
  validation : Validate.outcome option;
      (** [None] unless [~validate:true] was passed *)
  validated : bool;
      (** the returned design passed differential validation *)
  fallback_reason : string option;
      (** when set, [reduced] is the baseline design, not a reduction *)
  injected_fault : string option;
      (** description of the applied fault, in self-test mode *)
  lint_gate : Analysis.Lint.gate;  (** the [~lint] setting of the run *)
  input_lint : Analysis.Diag.t list;
      (** input-netlist lint findings; [[]] when the gate is [Off] *)
  certificate_edits : int;
      (** number of certified edits the rewiring stage performed *)
  audit : Analysis.Diag.t list;
      (** certificate-audit findings; [[]] = accepted (or gate [Off]) *)
  resume : resume_info option;
      (** journal/resume provenance; [None] unless [?run_dir] was given *)
}

type result = {
  reduced : Netlist.Design.t;
  report : report;
}

val baseline : Netlist.Design.t -> Netlist.Design.t * Netlist.Stats.t
(** Plain synthesis of the input, the paper's "Full" variant. *)

val max_cex_dumps : int
(** Cap on waveforms written per run by [?dump_cex] (records are
    visited in provenance-id order, so the sample is deterministic). *)

val run :
  ?rsim:Engine.Rsim.config ->
  ?refine:Engine.Rsim.config ->
  ?induction:Engine.Induction.options ->
  ?jobs:int ->
  ?cache:Engine.Proof_cache.t ->
  ?sieve:bool ->
  ?absint:bool ->
  ?validate:bool ->
  ?validate_config:Validate.config ->
  ?validate_stimulus:Engine.Stimulus.t ->
  ?time_budget:float ->
  ?lint:Analysis.Lint.gate ->
  ?inject:Faults.t ->
  ?provenance:Report.Provenance.t ->
  ?dump_cex:string ->
  ?trace:Obs.sink ->
  ?run_dir:string ->
  ?resume:bool ->
  design:Netlist.Design.t ->
  env:Environment.t ->
  unit ->
  result
(** [rsim] controls candidate mining, [refine] the long candidate-only
    simulation pass that weeds out false candidates before the prover
    (default: 4 runs of 2048 cycles).

    [cache], if given, settles previously-decided candidates without
    SAT and is flushed to disk (when disk-backed) right after the proof
    stage.

    [jobs], [sieve] and [absint] are ignored: nothing reads them.  They
    are kept only so that callers written for the (since removed) fork
    pool, simulation-signature sieve and abstract-interpretation prover
    tier still compile.

    [validate] (default [false]) enables differential validation; on a
    divergence or an uncomparable interface the result falls back to
    {!baseline} with [fallback_reason] set.  [validate_stimulus]
    overrides the validator's drive (needed for meaningful coverage
    with cutpoint environments, see {!Validate.run}).

    [time_budget] is a soft wall-clock budget in seconds for the whole
    run; stages check it at safe points, so the total can overshoot by
    one SAT call or simulation cycle.  A zero or negative budget is
    already spent: every budgeted stage degrades to its empty result
    immediately (uniform with {!Engine.Induction.options} and the raw
    solver's deadline).

    [run_dir], when given, makes the run {e journaled}: an append-only,
    checksummed [journal.jsonl] in that directory records the run's
    digest and each completed stage's surviving candidate keys as they
    happen (see {!Journal}).  [resume:true] replays that journal
    instead of starting cold — stages already journaled are not
    recomputed, and a torn tail from a crash is truncated away; raises
    {!Journal.Mismatch} if the journal belongs to a different
    netlist/environment.  The report's [resume] field records what was
    replayed.

    [lint] (default [Off]) is the static-analysis gate described above.

    [inject] corrupts one stage boundary (see {!Faults}); intended for
    validator self-tests only.

    [provenance], when given, is filled as the run progresses: every
    post-restrict mined candidate is registered and annotated with its
    mining round, refinement kill (with replayable counterexample),
    prover verdict/cache-hit, the rewire certificate with
    per-edit invariant citations and attributed dead cells, and the
    four design snapshots (original, rewired, reduced, baseline) —
    everything {!Report.Render} needs.  Audit diagnostics then cite
    provenance ids ([inv#N]).

    [dump_cex] names a directory (created if missing) into which the
    first {!max_cex_dumps} refuted candidates' counterexamples are
    written as [cex_inv<id>.vcd] waveforms, replayed from reset through
    the environment model with the candidate's nets included as extra
    signals.  [dump_cex] without [provenance] uses a private database
    internally, so the dump works on its own.

    [trace] writes an execution trace of the run to the given {!Obs}
    sink: one span per stage, each carrying the SAT/rsim/cache counters
    it moved (and, for a budgeted stage under [time_budget], the
    [alloc_s] seconds it was allotted at its start), with the prover's
    spans per tier and per SAT call inside ["prove"]
    ({!Engine.Induction.prove}), then the final counter totals and
    histogram summaries ({!Obs.counter_events}).
    The file loads directly in [chrome://tracing] / Perfetto.  When
    [trace] is absent, a non-empty [PDAT_TRACE] environment variable
    names the file.  Tracing state is restored (and the file written)
    even when the run raises.

    @raise Rejected on a malformed input netlist (always), or on any
    Error-severity input lint finding when [lint = Strict]. *)

val pp_report : Format.formatter -> report -> unit

val area_delta_pct : report -> float
(** Percent area reduction of [after] versus [before]. *)

val gate_delta_pct : report -> float
