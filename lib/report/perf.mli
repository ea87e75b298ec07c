(** The [pdat perf] comparison engine: diff two schema-versioned
    [BENCH_*.json] envelopes and gate on noise-aware thresholds.

    A metric gates (can fail the comparison) iff it is a wall-clock
    scalar (name ending in [_s]).  A gated metric regresses when its
    increase exceeds {e both} the relative tolerance and the absolute
    floor — the two-condition rule keeps micro-noise on millisecond
    numbers from tripping the gate while still catching a 20% slide
    on a seconds-scale stage timing.  Counters and derived ratios
    (SAT-call counts, speedups) are reported as informational deltas
    only.

    Everything here is byte-deterministic for fixed inputs: fields
    are sorted by name, floats render with a fixed format, and no
    wall clock is consulted — the golden tests diff the markdown
    table verbatim. *)

exception Perf_error of string
(** Unreadable file, malformed JSON, missing or mismatched
    [schema_version], or mismatched [target].  The CLI maps this to
    exit code 2 (vs 1 for a genuine regression). *)

type bench = {
  b_path : string;
  b_schema : int;
  b_target : string;   (** [""] when the envelope has no [target] field *)
  b_fields : (string * float) list;  (** numeric scalars, sorted by name *)
}

val load : string -> bench
(** Parse one BENCH envelope.  Raises {!Perf_error} if the file is
    unreadable, is not a JSON object, or lacks a numeric
    [schema_version] — old-schema files must be regenerated, not
    silently compared. *)

type thresholds = {
  rel_tol : float;        (** relative increase tolerated on gated metrics *)
  abs_floor_s : float;    (** timings below this absolute delta never gate *)
}

val default_thresholds : thresholds
(** [{ rel_tol = 0.15; abs_floor_s = 0.05 }] *)

type delta = {
  d_metric : string;
  d_base : float;
  d_cur : float;
  d_gated : bool;      (** this metric can fail the gate *)
  d_regression : bool;
}

val compare_benches : ?thresholds:thresholds -> base:bench -> bench -> delta list
(** Deltas for every metric present in {e both} envelopes (metrics only
    one side has are skipped — schema growth must not fail old
    baselines), sorted by name.
    Raises {!Perf_error} on [schema_version] or [target] mismatch. *)

val regressions : delta list -> delta list
(** The gated rows that regressed; [[]] means the gate passes. *)

val markdown_table :
  ?thresholds:thresholds -> base:bench -> bench -> delta list -> string
(** The human/CI-artifact rendering: a markdown table of every delta
    with its gate verdict, headed by the file pair and the thresholds
    in force, trailed by the regression count. *)
