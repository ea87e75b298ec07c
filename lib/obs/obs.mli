(** Observability: tracing spans, named counters and a monotonic clock
    for the whole PDAT stack.

    The layer has two halves with different costs:

    - {b counters} are always on.  Every [add] updates one hash-table
      cell; instrumentation points (SAT calls, simulated cycles, cache
      probes) batch their updates so the overhead stays far below the
      work being counted.
    - {b spans} are recorded only while tracing is {!enable}d.  A span
      is a named interval on the monotonic clock; at exit it
      automatically attaches the delta of every counter that moved
      while it was open, so a ["prove"] stage span carries the SAT
      conflicts/decisions/propagations and cache hits it caused.

    Recorded events serialize as Chrome trace-event JSON (load the file
    in [chrome://tracing] / Perfetto), the layer's one sink. *)

module Clock : sig
  val now_s : unit -> float
  (** Monotonic seconds since process start.  Built
      on [Unix.gettimeofday] guarded against clock steps: a backwards
      step contributes zero elapsed time instead of a negative one, and
      an implausibly large forward step (> 1 h between two observations
      of a busy process) is dropped rather than billed to whatever span
      was open.  All deadline arithmetic in the repo is on this scale:
      a deadline is [now_s () +. budget], never a wall-clock date, so
      an NTP correction can neither fire a budget early nor park it in
      the future. *)

  val wall_s : unit -> float
  (** [Unix.gettimeofday], for timestamps that must mean calendar time.
      Never used for deadlines. *)
end

module Hw : sig
  val online_cores : unit -> int
  (** [Domain.recommended_domain_count ()]: the CPUs in the process's
      affinity mask (so [taskset -c 0] reads 1), at least 1 and at most
      the runtime's domain limit (128). *)
end

(** {1 Counters} *)

val add : string -> float -> unit
(** [add name v] accumulates [v] into the named counter.  Always on. *)

val add_int : string -> int -> unit

val counters : unit -> (string * float) list
(** Current cumulative counter values, sorted by name. *)

val counters_delta : since:(string * float) list -> (string * float) list
(** Counters that moved since a previous {!counters} snapshot, with
    their deltas. *)

(** {1 Histograms}

    Named sample distributions, always on like counters: {!observe} is
    one dynamic-array push.  Percentiles are computed on demand
    (nearest-rank over the retained samples).  Each distribution
    retains at most 65 536 samples; past that, new observations
    overwrite deterministically-chosen slots (a fixed-seed reservoir),
    so [count] keeps counting every observation while memory stays
    bounded.  {!reset} clears distributions along with counters. *)

val observe : string -> float -> unit
(** [observe name v] records one sample into the named distribution. *)

type histogram = {
  count : int;    (** observations ever, including overwritten ones *)
  sum : float;    (** over the retained samples *)
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p95 : float;
}

val histogram : string -> histogram option
(** [None] if the distribution has no samples. *)

val histograms : unit -> (string * histogram) list
(** All non-empty distributions, sorted by name. *)

(** {1 Spans and events} *)

type arg = Int of int | Float of float | Str of string | Bool of bool

type phase = Complete | Counter

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_us : float;   (** start time, µs on the {!Clock.now_s} scale *)
  dur_us : float;  (** [Complete] spans only *)
  pid : int;       (** recording process *)
  args : (string * arg) list;
}

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Clear recorded events, counters and histograms, and re-read the
    pid. *)

val with_span :
  ?cat:string -> ?args:(unit -> (string * arg) list) -> string ->
  (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span (recorded only when
    enabled).  [args] is evaluated at span exit — it may read state [f]
    produced.  Counter deltas are attached automatically.  The span is
    closed (and recorded) even when [f] raises. *)

val with_span_timed :
  ?cat:string -> ?args:(unit -> (string * arg) list) -> string ->
  (unit -> 'a) -> 'a * float
(** Like {!with_span} but additionally returns the wall-clock duration
    in seconds, measured on {!Clock.now_s} whether or not tracing is
    enabled — the pipeline's per-stage timing is this value. *)

val drain : unit -> event list
(** All recorded events in chronological order; clears the buffer. *)

val counter_events : unit -> event list
(** Final totals, timestamped now — append to a drained event list so
    they close the trace.  One [Counter] event per current counter
    (arg [value]), then one per non-empty histogram (args [count],
    [p50], [p90], [p95], [max]; category ["histogram"]). *)

(** {1 Sink} *)

val json_string : string -> string
(** [s] as a double-quoted JSON string.  A quote, a backslash or a
    newline is written as its two-character backslash escape, every
    other control character as [\u00XX].  The one string writer behind
    the trace, the run reports and the run journal. *)

type sink = Chrome of string

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path contents] writes through a pid-unique
    sibling tmp file and renames it into place — the same discipline as
    [Proof_cache]'s flush, so an interrupted writer can never leave a
    torn file.  Raises as [open_out]/[Sys.rename] do. *)

val write_sink : sink -> event list -> unit
(** Write (creating/overwriting) the sink's file as Chrome trace-event
    JSON ([{"traceEvents": [...]}]), through {!write_file_atomic}. *)
