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
    in [chrome://tracing] / Perfetto) or as JSONL.  Events are plain
    marshalable values: a forked worker records its own events and
    ships them back through its result pipe, and the parent {!inject}s
    them into the session, so workers appear as spans under their own
    pid next to the coordinator's stages. *)

module Clock : sig
  val now_s : unit -> float
  (** Monotonic seconds since process start (shared with forked
      children, so parent and child timestamps are comparable).  Built
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
  (** Detected online CPU count: [getconf _NPROCESSORS_ONLN], falling
      back to counting [processor] lines in [/proc/cpuinfo], falling
      back to 1.  Cached after the first call.  The [PDAT_FORCE_CORES]
      environment variable overrides the detection (checked on every
      call; intended for tests that need a deterministic clamp). *)
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

val merge_counters : (string * float) list -> unit
(** Accumulate another process' counter deltas (e.g. a worker's) into
    this process' counters. *)

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

val histogram_samples : unit -> (string * float array) list
(** Raw retained samples, sorted by name — how a forked worker ships
    its distributions back to the coordinator. *)

val merge_histogram_samples : (string * float array) list -> unit
(** Re-observe another process' samples into this process. *)

(** {1 Cost attribution}

    Per-candidate cost rows: wall time, SAT calls and conflicts, billed
    to whatever key is in dynamic scope when the SAT layer reports a
    solve.  Keys are {!Engine.Candidate} keys; aggregate
    (multi-candidate) solver calls are billed to ["(...)"]-bracketed
    bucket keys, which {!Attr.top} excludes.  Like counters, the table
    is fork-aware: a worker {!reset}s, tags its shard with
    {!Attr.set_shard}, and ships {!Attr.export} home through its result
    pipe, where the coordinator {!Attr.merge}s it exactly once — a
    killed worker's rows die with the worker. *)

module Attr : sig
  type row = {
    a_key : string;       (** candidate key, or a ["(...)"] bucket *)
    a_shard : int option; (** worker index that paid the cost, if any *)
    a_wall_s : float;     (** solver wall time billed to this key *)
    a_sat_calls : int;
    a_conflicts : int;
    a_static : bool;      (** discharged by the abstract-interpretation
                              tier without SAT *)
  }

  val set_shard : int option -> unit
  (** Tag subsequently created rows with this worker index. *)

  val with_key : string -> (unit -> 'a) -> 'a
  (** [with_key k f] bills every {!charge_call} during [f] to [k].
      Nests; restored on exit even when [f] raises. *)

  val charge_call : wall_s:float -> conflicts:int -> unit
  (** Bill one SAT call to the key in scope (no-op without one) — the
      call site is the solver's solve wrapper. *)

  val note_static : string -> unit
  (** Mark the key as discharged by the static tier. *)

  val export : unit -> row list
  (** All rows, sorted by key — the marshalable worker payload. *)

  val merge : row list -> unit
  (** Accumulate another process' rows: numeric fields sum, an existing
      shard tag wins over an incoming one. *)

  val delta : since:row list -> row list -> row list
  (** Rows of the second argument minus a prior {!export} snapshot;
      all-zero rows are dropped. *)

  val top : ?k:int -> row list -> row list
  (** Deterministic top-[k] (default 10) most expensive candidates:
      ranked by conflicts, then SAT calls, then key — wall time is
      deliberately not a ranking criterion, so the table is
      byte-reproducible across runs.  Bucket rows are excluded. *)
end

(** {1 Spans and events} *)

type arg = Int of int | Float of float | Str of string | Bool of bool

type phase = Complete | Instant | Counter

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
(** Clear recorded events and all counters, and re-read the pid.  A
    forked child must call this first so it records only its own work
    under its own pid. *)

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

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
(** Record a point event (when enabled). *)

val drain : unit -> event list
(** All recorded events in chronological order; clears the buffer. *)

val inject : event list -> unit
(** Append events recorded elsewhere (a worker's {!drain} shipped back
    over a pipe).  Dropped when tracing is disabled. *)

val counter_events : unit -> event list
(** One [Counter] event per current counter, timestamped now — append
    to a drained event list so the final totals appear in the trace. *)

(** {1 Sinks} *)

type sink = Chrome of string | Jsonl of string

val sink_of_path : string -> sink
(** [.jsonl] paths select {!Jsonl}, everything else {!Chrome}. *)

val write_chrome : out_channel -> event list -> unit
(** Chrome trace-event format: [{"traceEvents": [...]}]. *)

val write_jsonl : out_channel -> event list -> unit
(** One JSON event object per line. *)

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path contents] writes through a pid-unique
    sibling tmp file and renames it into place — the same discipline as
    [Proof_cache]'s flush, so an interrupted writer can never leave a
    torn file.  Raises as [open_out]/[Sys.rename] do. *)

val write_sink : sink -> event list -> unit
(** Write (creating/overwriting) the sink's file.  Atomic: the file is
    staged as a pid-unique tmp and renamed into place. *)

(** {1 Structured run log}

    Leveled JSONL events ([{"ts":..,"level":..,"event":..,...}]) on an
    [O_APPEND] descriptor, one [Unix.write] per line — whole lines
    interleave rather than tear, so forked workers may share the fd.
    Inactive (every call a no-op) until {!Log.set} opens a file. *)

module Log : sig
  type level = Debug | Info | Warn | Error

  val level_of_string : string -> level option
  (** ["debug"]/["info"]/["warn"]/["error"], case-insensitive. *)

  val set : ?level:level -> string -> unit
  (** Open (append) the log file and set the minimum level (default
      [Info]).  Replaces any previously open log. *)

  val close : unit -> unit
  val active : unit -> bool

  val event :
    ?level:level -> ?stage:string -> ?shard:int ->
    ?kv:(string * arg) list -> string -> unit
  (** Emit one event line: [ts] (wall clock), [level], [event] name,
      optional [stage]/[shard], then the [kv] pairs.  Dropped when no
      log is open or the level is below the threshold. *)
end

(** {1 OpenMetrics exposition} *)

val openmetrics : unit -> string
(** The current counters and histograms in Prometheus/OpenMetrics text
    format: each counter as [pdat_<name>_total], each histogram with
    cumulative buckets over a fixed le-ladder
    (1e-5 … 10, +Inf) plus [_sum]/[_count], terminated by [# EOF].
    Histogram [_count]/[_sum] cover the retained reservoir samples.
    Byte-deterministic for a fixed recorder state: names sanitized
    ([^a-zA-Z0-9_] → [_]) and emitted in sorted order. *)
