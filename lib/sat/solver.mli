(** CDCL SAT solver with two-watched-literal propagation, 1-UIP
    learning, VSIDS branching, Luby restarts and activity-based
    learned-clause reduction.

    The VSIDS heap holds only variables that conflict analysis has
    bumped; the rest are decided newest first, highest index down.
    Every decision sets its pick to [true]; no phase is saved.  A model
    therefore drives every variable the clauses leave free to [true],
    which is what the prover wants of a counterexample: the candidates
    that die are almost all stuck-at-0 constants and implications, and
    a model breaks those by driving nets to 1.

    The solver is incremental: clauses may be added between [solve]
    calls, and each call may carry assumption literals.  A conflict
    budget turns the solver into a semi-decision procedure — exactly
    what the PDAT property-checking stage needs, where "unknown" just
    means an optimization is skipped.

    The kernel is flat, so propagation allocates nothing:
    - every clause lives in one int arena as a header word, an aux word
      (a learnt clause's activity, or the selector a guarded clause was
      added under) and its literals; a problem clause longer than eight
      literals also keeps a cursor, so the search for a new watch
      resumes where it last succeeded instead of rescanning;
    - a watcher is a (clause offset, blocker literal) pair, and a true
      blocker skips the clause without reading the arena; a binary
      clause's blocker is its other literal, so it propagates from the
      watcher alone;
    - reasons are clause offsets in an int array, and analysis works in
      preallocated int buffers;
    - {!retire} only adds its [¬guard] unit and counts the group dead:
      binary watchers never read the arena, so a retired binary clause
      stays inert because that unit satisfies it at level 0.  Dead
      clauses are reclaimed by compaction at decision level 0 once they
      fill half the arena. *)

type t

type result =
  | Sat
  | Unsat
  | Unknown  (** conflict budget or wall-clock deadline exhausted *)

val create : unit -> t

val new_var : t -> int

val num_vars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Clauses over undeclared variables raise [Invalid_argument].
    Adding a clause that is falsified at level 0 marks the instance
    unsatisfiable. *)

val solve :
  ?assumptions:Lit.t list -> ?conflict_budget:int -> ?deadline:float -> t ->
  result
(** [conflict_budget < 0] (default) means no budget.  [deadline] is an
    absolute time on the monotonic [Obs.Clock.now_s] scale (i.e.
    [Obs.Clock.now_s () +. budget]; an NTP step cannot fire or defer
    it); the check runs once per conflict, so a call returns [Unknown]
    at the first conflict past the deadline (or immediately if already
    past).  A timed-out call leaves the solver fully usable, exactly
    like an exhausted conflict budget.

    Every call also feeds the [sat.calls] / [sat.conflicts] /
    [sat.decisions] / [sat.propagations] counters in {!Obs}, so any
    enclosing trace span carries the SAT work it caused, and records
    its wall-clock latency into the [sat.call_s] {!Obs} distribution
    (p50/p95 of it surface in bench JSON and run reports).  Nothing
    else moves those counters, so their delta over an interval is the
    SAT work done in it. *)

val new_selector : t -> Lit.t
(** A fresh {e selector} (activation) literal for incremental clause
    groups.  Clauses added under it with {!add_guarded} hold only in
    [solve] calls that assume the selector true; the whole group is
    permanently removed with {!retire}.  A selector is an ordinary
    variable and may appear in assumptions like any other literal. *)

val add_guarded : t -> guard:Lit.t -> Lit.t list -> unit
(** [add_guarded s ~guard lits] adds the clause [¬guard ∨ lits] and
    registers it under [guard]'s variable for {!retire}.  [guard]
    should be a literal from {!new_selector}; guarding on a literal
    that also receives ordinary clauses is allowed but then [retire]
    deletes only the registered clauses. *)

val retire : t -> Lit.t -> unit
(** Permanently deactivates a selector: adds the unit clause
    [¬guard], so learned clauses mentioning the selector become
    vacuous, and deletes every clause registered under it: they leave
    {!num_clauses} at once and their arena space is reclaimed by the
    next compaction (they can never propagate again, so deletion is
    sound).  Must be called between [solve] calls (decision level 0).
    Retiring twice, or retiring a selector with no registered clauses,
    is a no-op beyond the unit. *)

val value : t -> int -> bool
(** Model value of a variable after {!solve} returned [Sat].  Free
    variables read [true], because every decision is positive; a
    variable created after the last [Sat] answer has no model value
    and reads [false]. *)

val lit_value : t -> Lit.t -> bool

val num_conflicts : t -> int
(** Total conflicts across all [solve] calls, for budget accounting. *)

val num_clauses : t -> int
