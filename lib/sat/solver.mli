(** CDCL SAT solver with two-watched-literal propagation, 1-UIP
    learning, VSIDS branching with phase saving, Luby restarts and
    activity-based learned-clause reduction.

    The solver is incremental: clauses may be added between [solve]
    calls, and each call may carry assumption literals.  A conflict
    budget turns the solver into a semi-decision procedure — exactly
    what the PDAT property-checking stage needs, where "unknown" just
    means an optimization is skipped. *)

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
    (p50/p95 of it surface in bench JSON and run reports). *)

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
    vacuous, and physically deletes every clause registered under it
    (they can never propagate again, so deletion is sound).  Must be
    called between [solve] calls (decision level 0).  Retiring twice,
    or retiring a selector with no registered clauses, is a no-op
    beyond the unit. *)

val value : t -> int -> bool
(** Model value of a variable after {!solve} returned [Sat].
    Unconstrained variables read as [false]. *)

val lit_value : t -> Lit.t -> bool

val num_conflicts : t -> int
(** Total conflicts across all [solve] calls, for budget accounting. *)

type snapshot = {
  vars : int;
  clauses : int;  (** problem clauses *)
  learnts : int;  (** currently retained learned clauses *)
  conflicts : int;
  decisions : int;
  propagations : int;
}

val snapshot : t -> snapshot
(** A cheap copy of the cumulative search counters.  Used by the
    parallel proof engine: each forked worker snapshots its solvers and
    ships the counters back to the coordinator, which aggregates them
    into the per-shard statistics. *)

val num_clauses : t -> int

val set_seed : t -> int -> unit
(** Seeds the (rare) random branching decisions; default 91648253. *)
