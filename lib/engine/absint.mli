(** Abstract interpretation over the sequential netlist — the static
    prover tier.

    The domain is a product: per-net ternary values (the {!Ternary}
    lattice, generalised from its one-shot use), per-bus known-bits
    masks and unsigned intervals derived from them.  The interpreter
    runs the per-cell ternary transfer functions to a fixpoint over
    register state, {e conditioned on the environment assumption}: at
    every step the abstract state is refined by forward re-evaluation
    and backward per-cell constraint propagation under [assume = 1],
    which is what lets it see facts plain ternary reachability cannot
    (instruction bits forced by the monitor, rename-table valid bits
    that only stay down because the assumption holds on every cycle).

    Soundness argument, in one paragraph: the per-net value array is a
    cube over-approximating the set of states reachable when the
    assumption holds at every cycle — exactly the state space the
    inductive prover explores, which asserts [assume] at every frame.
    The transfer functions over-approximate concrete cell evaluation;
    backward conditioning only forces a net when {e every} completion
    of the unknown inputs that satisfies the required output agrees,
    and the enumerated completion set itself over-approximates the
    concrete one (cartesian abstraction), so a forced value holds in
    every concrete state of the cube satisfying the constraint.  Each
    per-bit state lattice has height 2, so the join-based widening
    terminates in at most [2 * flops] iterations.  A conditioning
    contradiction means no state in the cube satisfies the assumption;
    the engine then degrades to claiming nothing ({!contradiction}),
    which is conservative.

    Facts exported here feed the prover three ways: {!proves} backs the
    [V_static_proved] verdict (no SAT call), {!facts} become assumption
    clauses at every frame of the incremental solvers (strengthening
    k=1 induction), and {!facts_digest} salts proof-cache scopes and
    shard fingerprints so strengthened runs never share journal or
    cache entries with unstrengthened ones. *)

type word_fact = {
  w_base : string;  (** bus name, from ["base\[i\]"] net names *)
  w_width : int;
  w_known_mask : int64;  (** bit i set iff bit i has a definite value *)
  w_known_value : int64;  (** definite bits; zero where unknown *)
  w_lo : int64;  (** unsigned interval low end (unknown bits as 0) *)
  w_hi : int64;  (** unsigned interval high end (unknown bits as 1) *)
}

type t

val run :
  ?classify:(Netlist.Design.net -> Ternary.input_class) ->
  ?max_iterations:int ->
  assume:Netlist.Design.net ->
  Netlist.Design.t ->
  t
(** Run the interpreter to its fixpoint.  [classify] defaults to every
    primary input [Free]; environment structure is normally conveyed
    through [assume] (the monitor's output net) instead.  Every call
    adds 1 to the always-on {!Obs} counter [absint.runs].
    @raise Netlist.Topo.Combinational_cycle on cyclic designs.
    @raise Failure if the fixpoint does not converge within
    [max_iterations] (impossible at the default bound). *)

val iterations : t -> int
(** Sequential fixpoint iterations taken. *)

val contradiction : t -> bool
(** True when conditioning found the assumption unsatisfiable in the
    abstract cube.  All queries below then claim nothing. *)

val value : t -> Netlist.Design.net -> int
(** Post-fixpoint conditioned value of a net: [0], [1] or {!Ternary.x}. *)

val constants : t -> Candidate.t list
(** Nets forced constant in every reachable state satisfying the
    assumption, as candidates (rails and primary inputs excluded,
    matching {!Ternary.constants}). *)

val facts : t -> Candidate.t list
(** The strengthening set: invariants sound to assume at every frame of
    an inductive proof under the same [assume].  Currently
    [constants]. *)

val n_facts : t -> int

val proves : t -> Candidate.t -> bool
(** [true] iff the candidate's violation is impossible in the abstract
    post-fixpoint: constants by direct lookup, implications by
    conditioning the post-fixpoint cube on the antecedent. *)

val facts_digest : t -> string
(** Hex digest of the exported facts (and the contradiction flag) —
    the salt for proof-cache scopes and shard fingerprints. *)

val word_facts : t -> word_fact list
(** Known-bits masks and unsigned intervals for every named bus
    (["base\[i\]"] nets, input and output ports), widest buses first in
    name order.  Buses wider than 63 bits are skipped. *)

val stuck_registers : t -> (int * bool) list
(** Flop cell ids whose state never leaves the given value in any
    reachable assumed state — unreachable-FSM-state evidence for the
    lint pass. *)

val dead_writes : t -> (int * bool) list
(** Flop cell ids fed by a [Mux2] whose select is forced to the given
    constant: the other write arm is dead. *)
