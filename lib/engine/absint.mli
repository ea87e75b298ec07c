(** Abstract interpretation over the sequential netlist — the dataflow
    engine behind the lint rules [ternary-const], [absint-stuck-reg]
    and [absint-dead-write].

    The domain is per-net ternary values (the {!Ternary} lattice,
    generalised from its one-shot use).  The interpreter runs the
    per-cell ternary transfer functions to a fixpoint over register
    state, {e conditioned on the environment assumption}: at every step
    the abstract state is refined by forward re-evaluation and backward
    per-cell constraint propagation under [assume = 1], which is what
    lets it see facts plain ternary reachability cannot (instruction
    bits forced by the monitor, rename-table valid bits that only stay
    down because the assumption holds on every cycle).

    Soundness argument, in one paragraph: the per-net value array is a
    cube over-approximating the set of states reachable when the
    assumption holds at every cycle.  The transfer functions
    over-approximate concrete cell evaluation; backward conditioning
    only forces a net when {e every} completion of the unknown inputs
    that satisfies the required output agrees, and the enumerated
    completion set itself over-approximates the concrete one (cartesian
    abstraction), so a forced value holds in every concrete state of
    the cube satisfying the constraint.  Each per-bit state lattice has
    height 2, so the join-based widening terminates in at most
    [2 * flops] iterations.  A conditioning contradiction means no
    state in the cube satisfies the assumption; the engine then
    degrades to claiming nothing ({!contradiction}), which is
    conservative. *)

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

val stuck_registers : t -> (int * bool) list
(** Flop cell ids whose state never leaves the given value in any
    reachable assumed state — unreachable-FSM-state evidence for the
    lint pass. *)

val dead_writes : t -> (int * bool) list
(** Flop cell ids fed by a [Mux2] whose select is forced to the given
    constant: the other write arm is dead. *)
