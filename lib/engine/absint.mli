(** Ternary reachability over the sequential netlist — the dataflow
    engine behind the lint rules [ternary-const], [absint-stuck-reg]
    and [absint-dead-write].

    The domain is one {!Ternary} value (0, 1 or x) per net.  Flops
    start at their reset values and every primary input is x; the
    result is the least fixpoint that joins each flop's next value into
    its state.  A net still definite there holds that value in every
    reachable state, for every input sequence: the transfer functions
    over-approximate concrete cell evaluation and the join
    over-approximates the set of states a flop can take.

    {!run} reaches that fixpoint in one event-driven pass.  It
    evaluates the combinational cells once in topological order from
    the reset state, then drains a worklist of nets that have just
    turned x: popping a net re-evaluates the combinational cells that
    read it and turns x the state of each flop whose D pin it feeds.  A
    net only ever moves from 0/1 to x, so it is pushed at most once and
    the pass costs time linear in cells plus pins.  The step operator
    is monotone, so this chaotic iteration lands on the same least
    fixpoint as sweeping every cell once per register-depth step. *)

type t

val run : Netlist.Design.t -> t
(** Run the pass to its fixpoint.  Every call adds 1 to the always-on
    {!Obs} counter [absint.runs].
    @raise Netlist.Topo.Combinational_cycle on cyclic designs. *)

val value : t -> Netlist.Design.net -> int
(** Fixpoint value of a net: [0], [1] or {!Ternary.x}. *)

val constants : t -> Candidate.t list
(** Nets definite at the fixpoint, as candidates in net order (rails
    and primary inputs excluded). *)

val stuck_registers : t -> (int * bool) list
(** Flop cell ids whose state never leaves the given value in any
    reachable state — unreachable-FSM-state evidence for the lint
    pass. *)

val dead_writes : t -> (int * bool) list
(** Flop cell ids fed by a [Mux2] whose select is constant at the
    fixpoint: the other write arm is dead. *)
