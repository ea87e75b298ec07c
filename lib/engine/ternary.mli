(** Three-valued (0/1/X) reachability analysis — a cheap, complete-in-
    minutes alternative to SAT induction for *constant* invariants.

    Every primary input is classified as stuck-at-0, stuck-at-1 or free
    (X); flip-flops start at their reset values and the state lattice is
    iterated to a fixpoint, joining each flop's next value into its
    current one.  Any net still carrying a definite value at the
    fixpoint is constant on {e all} executions consistent with the
    input classes — a sound overapproximation (no candidate list, no
    counterexamples, but it misses everything that depends on input
    correlations, e.g. "these 32 bits always form a LUI or an ADD").

    PDAT uses it two ways: lint's dataflow engine ({!Absint}) runs on
    its lattice and per-cell transfer function ({!eval_cell}), and
    [bench lint] takes its {!constants} as a stand-in proved set for
    the certified-rewire audit. *)

type input_class = Zero | One | Free

val x : int
(** The unknown value.  Definite values are [0] and [1]; every other
    function in this interface speaks this three-point lattice. *)

val join : int -> int -> int
(** Lattice join: agreeing definite values stay, disagreement goes to
    [x]. *)

val eval_cell : Netlist.Cell.kind -> int array -> int
(** Ternary transfer function for one combinational cell, pessimistic
    but sound for every kind (an [x] input yields [x] output unless the
    definite inputs already decide the function).
    @raise Invalid_argument on [Dff] — sequential cells have no
    combinational transfer. *)

val constants :
  ?max_iterations:int ->
  Netlist.Design.t ->
  classify:(Netlist.Design.net -> input_class) ->
  Candidate.t list
(** Proved constant nets (excluding rails and primary inputs).
    [classify] is consulted for each primary input bit.
    @raise Failure if the fixpoint does not converge (cannot happen
    within [2 * flops + 2] iterations; the default bound is generous). *)
