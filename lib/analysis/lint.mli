(** Netlist lint — structural and dataflow checks over one shared
    per-call context.

    The commercial flow the paper assumes (Design Compiler in, Questa
    alongside) rejects malformed structure before any proof runs; this
    module is our equivalent.  {!run} builds one {!ctx} per call and
    every rule reads it to emit located diagnostics ({!Diag.t}).
    Nothing is memoised across calls: a {!Netlist.Design.t} is mutable,
    so linting the same value twice lints it afresh.  Rules never raise
    on degenerate inputs (empty design, self-loop registers, cyclic
    combinational logic): {!run} checks basic well-formedness first and
    stops there if net references are out of range, so every later rule
    can index arrays safely.

    Severity convention: structural soundness violations (multi-driven
    nets, combinational cycles, floating inputs, undriven outputs,
    malformed cells) are [Error]; suspicious-but-executable shapes
    (unreachable cells, constant-feedback registers, bus index gaps)
    are [Warning]; the dataflow rules share the one {!Engine.Absint}
    ternary-reachability fixpoint of the context, with every input x
    and every register at its reset value: [ternary-const] ([Info])
    flags nets the fixpoint forces to a constant, i.e. dead candidates
    the miner should skip; [absint-stuck-reg] ([Warning]) flags
    registers that never leave their reset value —
    unreachable-FSM-state evidence; [absint-dead-write] ([Info]) flags
    register write muxes whose select is constant in the fixpoint,
    leaving one write arm dead. *)

type gate = Off | Warn | Strict
(** How a pipeline stage consumes lint results: [Off] skips the
    analysis, [Warn] records diagnostics in the report, [Strict]
    additionally fails on any [Error]-severity finding. *)

val gate_name : gate -> string

type ctx
(** What every rule of one {!run} reads: the design, its driver lists
    and primary-input mask (recomputed from the cell array, not taken
    from the store's driver index, so they stay honest on netlists
    built with {!Netlist.Design.unsafe_add_cell_out}), and the abstract
    fixpoint, forced on first use by a dataflow rule.  Built only after
    {!well_formed} returned [], and dropped when {!run} returns. *)

type rule = {
  id : string;
  severity : Diag.severity;  (** Highest severity the rule can emit. *)
  doc : string;
  check : ctx -> Diag.t list;
      (** Reads the design and its derived structure from the
          per-call context, never recomputing them. *)
}

val well_formed : Netlist.Design.t -> Diag.t list
(** Net-range and arity checks ([net-out-of-range], [bad-arity]) that
    every other rule's array indexing depends on.  Always safe to call. *)

val structural_rules : rule list
(** Every rule except the absint-backed dataflow rules ([ternary-const],
    [absint-stuck-reg], [absint-dead-write]) — the set the certificate
    audit diffs pre/post rewiring. *)

val all_rules : rule list

val run : ?rules:rule list -> Netlist.Design.t -> Diag.t list
(** [run d] = {!well_formed} findings if any, else the concatenation of
    each rule's findings (default {!all_rules}), in rule order, all read
    from one fresh {!ctx}: at most one {!Engine.Absint.run} per call,
    none unless a dataflow rule is in [rules]. *)
