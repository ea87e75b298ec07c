(** Seedable fault injection at the pipeline's stage boundaries.

    Each fault class corrupts the flow at exactly one hand-off point —
    a proved invariant flipped before rewiring, a false invariant
    smuggled into the proved set, one rewired pin tied to the wrong
    rail, one resynthesized cell's function perturbed — so tests (and
    [pdat reduce --inject]) can assert that the differential validator
    catches every class.  Injectors only pick corruption sites inside
    the output cone; a fault nothing can observe would be a vacuous
    test of the validator.

    All injectors are pure: they return corrupted copies and leave
    their inputs untouched.  [None] means the fault class is not
    applicable to the given data (e.g. no proved constant to flip). *)

type kind =
  | Flip_constant    (** invert the polarity of one proved [Const] *)
  | Bogus_invariant  (** add a false [Const] claim on a flip-flop output *)
  | Miswire          (** flip one rail-redirected pin of the rewired netlist *)
  | Perturb_cell     (** complement one resynthesized cell's function *)

type t = {
  kind : kind;
  seed : int;  (** selects among eligible corruption sites *)
}

val all : kind list

val name : kind -> string
val of_name : string -> kind option
(** ["flip-constant"], ["bogus-invariant"], ["miswire"],
    ["perturb-cell"] (underscores also accepted). *)

(** {1 Structural faults}

    Where the four stage faults corrupt pipeline {e data}, structural
    faults corrupt the {e netlist shape} itself — the malformations
    the lint rules exist to reject. *)

type structural =
  | Multi_driven     (** add a second driver onto an internal net *)
  | Comb_cycle       (** feed a combinational cell its own output *)
  | Undriven_input   (** feed a cell pin from a fresh floating net *)

type seeded = {
  seeded : Netlist.Design.t;  (** corrupted copy; the input is untouched *)
  rule : string;  (** lint rule id expected to fire, e.g. ["multi-driven"] *)
  net : Netlist.Design.net option;  (** expected diagnostic net, if any *)
  cell : int option;  (** expected diagnostic cell, if any *)
  description : string;
}

val structural_all : structural list
val structural_name : structural -> string

val seed_structural :
  structural -> seed:int -> Netlist.Design.t -> seeded option
(** [None] when the design has no eligible site (e.g. no internal
    cells).  The seeded fault is always observable by the lint rules:
    tests assert that [Analysis.Lint.run] reports [rule] at [net]/[cell]. *)

val corrupt_proved :
  t ->
  design:Netlist.Design.t ->
  Engine.Candidate.t list ->
  (Engine.Candidate.t list * string) option
(** [Flip_constant] / [Bogus_invariant]: corrupts the proved set before
    rewiring.  The string describes the corruption.  [None] for the
    other kinds, or when no eligible site exists. *)

val corrupt_rewired :
  t ->
  original:Netlist.Design.t ->
  rewired:Netlist.Design.t ->
  (Netlist.Design.t * string) option
(** [Miswire]: finds a pin the rewiring stage redirected to a constant
    rail (by diffing against [original] — rewiring preserves cell ids)
    and ties it to the opposite rail. *)

val corrupt_reduced :
  t -> reduced:Netlist.Design.t -> (Netlist.Design.t * string) option
(** [Perturb_cell]: replaces one cell with its complement
    (AND2→NAND2, XOR2→XNOR2, BUF→INV, ...) or flips a flip-flop's
    reset value, preferring cells that drive primary outputs. *)
