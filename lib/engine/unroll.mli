(** Time-frame expansion of a synchronous design into CNF, restricted
    to the sequential cone of influence of a set of root nets.

    [create ~roots ~frames] encodes frames [0..frames-1] at once.  The
    last frame holds the combinational fan-in of the roots; every
    earlier frame [f] holds the fan-in of the roots plus the D nets of
    the flip-flops frame [f+1] holds.  Each frame's cone therefore
    contains the next one's.  Logic no root can observe within the
    unrolled window costs no variable or clause, so a check sized by
    its candidates pays only for what they can reach.

    Inside the cone, frame 0 flip-flop outputs are either the reset
    constants ([`Reset], every flip-flop, since constants are free) or
    fresh variables ([`Free], for induction steps); in later frames
    each flip-flop output aliases the previous frame's literal of its D
    net.  Primary inputs and undriven nets are fresh variables per
    frame: an undriven net is unconstrained, not a constant.

    Gates are built from hashed, constant-folding two-input AND, OR,
    XOR and MUX constructors; 3- and 4-input and AOI/OAI cells
    decompose into them.  A gate whose inputs fold (a tie cell or
    reset constant, [x∧x], [x∧¬x], an XOR with a constant, a mux with
    a constant select or with equal, complementary or constant data)
    takes an existing literal, and a gate with the operator and inputs
    of one already encoded in this unrolling, any frame, takes that
    gate's variable.  A net's literal may therefore be shared with
    other nets, complemented, or the constant {!lit_true} or its
    negation; buffers and inverters alias literals as before.  Every
    literal still equals its net's value in every model.  New
    variables are numbered in topological order, frame by frame, and
    each takes its gate's polarity (an OR gate gets an OR variable; an
    XOR variable is the XOR of its inputs' variables, their signs on
    the output literal): the solver decides variables newest first and
    true.  A net with several drivers, which
    {!Netlist.Design.validate} rejects, is encoded from one of them.

    A net outside a frame's cone has no literal: {!lit} raises, and
    {!value} reads it as false from the model. *)

type t

val create :
  ?pi_lit:(frame:int -> string -> Sat.Lit.t option) ->
  Sat.Solver.t -> Netlist.Design.t -> init:[ `Reset | `Free ] ->
  roots:Netlist.Design.net list -> frames:int -> t
(** [pi_lit] lets the caller supply the literal for a primary input by
    name — how two designs unrolled into one solver share their
    stimulus (miter construction).  It is asked only for inputs inside
    the cone.  Passing every net as a root encodes the whole design.
    @raise Netlist.Topo.Combinational_cycle on a combinational loop. *)

val lit : t -> frame:int -> Netlist.Design.net -> Sat.Lit.t
(** Literal of a net in a frame.  @raise Invalid_argument on an
    unknown frame or a net outside that frame's cone. *)

val value : t -> frame:int -> Netlist.Design.net -> bool
(** The net's value in the solver's current model; false for a net
    outside the frame's cone.  @raise Invalid_argument on an unknown
    frame. *)

val lit_true : t -> Sat.Lit.t
(** The always-true literal of this instance. *)

val solver : t -> Sat.Solver.t
