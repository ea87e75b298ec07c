(** Candidate mining by constrained random simulation.

    Runs the design from reset for a number of cycles across several
    runs, 64 lanes at a time, with inputs drawn from the stimulus.
    Whatever invariant is never violated becomes a candidate for the
    proof stage: constant nets, and per-gate input implications on
    AND/NAND/OR/NOR cells (the rewiring stage knows how to exploit
    exactly those). *)

type config = {
  cycles : int;   (** cycles per run *)
  runs : int;     (** independent runs from reset *)
  seed : int;
}

val default : config

val mine :
  ?config:config ->
  ?assume:Netlist.Design.net ->
  ?deadline:float ->
  ?attribution:(Candidate.t * int) list ref ->
  Netlist.Design.t ->
  Stimulus.t ->
  Candidate.t list
(** [assume] is the environment-ok net (data-dependent restrictions
    cannot always be generated constructively): a lane is observed
    only until the first cycle of its run where [assume] is 0, because
    from there on it runs from a state no environment trace reaches.
    Raises [Failure] only if no lane of any run met the assumption in
    its first cycle, so nothing was ever observed.  Candidates never
    mention the constant rails or primary inputs.

    [deadline] (absolute wall-clock time, checked each cycle) truncates
    the simulation: a shorter observation window only produces more
    false candidates for the prover to kill, never unsoundness.  If the
    deadline expires before any cycle was observed, the result is the
    empty candidate list rather than [Failure].

    [attribution], when given, is filled with one [(candidate, round)]
    pair per returned candidate: the 1-based simulation run that
    contributed the last new observation on the candidate's support
    nets — the mining round the provenance layer credits it to.  Costs
    one extra comparison per net per observed cycle; free when
    omitted. *)

type kill = {
  k_run : int;    (** 1-based run the violation occurred in *)
  k_cycle : int;  (** 1-based cycle within that run *)
  k_lane : int;   (** simulation lane that violated *)
  k_cex : Cex.t option;
      (** the violating lane's input trace from reset up to and
          including [k_cycle], replayable via {!Cex.replay} *)
}

val refine :
  ?config:config ->
  ?assume:Netlist.Design.net ->
  ?deadline:float ->
  ?kills:(Candidate.t * kill) list ref ->
  Netlist.Design.t ->
  Stimulus.t ->
  Candidate.t list ->
  Candidate.t list
(** Much cheaper per cycle than {!mine} (it only watches the candidate
    nets), so it can run an order of magnitude more cycles to weed out
    false candidates before the SAT stage — every candidate killed here
    saves a counterexample query.  A lane can kill only until the
    first cycle of its run where [assume] is 0, as in {!mine}.

    [kills], when given, receives one entry per killed candidate with
    the refuting lane extracted as a replayable {!Cex.t}.  Capturing
    records the per-cycle input words of the current run, so it costs
    one array copy per cycle; free when omitted. *)
