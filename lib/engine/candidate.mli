(** Candidate gate invariants — the Property Library instances of the
    paper, section IV.1.

    A candidate is an invariant over one net or one gate's pins that
    has survived constrained random simulation and awaits proof:

    - [Const (n, b)]: net [n] always carries [b] (the paper's
      [and_out_ZN_0] / [and_out_ZN_1] properties, generalized to any
      net).
    - [Implies (a, b)]: whenever [a] is 1 so is [b]
      (the paper's [and_in_A2_A1] property); attached to a specific
      cell so the rewiring stage knows which gate collapses. *)

type t =
  | Const of Netlist.Design.net * bool
  | Implies of { cell : int; a : Netlist.Design.net; b : Netlist.Design.net }

val compare : t -> t -> int
val equal : t -> t -> bool

val holds_in_values : (Netlist.Design.net -> int64) -> t -> bool
(** Does the candidate hold on all 64 lanes of a simulation snapshot? *)

type probes
(** A candidate array compiled for {!iter_violated}. *)

val probes : t array -> probes

val iter_violated :
  probes ->
  Netlist.Sim64.t ->
  lanes:int64 ->
  alive:bool array ->
  (int -> int64 -> unit) ->
  unit
(** The simulation kill check, after {!Netlist.Sim64.eval}: calls
    [f i viol] for every [i] with [alive.(i)] whose candidate is
    violated, where [viol] (nonzero) are the violating lanes among
    [lanes].  [lanes] should be the lanes whose every cycle so far,
    this one included, met the environment assumption: a lane that
    once left the environment runs on from a state no environment
    trace reaches, and a violation there refutes nothing.  Reads the
    simulator's word store directly and allocates only when [f] does;
    [alive] is indexed like the array given to {!probes}, and [f] may
    clear it. *)

val key : t -> string
(** Compact stable structural rendering — ["C<net>:<0|1>"] for
    constants, ["I<cell>:<a>><b>"] for implications.  Used as the
    proof-cache entry key and the run-journal checkpoint form.  Net and
    cell ids are only meaningful relative to a pinned netlist digest
    (see {!Proof_cache.scope} and {!val-of_key}). *)

val of_key : string -> t option
(** Inverse of {!key}; [None] on any malformed string.  The caller is
    responsible for having verified (by digest) that the ids refer to
    the same netlist that produced the key. *)

val pp : Netlist.Design.t -> Format.formatter -> t -> unit
