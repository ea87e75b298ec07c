(** Levelized 64-lane bit-parallel simulator.

    Every net carries an [int64]; bit [i] of the word is simulation
    lane [i], so one pass simulates 64 independent stimulus vectors.
    Testbenches that need a single lane use the [_bus] helpers, which
    broadcast each bit across all lanes and read lane 0.

    Per-cycle protocol: {!set_input} / {!set_bus}, then {!eval}, then
    read outputs, then {!step} to clock the flip-flops.

    {!create} compiles the design: the topological schedule is
    flattened into an opcode array and operand-net arrays, and net
    values live in one unboxed word store, so {!eval} and {!step}
    allocate nothing.  The simulator is a snapshot of the design at
    {!create}: later {!Design.replace_cell} or
    {!Design.unsafe_add_cell_out} edits are not seen, and simulating
    the edited design needs a new simulator. *)

type t

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : Design.t -> t
(** Compiles the design; reset state is applied.
    @raise Invalid_argument ["Cell.eval <CELL>: expected <n> inputs, got
    <m>"] if a cell's fanin does not match its arity.
    @raise Topo.Combinational_cycle on a combinational loop. *)

val design : t -> Design.t

val reset : t -> unit
(** Returns flip-flops to their reset values and clears inputs to 0. *)

val load_state : t -> (Design.net -> int64) -> unit
(** Overwrites every flip-flop output with the given value — used to
    start simulation from an arbitrary state (e.g. a SAT
    counterexample). *)

val set_input : t -> Design.net -> int64 -> unit
(** @raise Invalid_argument if the net is not a primary input. *)

val set_input_name : t -> string -> int64 -> unit

val eval : t -> unit
(** Settles all combinational logic for the current inputs and state. *)

val step : t -> unit
(** Clock edge: latches every flip-flop's D into Q.  Call after {!eval}. *)

val read : t -> Design.net -> int64
(** Value after the latest {!eval}. *)

val words : t -> words
(** The simulator's own net-value store: [(words t).{n}] is [read t n].
    Loops outside this library that sweep many nets per cycle read it
    directly, because a {!read} that the compiler does not inline boxes
    its result.  Read-only: drive inputs through {!set_input}. *)

val set_bus : t -> Design.net array -> int -> unit
(** LSB-first; each bit is broadcast to all 64 lanes. *)

val read_bus : t -> Design.net array -> int
(** LSB-first, lane 0. *)

val read_bus_lane : t -> Design.net array -> lane:int -> int
