(** The three-valued (0/1/X) lattice and its per-cell transfer
    function — the domain of lint's reachability engine ({!Absint}).

    A net at a definite value there is constant on every execution;
    [x] says nothing.  The analysis is a sound over-approximation that
    misses everything depending on input correlations (e.g. "these 32
    bits always form a LUI or an ADD"), which is what the inductive
    prover is for. *)

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
