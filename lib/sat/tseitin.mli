(** Tseitin constraint builders: each function adds clauses forcing the
    output literal to equal a boolean function of the input literals.
    Inputs and outputs are literals, so inversions are free (pass the
    negated literal). *)

val and2 : Solver.t -> out:Lit.t -> Lit.t -> Lit.t -> unit
val or2 : Solver.t -> out:Lit.t -> Lit.t -> Lit.t -> unit
val xor2 : Solver.t -> out:Lit.t -> Lit.t -> Lit.t -> unit

val mux : Solver.t -> out:Lit.t -> sel:Lit.t -> a:Lit.t -> b:Lit.t -> unit
(** out = sel ? b : a. *)

val const : Solver.t -> Lit.t -> bool -> unit
(** Pins a literal to a constant. *)
