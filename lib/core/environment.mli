(** Environment restrictions (paper sections IV.3 and V).

    An environment turns an ISA subset into (a) a monitor circuit
    grafted onto a copy of the design whose [assume] net is 1 exactly
    when the current instruction input belongs to the subset — the
    [assume property] of Listing 3 — and (b) a constructive stimulus
    that drives simulation with subset instructions only.

    Port-based environments constrain the instruction-memory port;
    cutpoint-based environments first cut an internal net (the
    fetch-decode pipeline register input, Figure 4) and constrain the
    fresh input instead.  The model carries the monitor; the original
    design stays untouched and is what the rewiring stage edits. *)

type t = {
  model : Netlist.Design.t;   (** copy (possibly cut) + monitor *)
  assume : Netlist.Design.net;
  stimulus : Engine.Stimulus.t;
  cuts : (Netlist.Design.net * Netlist.Design.net) array;
      (** cutpoint map: [(original_net, model_fresh_input)] pairs.
          Empty for port-based and unconstrained environments.  The
          differential validator uses it to evaluate the monitor on the
          values the original design actually computes. *)
  description : string;
}

val unconstrained : Netlist.Design.t -> t
(** Free inputs; [assume] is the constant-1 rail. *)

val riscv_port :
  ?rv32e:bool -> Netlist.Design.t -> port:string -> Isa.Subset.t -> t
(** The port carries a 32-bit fetch word; compressed subset members are
    matched on the low halfword (upper half unconstrained), others on
    the full word.  [rv32e] additionally constrains every register
    field of the matched instruction to x0..x15. *)

val riscv_cutpoint :
  ?rv32e:bool ->
  Netlist.Design.t ->
  nets:Netlist.Design.net array ->
  Isa.Subset.t ->
  t
(** Cuts the 32 given nets (the IF/ID instruction register's next
    value) and constrains the resulting fresh inputs. *)

val arm_port : Netlist.Design.t -> port:string -> Isa.Subset.t -> t
(** The port carries one 16-bit Thumb halfword per cycle.  A halfword
    is allowed if it is a subset 16-bit instruction, or either half of
    a subset 32-bit instruction — the imprecision the paper reports
    for port-only constraints on obfuscated multi-length streams. *)

val constrain_low_bits :
  t -> Netlist.Design.net array -> bits:int -> t
(** Additionally require the given nets' low [bits] to be 0 — used for
    the "Aligned" variant's word-aligned data-address restriction.
    Simulation lanes violating it are masked, not failed. *)
