(** Constrained stimulus for the simulation stage.

    A stimulus produces, each cycle, 64 lanes of values for the primary
    inputs such that the environment restriction holds on every lane —
    the simulation counterpart of the [assume property] in the paper's
    Listing 3.  PDAT builds these constructively (sample an instruction
    from the subset, randomize its free fields). *)

type t = {
  drive : Random.State.t -> (Netlist.Design.net * int64) list;
      (** Values per cycle; inputs not mentioned get fresh random lanes. *)
}

val unconstrained : t
(** Every input fully random. *)

val random_word : Random.State.t -> int64
(** 64 random lanes from three [Random.State.bits] draws. *)

type feed
(** A stimulus bound to one design's primary inputs. *)

val feed : Netlist.Design.t -> t -> feed

val next_cycle :
  feed -> Random.State.t -> (Netlist.Design.net -> int64 -> unit) -> unit
(** Draws one cycle of input words and hands each to [set]: first the
    stimulus's own draw, then a {!random_word} for every primary input
    it left undriven (in declaration order, passed to [set] in that
    order), then the driven pairs in the stimulus's order.  Every
    simulation stage draws in this order, so a seed reproduces its
    candidate sets.  Costs one pass over the inputs per cycle. *)

val pack_lanes : (int -> int) -> width:int -> int64 array
(** [pack_lanes gen ~width] builds per-bit lane words from 64 sampled
    values: bit position [lane] of result word [i] is bit [i] of
    [gen lane]. *)

val bus_driver :
  Netlist.Design.net array -> (Random.State.t -> int) -> Random.State.t ->
  (Netlist.Design.net * int64) list
(** Drives a bus from a per-lane word generator. *)
