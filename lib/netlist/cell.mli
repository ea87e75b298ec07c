(** Standard-cell vocabulary of the gate-level netlist.

    The cell kinds mirror a small physical standard-cell library in the
    NANGATE-45nm style: simple static CMOS gates, a 2:1 mux, two
    complex gates and a D flip-flop.  Every combinational cell has a
    single output; [Dff] is the only sequential element.  Pin order for
    [Mux2] is [| sel; a; b |] with output [a] when [sel = 0].  Pin order
    for [Aoi21]/[Oai21] is [| a1; a2; b |]. *)

type kind =
  | Const0
  | Const1
  | Buf
  | Inv
  | And2
  | Or2
  | Nand2
  | Nor2
  | Xor2
  | Xnor2
  | And3
  | Or3
  | Nand3
  | Nor3
  | And4
  | Or4
  | Mux2
  | Aoi21  (** ZN = !((A1 & A2) | B) *)
  | Oai21  (** ZN = !((A1 | A2) & B) *)
  | Dff    (** Q = D delayed one clock; reset value carried by the cell *)

val arity : kind -> int
(** Number of input pins. *)

val name : kind -> string
(** Library cell name, e.g. ["AND2_X1"]. *)

val of_name : string -> kind option
(** Inverse of {!name}; also accepts lower-case spellings. *)

val area : kind -> float
(** Cell area in um^2, NANGATE45-like. *)

val is_sequential : kind -> bool

val eval : kind -> int64 array -> int64
(** Bit-parallel evaluation of a combinational cell over 64 lanes; each
    bit position of the operands is an independent simulation lane.
    The reference semantics that {!Sim64}'s compiled kernel implements.
    @raise Invalid_argument on [Dff] (sequential update is the
    simulator's job) or on an input array of the wrong length. *)

val check_arity : kind -> int -> unit
(** [check_arity k n] accepts [n] input pins for a [k] cell.
    @raise Invalid_argument with {!eval}'s message when [n <> arity k]. *)

val input_pin_name : kind -> int -> string
(** Pin name used by the Verilog backend: ["A1"], ["A2"], ["S"], ["D"]... *)

val output_pin_name : kind -> string

val all : kind list
(** Every kind, for exhaustive table-driven tests. *)

val pp : Format.formatter -> kind -> unit
