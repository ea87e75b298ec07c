(** Execution harness for the RISC-V cores: plays the role of the
    instruction and data memories against the cores' ideal
    (combinational, single-cycle) memory ports.

    The instruction memory is an array of 16-bit halfwords (as produced
    by {!Isa.Asm.assemble}); the data memory is a flat byte array.
    Loads return the 32-bit word at the word-aligned address; stores
    honour the byte-enable mask — both matching the cores' LSU
    contract. *)

type t

val create : Netlist.Design.t -> program:int array -> ?dmem_bytes:int -> unit -> t

val sim : t -> Netlist.Sim64.t

val cycle : t -> unit
(** One clock: serve fetch and data, commit stores, advance. *)

val run : t -> cycles:int -> unit

val retired : t -> int
(** Number of cycles in which the core's [retire] output was high. *)

val read_mem32 : t -> int -> int

val read_bus : t -> Netlist.Design.net array -> int
(** Architectural peeks via internal nets (lane 0). *)
