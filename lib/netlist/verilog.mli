(** Structural-Verilog backend: how firm IP enters and leaves the tool.

    The supported subset is a flat gate-level module: a port list with
    directions, [wire] declarations, and standard-cell instances using
    named port connections.  Flip-flop reset values round-trip through
    an [(* init = 0|1 *)] attribute.  An implicit [CLK] input port is
    emitted for sequential designs and ignored when reading. *)

val to_string : Design.t -> string

val write_file : Design.t -> string -> unit

exception Parse_error of { line : int; reason : string }
(** [line] is 1-based: the line of the offending token, of the last
    token when the input ends early, or of the statement that drives a
    net twice.  A printer is registered with [Printexc]. *)

val of_string : ?name:string -> string -> Design.t
(** @raise Parse_error on malformed input, unknown cell names, a
    non-integer attribute value, or a net driven twice (two cells on
    one wire, or a cell or [assign] onto an input port). *)

val read_file : string -> Design.t
