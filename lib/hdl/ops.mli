(** Combinational operators of the construction DSL.

    All operators elaborate directly to standard cells.  Signals are
    little-endian bit vectors; binary bitwise and arithmetic operators
    require equal widths (checked), comparisons return 1-bit signals.
    Nothing here creates state — see {!Reg} and {!Mem}. *)

type signal = Ctx.signal

(* constants *)

val const : Ctx.t -> width:int -> int -> signal
(** Two's-complement truncation of the int to [width] bits;
    [width <= 62]. *)

val zero : Ctx.t -> int -> signal
val ones : Ctx.t -> int -> signal
val vdd : Ctx.t -> signal
val gnd : Ctx.t -> signal

(* structure *)

val bit : signal -> int -> signal
val bits : signal -> hi:int -> lo:int -> signal
val msb : signal -> signal
val lsb : signal -> signal

val concat : signal list -> signal
(** MSB-first, Verilog [{a, b, c}] order. *)

val repeat : signal -> int -> signal
val zero_extend : signal -> int -> signal
val sign_extend : signal -> int -> signal
val uresize : signal -> int -> signal
(** Zero-extend or truncate to the requested width. *)

(* bitwise *)

val ( ~: ) : signal -> signal
val ( &: ) : signal -> signal -> signal
val ( |: ) : signal -> signal -> signal
val ( ^: ) : signal -> signal -> signal

val reduce_and : signal -> signal
val reduce_or : signal -> signal
val reduce_xor : signal -> signal

(* arithmetic *)

val ( +: ) : signal -> signal -> signal
(** Modular addition; result has the operand width. *)

val ( -: ) : signal -> signal -> signal

val add_carry : signal -> signal -> cin:signal -> signal * signal
(** [(sum, carry_out)]. *)

val negate : signal -> signal

val umul : signal -> signal -> signal
(** Combinational array multiplier; result width is the sum of the
    operand widths.  Large: prefer sequential multipliers in cores. *)

(* comparison: 1-bit results *)

val ( ==: ) : signal -> signal -> signal
val ( <>: ) : signal -> signal -> signal

val ( <: ) : signal -> signal -> signal
(** Unsigned less-than. *)

val ( <=: ) : signal -> signal -> signal
val ( >=: ) : signal -> signal -> signal
val ( >: ) : signal -> signal -> signal

val slt : signal -> signal -> signal
(** Signed less-than. *)

val eq_const : signal -> int -> signal

(* selection *)

val mux2 : signal -> signal -> signal -> signal
(** [mux2 sel a b] is [b] when [sel] (1-bit) is 1, else [a]. *)

val mux : signal -> signal list -> signal
(** Indexed selection: [mux idx cases] picks [List.nth cases idx];
    the last case is replicated to cover the index range. *)

val one_hot_mux : (signal * signal) list -> signal
(** [(select, value)] pairs; selects are expected mutually exclusive,
    result is the OR of masked values (0 when nothing selected). *)

(* shifts *)

val sll_const : signal -> int -> signal
val srl_const : signal -> int -> signal
val sra_const : signal -> int -> signal

val sll : signal -> signal -> signal
(** Barrel shifter; shift amount is an unsigned signal. *)

val srl : signal -> signal -> signal
val sra : signal -> signal -> signal

(* misc *)

val priority_select : (signal * signal) list -> default:signal -> signal
(** First pair whose 1-bit guard is set wins. *)

val popcount : signal -> signal

val name : string -> signal -> signal
(** Attaches a debug name to the signal's nets (bit-indexed). *)
