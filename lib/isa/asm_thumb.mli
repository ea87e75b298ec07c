(** A small two-pass ARMv6-M (Thumb) assembler for the Cortex-M0-like
    core's test programs.  Output is an array of 16-bit halfwords;
    32-bit encodings (BL) emit two. *)

type t

val create : ?base:int -> unit -> t
val label : t -> string -> unit
val here : t -> int

(* moves, arithmetic, compare *)

(* MOVS rd, #imm8 *)
val movs : t -> rd:int -> int -> unit
(* MOV rd, rm (high registers allowed) *)
val mov_reg : t -> rd:int -> rm:int -> unit
val adds_imm3 : t -> rd:int -> rn:int -> int -> unit
val subs_imm3 : t -> rd:int -> rn:int -> int -> unit
val adds_imm8 : t -> rdn:int -> int -> unit
val subs_imm8 : t -> rdn:int -> int -> unit
val adds_reg : t -> rd:int -> rn:int -> rm:int -> unit
val subs_reg : t -> rd:int -> rn:int -> rm:int -> unit
val add_hi : t -> rdn:int -> rm:int -> unit
val cmp_imm : t -> rn:int -> int -> unit
val cmp_reg : t -> rn:int -> rm:int -> unit

(* data processing (rdn at [2:0], rm at [5:3]) *)

val ands : t -> rdn:int -> rm:int -> unit
val eors : t -> rdn:int -> rm:int -> unit
val orrs : t -> rdn:int -> rm:int -> unit
val bics : t -> rdn:int -> rm:int -> unit
val mvns : t -> rd:int -> rm:int -> unit
val tst : t -> rn:int -> rm:int -> unit
val adcs : t -> rdn:int -> rm:int -> unit
val sbcs : t -> rdn:int -> rm:int -> unit
val rsbs : t -> rd:int -> rn:int -> unit
val muls : t -> rdm:int -> rn:int -> unit
val cmn : t -> rn:int -> rm:int -> unit

(* shifts *)

val lsls_imm : t -> rd:int -> rm:int -> int -> unit
val lsrs_imm : t -> rd:int -> rm:int -> int -> unit
val asrs_imm : t -> rd:int -> rm:int -> int -> unit
val lsls_reg : t -> rdn:int -> rs:int -> unit
val lsrs_reg : t -> rdn:int -> rs:int -> unit
val asrs_reg : t -> rdn:int -> rs:int -> unit
val rors_reg : t -> rdn:int -> rs:int -> unit

(* memory *)

(* word access, byte offset must be a multiple of 4 *)
val str_imm : t -> rt:int -> rn:int -> int -> unit
val ldr_imm : t -> rt:int -> rn:int -> int -> unit
val strb_imm : t -> rt:int -> rn:int -> int -> unit
val ldrb_imm : t -> rt:int -> rn:int -> int -> unit
val strh_imm : t -> rt:int -> rn:int -> int -> unit
val ldrh_imm : t -> rt:int -> rn:int -> int -> unit
val str_reg : t -> rt:int -> rn:int -> rm:int -> unit
val ldr_reg : t -> rt:int -> rn:int -> rm:int -> unit
val ldrsb_reg : t -> rt:int -> rn:int -> rm:int -> unit
val ldrsh_reg : t -> rt:int -> rn:int -> rm:int -> unit
val str_sp : t -> rt:int -> int -> unit
val ldr_sp : t -> rt:int -> int -> unit
(* operand lists take low registers only *)
val push : t -> ?lr:bool -> int list -> unit
val pop : t -> ?pc:bool -> int list -> unit
val stm : t -> rn:int -> int list -> unit
val ldm : t -> rn:int -> int list -> unit

(* misc *)

val sxtb : t -> rd:int -> rm:int -> unit
val sxth : t -> rd:int -> rm:int -> unit
val uxtb : t -> rd:int -> rm:int -> unit
val uxth : t -> rd:int -> rm:int -> unit
val rev : t -> rd:int -> rm:int -> unit
val sub_sp_imm : t -> int -> unit
val nop : t -> unit

(* control flow *)

type cond = EQ | NE | CS | CC | MI | PL | VS | VC | HI | LS | GE | LT | GT | LE

val b_cond : t -> cond -> string -> unit
val b : t -> string -> unit
val bl : t -> string -> unit
val bx : t -> rm:int -> unit
val blx : t -> rm:int -> unit
val svc : t -> int -> unit
val udf : t -> unit
val raw16 : t -> int -> unit

val assemble : t -> int array
