(** ISA subsets: the unit of "what the reduced core must still
    support".  A subset is a named set of instruction names of one
    architecture; PDAT turns it into an environment restriction. *)

type arch = Riscv | Arm

type t

val make : arch -> string -> string list -> t
(** @raise Invalid_argument on names unknown to the architecture's
    table or on duplicates. *)

val arch : t -> arch
val name : t -> string
val instructions : t -> string list
(** Sorted, deduplicated. *)

val size : t -> int
val mem : t -> string -> bool

val union : string -> t -> t -> t
val remove : string -> t -> string list -> t

(* RISC-V family subsets used across the evaluation *)

val rv32imcz : t
(** Everything the Ibex-like core implements. *)

val rv32imc : t
val rv32im : t
val rv32ic : t
val rv32i : t

val rv32e : t
(** RV32E proxy: RV32I restricted to 16 architectural registers; the
    register restriction itself is expressed by the environment (free
    register-field bits are constrained), so the instruction list
    equals RV32I. *)

val rv32i_reduced_addressing : t
(** RV32I without the R-type register-register instructions. *)

val rv32i_safety_critical : t
(** RV32I without JALR/AUIPC/FENCE/ECALL/EBREAK. *)

val rv32i_no_parallelism : t
(** RV32I without the bitwise/shift instructions. *)

val rv32i_aligned : t
(** Same instruction list as RV32I; misalignment is an *operand*
    restriction handled by the environment, see {!Pdat.Environment}. *)

val risc16 : t                    (** the compressed RiSC-16-like subset *)

(* ARMv6-M subsets *)

val armv6m_full : t
val armv6m_interesting : t
