(** The RV32IMC(+Zicsr/Zifencei) instruction set as implemented by the
    Ibex-class core: every instruction carries its extension and a
    mask/match encoding (16-bit encodings for the C extension).

    The table drives three consumers: the decoder of the Ibex-like
    core's testbench tooling, the environment-restriction monitors of
    PDAT, and the Table-I workload accounting. *)

type ext = I | M | C | Zicsr | Zifencei

type t = {
  name : string;
  ext : ext;
  enc : Encoding.t;
}

val all : t list
(** Every instruction supported by the Ibex-like core. *)

val find : string -> t
(** @raise Not_found for unknown names. *)

val by_ext : ext -> t list

val names : t list -> string list

val decode32 : int -> t option
(** First matching 32-bit (uncompressed) instruction. *)

val decode16 : int -> t option
(** First matching compressed instruction (C-extension priority order
    resolves the deliberate encoding overlaps, e.g. C.ADDI16SP before
    C.LUI and C.JR before C.MV). *)

val is_compressed : int -> bool
(** Low two bits of the fetch word are not [11]. *)

val r_type : string list
(** Register-register instructions (the paper's "Reduced Addressing"
    subset removes these). *)

val safety_critical_removed : string list
(** JALR, AUIPC, FENCE, ECALL, EBREAK — removed by the paper's
    "Safety Critical" subset. *)

val bit_parallel : string list
(** Bitwise-parallel logic and shift instructions, removed by the
    paper's "No Parallelism" subset. *)

val risc16 : string list
(** The RiSC-16-like compressed subset of Fig. 5 (right). *)
