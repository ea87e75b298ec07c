(** Register-file style memories built from flip-flops and mux trees.

    Writes are synchronous (visible next cycle); reads are
    combinational.  This matches how small register files are
    synthesized into standard cells when no SRAM macro is used — and it
    is why large storage structures dominate core area in the paper's
    RIDECORE experiment. *)

type t

val create : Ctx.t -> words:int -> width:int -> string -> t

val read : t -> Ctx.signal -> Ctx.signal
(** Combinational read port; address truncates/extends to fit. *)

val write : t -> en:Ctx.signal -> addr:Ctx.signal -> data:Ctx.signal -> unit
(** Adds a write port.  Call at most once per memory unless ports are
    guaranteed mutually exclusive; the last-added port wins on
    simultaneous writes.  Must be called before {!Ctx.finish}
    (memories with no write port fail elaboration). *)

val write2 :
  t ->
  en0:Ctx.signal -> addr0:Ctx.signal -> data0:Ctx.signal ->
  en1:Ctx.signal -> addr1:Ctx.signal -> data1:Ctx.signal ->
  unit
(** Dual write port; port 1 wins on an address collision. *)
