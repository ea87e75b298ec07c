(** Registers: state elements with deferred next-value connection.

    A register's Q output is available immediately after {!create} so
    feedback logic can read it; the D input is supplied exactly once
    with {!connect} (or the {!next}-style helpers).  {!Ctx.finish}
    fails if any register was never connected. *)

type t

val create : Ctx.t -> ?init:int -> width:int -> string -> t
(** [init] is the reset value (two's-complement truncated). *)

val q : t -> Ctx.signal
(** The register output. *)

val connect : t -> Ctx.signal -> unit
(** Sets the next-state function.  @raise Invalid_argument on width
    mismatch or double connection. *)

val connect_en : t -> en:Ctx.signal -> Ctx.signal -> unit
(** Holds the current value when [en] is 0. *)

val reg_en : Ctx.t -> ?init:int -> string -> en:Ctx.signal -> Ctx.signal -> Ctx.signal
(** Feedback-free enabled register (holds when disabled). *)
