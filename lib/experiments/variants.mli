(** The experiment catalog: every core variant evaluated in the paper's
    Figures 5, 6 and 7, expressed as (core, environment) pairs ready to
    feed {!Pdat.Pipeline.run}.

    Variant ids and figure ids are stable strings used by the CLI
    ([pdat run] accepts both) and EXPERIMENTS.md. *)

type core_kind = Ibex | Cm0 | Ridecore

type t = {
  id : string;
  figure : string;       (** "fig5-isa" / "fig5-mibench" / "fig5-special"
                             / "fig6" / "fig7" *)
  label : string;        (** as printed in the paper's figure *)
  core : core_kind;
  make_env : Netlist.Design.t -> cut_nets:Netlist.Design.net array option ->
             Pdat.Environment.t option;
      (** [None] marks the no-PDAT baseline ("Full") variant. *)
}

val all : t list
val by_figure : string -> t list
val find : string -> t
(** @raise Not_found *)

val figures : string list
(** Figure ids in paper order.  fig5-isa, fig6 and fig7 start with
    their core's "Full" baseline; fig5-mibench and fig5-special, the
    other two panels of Figure 5, share fig5-isa's. *)

val title : string -> string
(** The heading a figure's rows print under.
    @raise Not_found on an id not in {!figures} *)
