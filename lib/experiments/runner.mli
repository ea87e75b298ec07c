(** Executes catalog variants through the PDAT pipeline and formats
    paper-style result rows.

    Core netlists are built once and shared across the variants that
    use them; the Cortex-M0 is obfuscated before it enters any flow,
    matching the paper's firm-IP setting.  [fast] shrinks the RIDECORE
    configuration and the simulation budget ([pdat run --fast] and the
    test suite use it); without it RIDECORE runs at full size. *)

type row = {
  variant : Variants.t;
  area : float;
  gates : int;
  baseline_area : float;  (** the figure's "Full" variant, synthesized *)
  baseline_gates : int;
  proved : int;           (** 0 for the baseline row *)
  seconds : float;
}

val area_delta : row -> float
(** Percent area reduction versus the baseline row. *)

val gate_delta : row -> float

val run : ?fast:bool -> ?cache:Engine.Proof_cache.t -> Variants.t -> row
(** A pipeline row's baseline is the [before] of its
    {!Pdat.Pipeline.report}; a "Full" row only synthesizes the
    design.  Unless [cache] is given, all variants of the process share
    one in-memory proof cache. *)

val run_figure :
  ?fast:bool -> ?cache:Engine.Proof_cache.t -> string -> row list
(** {!run} over {!Variants.by_figure}, in catalog order. *)

val pp_row : Format.formatter -> row -> unit

val pp_rows : ?title:string -> Format.formatter -> row list -> unit
(** The rows under a heading: [title] if given, then one line per
    distinct baseline with the area and gates the rows' deltas are
    against, so a figure without a Full row of its own, or a single
    variant's row, still shows them. *)
