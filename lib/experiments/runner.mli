(** Executes catalog variants through the PDAT pipeline and formats
    paper-style result rows.

    Core netlists are built once and shared across the variants that
    use them; the Cortex-M0 is obfuscated before it enters any flow,
    matching the paper's firm-IP setting.  [fast] shrinks the RIDECORE
    configuration and the simulation budget — used by the test suite;
    benches run full size. *)

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

val run_full :
  ?fast:bool ->
  ?cache:Engine.Proof_cache.t ->
  Variants.t ->
  row * Pdat.Pipeline.result option
(** Like {!run} but also returns the pipeline result (with its full
    report — per-stage timings, induction stats) when the variant
    actually ran the pipeline ([None] for baseline-only variants).
    Unless [cache] is given, all variants share one session-wide proof
    cache; set the [PDAT_CACHE_DIR] environment variable to make it
    disk-backed so verdicts persist across processes. *)

val run_figure :
  ?fast:bool -> ?cache:Engine.Proof_cache.t -> string -> row list

val pp_row : Format.formatter -> row -> unit

val pp_rows : title:string -> Format.formatter -> row list -> unit

val reduced_design : ?fast:bool -> Variants.t -> Netlist.Design.t
(** The transformed netlist itself (for equivalence checks and
    export). *)
