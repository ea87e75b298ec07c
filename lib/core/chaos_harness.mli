(** The chaos matrix: end-to-end crash-safety scenarios over a real
    pipeline run.

    Each scenario injects one fault class via the {!Engine.Chaos} hooks
    ([PDAT_CHAOS]), runs the full pipeline, and asserts that the
    outcome — the proved invariant set and the reduced netlist — is
    byte-identical to an undisturbed run of the same design:

    - ["cache-trunc"]: the first flushed proof-cache scope file is
      truncated mid-entry; the next run over the same cache directory
      must salvage the valid prefix, quarantine the damage, and still
      agree with the baseline.
    - ["sigterm-resume"]: a forked child runs the pipeline journaled
      and SIGTERMs itself at the proof stage; the parent then resumes
      from the journal and must land on the baseline result.

    The harness is used by the [pdat chaos] CLI command and the CI
    chaos job. *)

type scenario = {
  name : string;
  ok : bool;
  detail : string;  (** human-readable evidence either way *)
}

val matrix :
  dir:string ->
  design:Netlist.Design.t ->
  env:Environment.t ->
  unit ->
  scenario list
(** Run the full matrix.  [dir] is a scratch directory (created if
    missing) for the cache and run directories the scenarios need.
    Temporarily sets [PDAT_CHAOS] around each scenario and restores
    it. *)

val all_ok : scenario list -> bool
