(** The provenance database: where every number in a PDAT run report
    comes from.

    Each candidate invariant gets a record the moment it is mined and
    accumulates its history as the pipeline advances: the rsim round
    that mined it, the refinement kill that discarded it (with the
    refuting input trace), the prover's verdict (proved at depth k /
    refuted with a counterexample / dropped, with shard id and
    cache-hit flag), and the waveform file its counterexample was
    dumped to.  Certificate edits link back to the proved invariants
    that justify them, and every original cell made dead by rewiring
    is attributed to the edit whose cone it sits in.

    The database is pure bookkeeping — it never influences the run —
    and everything recorded here is deterministic for a fixed seed, so
    reports generated from it can be golden-tested byte-for-byte. *)

type cand_record = {
  id : int;  (** stable provenance id, assigned in registration order *)
  cand : Engine.Candidate.t;
  mutable mined_round : int option;  (** 1-based rsim run, if attributed *)
  mutable refine_kill : Engine.Rsim.kill option;
  mutable attribution : Engine.Induction.attribution option;
  mutable cex_file : string option;  (** dumped waveform, if any *)
}

type edit_record = {
  e_index : int;  (** position in the certificate's application order *)
  e_edit : Analysis.Certificate.edit;
  e_invariants : int list;
      (** provenance ids of the proved invariants justifying the edit;
          never empty for a certificate that passed the audit *)
  mutable e_dead : (int * Netlist.Cell.kind) list;
      (** original cells this edit's cone made dead (so resynthesis
          removes them), sorted by cell id *)
}

type designs = {
  original : Netlist.Design.t;
  rewired : Netlist.Design.t;
  reduced : Netlist.Design.t;   (** the design the pipeline returned *)
  baseline : Netlist.Design.t;  (** plain resynthesis of the original *)
}

type t

val create : unit -> t

val register : t -> Engine.Candidate.t list -> unit
(** Assign provenance ids to candidates (in list order); candidates
    already registered keep their id. *)

val find : t -> Engine.Candidate.t -> cand_record option
val id_of : t -> Engine.Candidate.t -> int option

val set_mined_rounds : t -> (Engine.Candidate.t * int) list -> unit
val set_refine_kills : t -> (Engine.Candidate.t * Engine.Rsim.kill) list -> unit

val set_attributions :
  t -> (Engine.Candidate.t, Engine.Induction.attribution) Hashtbl.t -> unit

val set_cex_file : t -> Engine.Candidate.t -> string -> unit

val record_certificate : t -> Analysis.Certificate.t -> unit
(** One {!edit_record} per certificate edit, resolving each edit's
    justifying invariant to its provenance id. *)

val record_designs :
  t ->
  original:Netlist.Design.t ->
  rewired:Netlist.Design.t ->
  reduced:Netlist.Design.t ->
  baseline:Netlist.Design.t ->
  unit
(** Stores the four pipeline design snapshots and runs dead-cone
    attribution: an original cell that is output-reachable in
    [original] but not in [rewired] was made dead by some rewire edit
    (reads were redirected past it); walking each edit's input cone in
    certificate order claims those cells for the edit that killed
    them.  Cells dead in [rewired] but in no edit's cone land in
    {!unattributed_dead} (and would indicate an uncertified edit).
    Call after {!record_certificate}. *)

val records : t -> cand_record list
(** All candidate records in id order. *)

val edits : t -> edit_record list
(** Certificate edits in application order ([[]] until
    {!record_certificate}). *)

val unattributed_dead : t -> (int * Netlist.Cell.kind) list

val designs : t -> designs option

val proved_ids : t -> int list
(** Ids of candidates whose final verdict counts as a proof
    ({!Engine.Induction.verdict_proves}), ascending. *)
