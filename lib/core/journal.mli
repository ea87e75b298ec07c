(** Append-only, checksummed run journal — the write-ahead log that
    makes a reduction run crash-safe.

    A journaled run records, in order: a header pinning the netlist and
    environment digest, one record per completed pipeline stage (with
    the surviving candidate keys, {!Engine.Candidate.key} form), and a
    final end marker.

    The file is [<dir>/journal.jsonl]: one flat JSON object per line,
    each prefixed with a CRC-32 of the rest of the line, flushed and
    fsynced per record.  A crash mid-write leaves at most one torn tail
    line; {!resume} replays the longest valid prefix, truncates the
    damage away, and reopens for append — so a resumed run re-proves
    only what was never journaled.

    Records are only meaningful relative to the digest in the header:
    {!resume} refuses (raises {!Mismatch}) to replay a journal whose
    digest differs from the current netlist + environment, since
    candidate keys are net/cell ids of that exact netlist. *)

type t

exception Mismatch of string
(** The journal on disk belongs to a different netlist/environment (or
    is unreadable beyond salvage). *)

type recovered = {
  r_stages : (string * string list) list;
      (** completed stages in order, each with its surviving candidate
          keys (empty for stages that carry none) *)
  r_dropped_lines : int;
      (** torn/corrupt tail lines truncated during replay *)
}

val create : dir:string -> digest:string -> label:string -> t
(** Start a fresh journal under [dir] (created if missing), overwriting
    any previous one.  [digest] pins the netlist + environment;
    [label] is free-form provenance (e.g. the subset name). *)

val resume : dir:string -> digest:string -> t * recovered
(** Replay [<dir>/journal.jsonl], verify its digest against [digest],
    truncate any torn tail, and reopen the journal for append.
    Raises {!Mismatch} on digest disagreement or a missing/unsalvageable
    journal. *)

val record_stage : t -> name:string -> items:string list -> unit
(** Journal stage [name] as complete, with its surviving candidate
    keys.  Flushed and fsynced before returning. *)

val record_end : t -> ok:bool -> unit
(** Journal the run's completion. *)

val path : t -> string

val close : t -> unit
