(** Deterministic fault/chaos injection hooks, driven by an environment
    variable so they reach any process of a run without plumbing.

    [PDAT_CHAOS] holds a comma-separated list of fault specs:

    - ["cache-trunc"] — the first proof-cache scope file flushed by this
      process is truncated to half its size right after the atomic
      rename (one-shot), simulating a torn write that the per-entry
      CRCs must catch on the next open.
    - ["sigterm:<stage>"] — the process sends itself SIGTERM when the
      named pipeline stage starts (one-shot), simulating an operator
      kill; a journaled run must be resumable afterwards.

    All hooks are inert when [PDAT_CHAOS] is unset — the production
    path pays one [getenv] per injection point. *)

val cache_truncate : path:string -> bool
(** If ["cache-trunc"] is armed and unspent, truncate the file at
    [path] to half its size, spend the one-shot, and return true. *)

val stage_sigterm : string -> unit
(** If ["sigterm:<stage>"] is armed for this stage name and unspent,
    spend the one-shot and send SIGTERM to the current process (the
    default disposition terminates it). *)

val reset : unit -> unit
(** Re-arm the process-local one-shots (for tests that run several
    scenarios in one process). *)
