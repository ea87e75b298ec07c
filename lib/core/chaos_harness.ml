type scenario = { name : string; ok : bool; detail : string }

let all_ok = List.for_all (fun s -> s.ok)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* putenv cannot unset, but every hook treats "" as absent *)
let with_env pairs f =
  let old = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (k, o) -> Unix.putenv k (Option.value o ~default:"")) old)
    f

(* Structural identity of a netlist, reusing the proof cache's content
   digest (cells, wiring, reset values, ports). *)
let design_digest d =
  Engine.Proof_cache.scope_digest d ~assume:Netlist.Design.net_true

let proved_keys prov =
  Report.Provenance.records prov
  |> List.filter_map (fun (r : Report.Provenance.cand_record) ->
         match r.Report.Provenance.attribution with
         | Some a when Engine.Induction.verdict_proves a.Engine.Induction.verdict
           ->
             Some (Engine.Candidate.key r.Report.Provenance.cand)
         | _ -> None)
  |> List.sort compare

let run_once ?jobs ?cache ?run_dir ?(resume = false) ?retries ~design ~env ()
    =
  let prov = Report.Provenance.create () in
  let r =
    Pipeline.run ?jobs ?cache ?run_dir ~resume ?retries ~provenance:prov
      ~design ~env ()
  in
  (proved_keys prov, design_digest r.Pipeline.reduced, r)

let describe_outcome ~base_keys ~base_digest keys digest =
  if keys = base_keys && digest = base_digest then
    (true, Printf.sprintf "proved set (%d) and netlist identical to baseline"
             (List.length keys))
  else if keys <> base_keys then
    ( false,
      Printf.sprintf "proved set diverged: %d vs baseline %d"
        (List.length keys) (List.length base_keys) )
  else (false, "reduced netlist diverged from baseline")

let matrix ?(jobs = 2) ?(retries = 2) ~dir ~design ~env () =
  mkdir_p dir;
  Engine.Chaos.reset ();
  (* the reference: one undisturbed, fully serial run *)
  let base_keys, base_digest, _ =
    with_env [ ("PDAT_CHAOS", "") ] (fun () ->
        run_once ~jobs:1 ~design ~env ())
  in
  let check = describe_outcome ~base_keys ~base_digest in
  let worker_kill () =
    Engine.Chaos.reset ();
    let keys, digest, r =
      with_env
        [ ("PDAT_CHAOS", "worker-kill");
          ("PDAT_FORCE_CORES", string_of_int jobs) ]
        (fun () -> run_once ~jobs ~retries ~design ~env ())
    in
    let st = r.Pipeline.report.Pipeline.induction in
    if st.Engine.Induction.workers < 2 then
      {
        name = "worker-kill";
        ok = false;
        detail =
          Printf.sprintf
            "vacuous: proof stage did not shard (workers=%d) — design too \
             small for the matrix"
            st.Engine.Induction.workers;
      }
    else if st.Engine.Induction.workers_failed = 0 then
      {
        name = "worker-kill";
        ok = false;
        detail = "vacuous: chaos kill never fired (no worker failures)";
      }
    else
      let ok, detail = check keys digest in
      {
        name = "worker-kill";
        ok;
        detail =
          Printf.sprintf "%s (%d kills, %d retries, %d fallbacks)" detail
            st.Engine.Induction.workers_failed
            st.Engine.Induction.worker_retries
            st.Engine.Induction.worker_fallbacks;
      }
  in
  let cache_trunc () =
    Engine.Chaos.reset ();
    let cache_dir = Filename.concat dir "chaos-cache" in
    (* run 1 fills the cache and truncates the flushed scope file *)
    let keys1, digest1, _ =
      with_env [ ("PDAT_CHAOS", "cache-trunc") ] (fun () ->
          let cache = Engine.Proof_cache.create ~dir:cache_dir () in
          run_once ~jobs:1 ~cache ~design ~env ())
    in
    Engine.Chaos.reset ();
    (* run 2 opens the damaged cache cold: salvage + quarantine *)
    let cache2 = Engine.Proof_cache.create ~dir:cache_dir () in
    let keys2, digest2, _ =
      with_env [ ("PDAT_CHAOS", "") ] (fun () ->
          run_once ~jobs:1 ~cache:cache2 ~design ~env ())
    in
    let cstats = Engine.Proof_cache.stats cache2 in
    let ok1, d1 = check keys1 digest1 in
    let ok2, d2 = check keys2 digest2 in
    if not ok1 then
      { name = "cache-trunc"; ok = false; detail = "first run: " ^ d1 }
    else if cstats.Engine.Proof_cache.corrupt_files = 0 then
      {
        name = "cache-trunc";
        ok = false;
        detail = "vacuous: second run saw no damaged cache file";
      }
    else
      {
        name = "cache-trunc";
        ok = ok2;
        detail =
          Printf.sprintf
            "%s (warm run over damaged cache: %d quarantined, %d entries \
             salvaged)"
            d2 cstats.Engine.Proof_cache.corrupt_files
            cstats.Engine.Proof_cache.salvaged_entries;
      }
  in
  let sigterm_resume () =
    Engine.Chaos.reset ();
    let run_dir = Filename.concat dir "chaos-run" in
    flush stdout;
    flush stderr;
    let killed =
      match Unix.fork () with
      | 0 ->
          (* the victim: a journaled run that SIGTERMs itself when the
             proof stage starts.  Reaching the exit means the chaos hook
             never fired. *)
          (try
             Unix.putenv "PDAT_CHAOS" "sigterm:prove";
             ignore (run_once ~jobs:1 ~run_dir ~design ~env ())
           with _ -> ());
          Unix._exit 0
      | pid -> (
          let rec wait () =
            try snd (Unix.waitpid [] pid)
            with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          in
          match wait () with
          | Unix.WSIGNALED s when s = Sys.sigterm -> true
          | _ -> false)
    in
    if not killed then
      {
        name = "sigterm-resume";
        ok = false;
        detail = "vacuous: victim run was not SIGTERM-killed mid-pipeline";
      }
    else
      let keys, digest, r =
        with_env [ ("PDAT_CHAOS", "") ] (fun () ->
            run_once ~jobs:1 ~run_dir ~resume:true ~design ~env ())
      in
      let ok, detail = check keys digest in
      let resumed =
        match r.Pipeline.report.Pipeline.resume with
        | Some ri -> ri.Pipeline.resumed_stages
        | None -> []
      in
      if not (List.mem "mine" resumed) then
        {
          name = "sigterm-resume";
          ok = false;
          detail = "resume did not replay the journaled mine stage";
        }
      else
        {
          name = "sigterm-resume";
          ok;
          detail =
            Printf.sprintf "%s (replayed stages: %s)" detail
              (String.concat ", " resumed);
        }
  in
  [ worker_kill (); cache_trunc (); sigterm_resume () ]
