(* Randomized differential tests for the parallel proof engine and the
   invariant cache.

   The central claim under test: [Induction.prove_parallel] — sharding,
   forked workers, join round — proves *exactly* the set the serial
   [Induction.prove] proves, for any job count, and every proved
   invariant survives long constrained simulation.  Neither prover gets
   [~cex] here: the set-identity theorem is stated for exact kills, and
   worker determinism depends on it. *)

module D = Netlist.Design
module C = Netlist.Cell

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sorted = List.sort Engine.Candidate.compare

let same_set a b = sorted a = sorted b

(* every proved invariant must hold on a long random simulation *)
let survives_sim d assume proved ~cycles =
  let sim = Netlist.Sim64.create d in
  let rng = Random.State.make [| 98765 |] in
  let random_word () =
    Int64.logor
      (Int64.of_int (Random.State.bits rng))
      (Int64.shift_left (Int64.of_int (Random.State.bits rng)) 30)
  in
  let ok = ref true in
  for _ = 1 to cycles do
    List.iter
      (fun (_, n) -> Netlist.Sim64.set_input sim n (random_word ()))
      (D.inputs d);
    Netlist.Sim64.eval sim;
    if Netlist.Sim64.read sim assume = -1L then
      List.iter
        (fun c ->
          if not (Engine.Candidate.holds_in_values (Netlist.Sim64.read sim) c)
          then ok := false)
        proved;
    Netlist.Sim64.step sim
  done;
  !ok

let gen_config =
  { Netlist.Generate.n_inputs = 6; n_gates = 42; n_flops = 8; n_outputs = 6 }

let mine_config =
  { Engine.Rsim.default with Engine.Rsim.cycles = 128; runs = 1 }

(* --- parallel == serial, across seeds and job counts ------------------- *)

let test_differential () =
  let nonempty = ref 0 in
  for seed = 1 to 50 do
    let d = Netlist.Generate.random ~seed ~config:gen_config () in
    let cands =
      Engine.Rsim.mine ~config:mine_config d Engine.Stimulus.unconstrained
    in
    let serial, _ = Engine.Induction.prove ~assume:D.net_true d cands in
    (* the incremental prover (persistent solvers, selector-guarded
       clauses) against the snapshot/restore oracle: both run to
       completion, so the greatest-fixpoint sets must be byte-identical *)
    let snap, _ = Engine.Induction.prove_snapshot ~assume:D.net_true d cands in
    if not (same_set serial snap) then
      Alcotest.failf
        "seed %d: incremental proved %d, snapshot oracle proved %d \
         (different sets)"
        seed (List.length serial) (List.length snap);
    if serial <> [] then begin
      incr nonempty;
      (* the certified rewiring of the serial proof set must pass the
         static audit on every random netlist, not just the flagship *)
      let rewired, cert = Pdat.Rewire.apply_certified d serial in
      match
        Analysis.Audit.run ~original:d ~rewired ~proved:serial
          ~certificate:cert ()
      with
      | [] -> ()
      | diag :: _ ->
          Alcotest.failf "seed %d: audit rejected an honest certificate: %s"
            seed
            (Analysis.Diag.to_string diag)
    end;
    List.iter
      (fun jobs ->
        let par, stats =
          Engine.Induction.prove_parallel ~jobs ~assume:D.net_true d cands
        in
        if not (same_set serial par) then
          Alcotest.failf
            "seed %d jobs %d: parallel proved %d, serial proved %d \
             (different sets)"
            seed jobs (List.length par) (List.length serial);
        check (Printf.sprintf "seed %d jobs %d: no worker lost" seed jobs)
          true
          (stats.Engine.Induction.workers_failed = 0);
        check
          (Printf.sprintf "seed %d jobs %d: survives simulation" seed jobs)
          true
          (survives_sim d D.net_true par ~cycles:1000))
      [ 1; 2; 4 ];
    (* the absint static tier: every statically discharged verdict and
       every strengthening fact must be confirmed by the snapshot
       oracle, and under an unconstrained environment the mined
       candidate set already contains the whole ternary cube, so the
       strengthened proved set must be byte-identical to the serial
       one *)
    let ai = Engine.Absint.run ~assume:D.net_true d in
    let p_ai, sai =
      Engine.Induction.prove_parallel ~jobs:1 ~absint:ai ~assume:D.net_true d
        cands
    in
    if not (same_set serial p_ai) then
      Alcotest.failf
        "seed %d: absint-on proved %d, absint-off proved %d (different sets)"
        seed (List.length p_ai) (List.length serial);
    check_int
      (Printf.sprintf "seed %d: static tier accounting" seed)
      (List.length (List.filter (Engine.Absint.proves ai) cands))
      sai.Engine.Induction.n_static_proved;
    check
      (Printf.sprintf "seed %d: absint-on proved set survives simulation" seed)
      true
      (survives_sim d D.net_true p_ai ~cycles:1000);
    (let facts = Engine.Absint.facts ai in
     if facts <> [] then begin
       let pf, _ =
         Engine.Induction.prove_snapshot ~assume:D.net_true d facts
       in
       if not (same_set pf facts) then
         Alcotest.failf
           "seed %d: snapshot oracle refuted %d of %d absint facts" seed
           (List.length facts - List.length pf)
           (List.length facts)
     end)
  done;
  (* the harness must actually exercise non-trivial proofs *)
  check "some seeds proved something" true (!nonempty > 10)

(* --- the per-candidate step loop, under a starved call budget ---------- *)

(* At the default budget every aggregate call is conclusive, so the
   per-candidate loop never runs on the matrix above ([sat_calls =
   rounds] on every seed).  Three conflicts per call makes aggregates
   inconclusive and forces it.  A re-check that runs out of budget
   drops its candidate, so the proved set may be smaller than the
   oracle's, never larger, and it must stay sound. *)
let test_starved_budget () =
  let options =
    { Engine.Induction.default_options with
      Engine.Induction.call_conflict_budget = 3 }
  in
  let looped = ref 0 in
  for seed = 1 to 50 do
    let d = Netlist.Generate.random ~seed ~config:gen_config () in
    let cands =
      Engine.Rsim.mine ~config:mine_config d Engine.Stimulus.unconstrained
    in
    let snap, _ = Engine.Induction.prove_snapshot ~assume:D.net_true d cands in
    let proved, st =
      Engine.Induction.prove ~options ~assume:D.net_true d cands
    in
    if st.Engine.Induction.sat_calls > st.Engine.Induction.rounds then
      incr looped;
    if not (List.for_all (fun c -> List.mem c snap) proved) then
      Alcotest.failf
        "seed %d: budget-3 run proved a candidate the snapshot oracle did \
         not" seed;
    (* every survivor passed its last check assuming only the final
       proved set, so that set must be inductive on its own *)
    let self, _ = Engine.Induction.prove_snapshot ~assume:D.net_true d proved in
    if not (same_set self proved) then
      Alcotest.failf "seed %d: budget-3 proved set is not inductive on its own"
        seed;
    check
      (Printf.sprintf "seed %d: budget-3 proved set survives simulation" seed)
      true
      (survives_sim d D.net_true proved ~cycles:1000)
  done;
  check "per-candidate checks ran on at least 10 seeds" true (!looped >= 10)

(* --- crash isolation ---------------------------------------------------- *)

(* two structurally disjoint blocks, each with provable constants, so
   the sharder reliably produces two shards for jobs=2 *)
let twin_design () =
  let d = D.create "twin" in
  let block name =
    let a = D.add_input d name in
    let na = D.add_cell d C.Inv [| a |] in
    let zero = D.add_cell d C.And2 [| a; na |] in
    let r = D.add_dff d ~d:zero () in
    D.add_output d ("y_" ^ name) r;
    [ Engine.Candidate.Const (zero, false); Engine.Candidate.Const (r, false) ]
  in
  let cands = block "a" @ block "b" in
  (d, cands)

let with_env_var name value f =
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name "") f

let test_crash_retry () =
  let d, cands = twin_design () in
  let serial, _ = Engine.Induction.prove ~assume:D.net_true d cands in
  check_int "all four constants provable" 4 (List.length serial);
  (* sanity: without sabotage, two workers agree with serial *)
  let par, st = Engine.Induction.prove_parallel ~jobs:2 ~assume:D.net_true d cands in
  check "clean parallel run matches serial" true (same_set serial par);
  check_int "two workers ran" 2 st.Engine.Induction.workers;
  (* kill worker 0's first attempt: supervision retries the shard and
     the retry succeeds, so the final set is exactly the serial one *)
  let par, st =
    with_env_var "PDAT_KILL_WORKER" "0" (fun () ->
        Engine.Induction.prove_parallel ~jobs:2 ~assume:D.net_true d cands)
  in
  check "failed attempt counted" true (st.Engine.Induction.workers_failed >= 1);
  check "retry counted" true (st.Engine.Induction.worker_retries >= 1);
  check_int "no fallback needed" 0 st.Engine.Induction.worker_fallbacks;
  check "failure reason recorded for shard 0" true
    (List.exists (fun (i, _) -> i = 0) st.Engine.Induction.worker_failures);
  check "killed shard recovered: proved set == serial" true
    (same_set serial par);
  check "result still sound" true (survives_sim d D.net_true par ~cycles:500)

let test_crash_fallback () =
  let d, cands = twin_design () in
  let serial, _ = Engine.Induction.prove ~assume:D.net_true d cands in
  (* retries exhausted (none allowed): the killed shard is proved
     serially in-process instead — still nothing lost *)
  let par, st =
    with_env_var "PDAT_KILL_WORKER" "0" (fun () ->
        Engine.Induction.prove_parallel ~jobs:2 ~retries:0 ~assume:D.net_true
          d cands)
  in
  check "failed attempt counted" true (st.Engine.Induction.workers_failed >= 1);
  check_int "no retry granted" 0 st.Engine.Induction.worker_retries;
  check "fallback counted" true (st.Engine.Induction.worker_fallbacks >= 1);
  check "fallback recovered: proved set == serial" true (same_set serial par);
  check "result still sound" true (survives_sim d D.net_true par ~cycles:500)

let test_chaos_kill_every_worker () =
  let d, cands = twin_design () in
  let serial, _ = Engine.Induction.prove ~assume:D.net_true d cands in
  (* PDAT_CHAOS=worker-kill SIGKILLs *every* worker's first attempt;
     both shards must come back through retries *)
  let par, st =
    with_env_var "PDAT_CHAOS" "worker-kill" (fun () ->
        Engine.Induction.prove_parallel ~jobs:2 ~assume:D.net_true d cands)
  in
  Engine.Chaos.reset ();
  check_int "both first attempts killed" 2 st.Engine.Induction.workers_failed;
  check "both shards retried" true (st.Engine.Induction.worker_retries >= 2);
  check "every shard recovered: proved set == serial" true
    (same_set serial par);
  check "signal recorded in failure reasons" true
    (List.for_all
       (fun (_, why) ->
         let has_sub sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length why
             && (String.sub why i n = sub || go (i + 1))
           in
           go 0
         in
         has_sub "signal" || has_sub "exit")
       st.Engine.Induction.worker_failures)

(* the cost-attribution table must be part of the chaos identity: a
   killed attempt's partial rows die with the worker and the retry's
   rows merge exactly once, so (wall time aside — it is deliberately
   outside the determinism contract) the table matches a clean run's *)
let test_chaos_attribution_identity () =
  let d = D.create "twin_r" in
  let block name =
    let a = D.add_input d name in
    let na = D.add_cell d C.Inv [| a |] in
    let zero = D.add_cell d C.And2 [| a; na |] in
    let one = D.add_cell d C.Inv [| zero |] in
    let r = D.add_dff d ~d:zero () in
    D.add_output d ("y_" ^ name) r;
    D.add_output d ("o_" ^ name) one;
    [
      Engine.Candidate.Const (zero, false);
      Engine.Candidate.Const (r, false);
      (* false claim: refuted by an aggregate round, whose cost is
         billed to the killed candidate — a non-empty cost table *)
      Engine.Candidate.Const (one, false);
    ]
  in
  let cands = block "a" @ block "b" in
  let attr_sig (st : Engine.Induction.stats) =
    List.map
      (fun (r : Obs.Attr.row) ->
        ( r.Obs.Attr.a_key,
          r.Obs.Attr.a_shard,
          r.Obs.Attr.a_sat_calls,
          r.Obs.Attr.a_conflicts,
          r.Obs.Attr.a_static ))
      st.Engine.Induction.top_costs
  in
  Engine.Chaos.reset ();
  Obs.reset ();
  let clean, clean_st =
    Engine.Induction.prove_parallel ~jobs:2 ~assume:D.net_true d cands
  in
  check "clean run billed the refuted candidates" true
    (attr_sig clean_st <> []);
  Obs.reset ();
  let par, st =
    with_env_var "PDAT_CHAOS" "worker-kill" (fun () ->
        Engine.Induction.prove_parallel ~jobs:2 ~assume:D.net_true d cands)
  in
  Engine.Chaos.reset ();
  check "every first attempt killed" true
    (st.Engine.Induction.workers_failed >= 1);
  check "proved set survives the kills" true (same_set clean par);
  check "cost table identical to the clean run" true
    (attr_sig st = attr_sig clean_st)

(* --- invariant cache ---------------------------------------------------- *)

let cache_fixture () =
  let seed = 11 in
  let d = Netlist.Generate.random ~seed ~config:gen_config () in
  let cands =
    Engine.Rsim.mine ~config:mine_config d Engine.Stimulus.unconstrained
  in
  (d, cands)

let test_cache_warm_run () =
  let d, cands = cache_fixture () in
  check "fixture mines candidates" true (List.length cands > 3);
  let cache = Engine.Proof_cache.create () in
  let cold, cst =
    Engine.Induction.prove_parallel ~jobs:2 ~cache ~assume:D.net_true d cands
  in
  check_int "cold run: no hits" 0 cst.Engine.Induction.cache_hits;
  check_int "cold run: all misses" (List.length cands)
    cst.Engine.Induction.cache_misses;
  let warm, wst =
    Engine.Induction.prove_parallel ~jobs:2 ~cache ~assume:D.net_true d cands
  in
  (* 100% hit: every candidate settled without any SAT call *)
  check_int "warm run: all hits" (List.length cands)
    wst.Engine.Induction.cache_hits;
  check_int "warm run: zero SAT calls" 0 wst.Engine.Induction.sat_calls;
  check_int "warm run: zero workers" 0 wst.Engine.Induction.workers;
  check "warm run: identical proved list" true (cold = warm)

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pdat_cache_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_cache_disk_persistence () =
  let d, cands = cache_fixture () in
  with_temp_dir (fun dir ->
      let cache = Engine.Proof_cache.create ~dir () in
      let cold, _ =
        Engine.Induction.prove_parallel ~jobs:1 ~cache ~assume:D.net_true d
          cands
      in
      Engine.Proof_cache.flush cache;
      check "scope file written" true
        (Array.exists
           (fun f -> Filename.check_suffix f ".pdatcache")
           (Sys.readdir dir));
      (* a brand-new cache instance over the same directory: the second
         process' run is fully served from disk *)
      let cache2 = Engine.Proof_cache.create ~dir () in
      let warm, wst =
        Engine.Induction.prove_parallel ~jobs:1 ~cache:cache2
          ~assume:D.net_true d cands
      in
      check_int "warm across processes: zero SAT calls" 0
        wst.Engine.Induction.sat_calls;
      check "identical proved list across processes" true (cold = warm);
      check_int "no corrupt files seen" 0
        (Engine.Proof_cache.stats cache2).Engine.Proof_cache.corrupt_files)

let test_cache_mutated_netlist_is_cold () =
  let d, cands = cache_fixture () in
  let cache = Engine.Proof_cache.create () in
  let _ =
    Engine.Induction.prove_parallel ~jobs:1 ~cache ~assume:D.net_true d cands
  in
  (* swap one cell's function: a different design must never reuse the
     old verdicts, even though every net id still exists *)
  let d' = D.copy d in
  let swapped = ref false in
  (try
     D.iter_cells d' (fun i c ->
         if not !swapped then
           match c.D.kind with
           | C.And2 ->
               D.replace_cell d' i C.Or2 c.D.ins;
               swapped := true
           | C.Or2 ->
               D.replace_cell d' i C.And2 c.D.ins;
               swapped := true
           | _ -> ())
   with _ -> ());
  check "a cell was swapped" true !swapped;
  let proved', st' =
    Engine.Induction.prove_parallel ~jobs:1 ~cache ~assume:D.net_true d' cands
  in
  check_int "mutated design: zero cache hits" 0 st'.Engine.Induction.cache_hits;
  check "mutated design result is sound for the mutated design" true
    (survives_sim d' D.net_true proved' ~cycles:1000)

let test_cache_corrupt_files_are_cold () =
  let d, cands = cache_fixture () in
  with_temp_dir (fun dir ->
      let seed_cache = Engine.Proof_cache.create ~dir () in
      let cold, _ =
        Engine.Induction.prove_parallel ~jobs:1 ~cache:seed_cache
          ~assume:D.net_true d cands
      in
      Engine.Proof_cache.flush seed_cache;
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".pdatcache")
      in
      check "scope file exists" true (files <> []);
      let path = Filename.concat dir (List.hd files) in
      let quarantined () =
        let q = Filename.concat dir "quarantine" in
        if Sys.file_exists q then Array.length (Sys.readdir q) else 0
      in
      let damage_and_check label ~salvage mutate =
        let q_before = quarantined () in
        mutate path;
        let cache = Engine.Proof_cache.create ~dir () in
        let proved, st =
          Engine.Induction.prove_parallel ~jobs:1 ~cache ~assume:D.net_true d
            cands
        in
        let cst = Engine.Proof_cache.stats cache in
        (* the damage is detected, counted and quarantined; whatever the
           CRC check could salvage from the valid prefix may still serve
           hits, but the final result must equal the cold run's *)
        check (label ^ ": same proved list as cold") true (proved = cold);
        check (label ^ ": corruption counted") true
          (cst.Engine.Proof_cache.corrupt_files = 1);
        check (label ^ ": damaged file quarantined") true
          (quarantined () > q_before);
        if salvage then
          check (label ^ ": valid prefix salvaged") true
            (cst.Engine.Proof_cache.salvaged_entries > 0
            && st.Engine.Induction.cache_hits
               = cst.Engine.Proof_cache.salvaged_entries)
        else begin
          check (label ^ ": nothing salvaged, no stale hits") true
            (cst.Engine.Proof_cache.salvaged_entries = 0
            && st.Engine.Induction.cache_hits = 0);
          check (label ^ ": SAT actually ran") true
            (st.Engine.Induction.sat_calls > 0)
        end;
        (* the damaged file is replaced by a clean one on flush *)
        Engine.Proof_cache.flush cache;
        let cache2 = Engine.Proof_cache.create ~dir () in
        let _, st2 =
          Engine.Induction.prove_parallel ~jobs:1 ~cache:cache2
            ~assume:D.net_true d cands
        in
        check (label ^ ": healed after flush") true
          (st2.Engine.Induction.sat_calls = 0)
      in
      (* mid-entry truncation keeps the header and a valid prefix *)
      damage_and_check "truncated" ~salvage:true (fun p ->
          let n = (Unix.stat p).Unix.st_size in
          let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd (n / 2);
          Unix.close fd);
      damage_and_check "garbage" ~salvage:false (fun p ->
          let oc = open_out p in
          output_string oc "not a cache file\nat all\n";
          close_out oc))

let test_cache_stale_tmp_cleanup () =
  let d, cands = cache_fixture () in
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      (* an orphan tmp from a crashed writer *)
      let stale = Filename.concat dir "deadbeef.pdatcache.1234.tmp" in
      let oc = open_out stale in
      output_string oc "half-written";
      close_out oc;
      let cache = Engine.Proof_cache.create ~dir () in
      check "stale tmp swept on open" false (Sys.file_exists stale);
      (* flush goes through a pid-unique tmp and leaves no tmp behind *)
      let _ =
        Engine.Induction.prove_parallel ~jobs:1 ~cache ~assume:D.net_true d
          cands
      in
      Engine.Proof_cache.flush cache;
      let leftover =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".tmp")
      in
      check "no tmp file survives a flush" true (leftover = []))

let test_cache_eviction () =
  let d, cands = cache_fixture () in
  with_temp_dir (fun dir ->
      (* seed one scope file, then open with a 1-byte budget: the next
         flush must evict down to (under) the budget *)
      let seed = Engine.Proof_cache.create ~dir () in
      let _ =
        Engine.Induction.prove_parallel ~jobs:1 ~cache:seed ~assume:D.net_true
          d cands
      in
      Engine.Proof_cache.flush seed;
      let scope_files () =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".pdatcache")
      in
      check "seed run wrote a scope file" true (scope_files () <> []);
      let bounded = Engine.Proof_cache.create ~dir ~max_bytes:1 () in
      let _ =
        Engine.Induction.prove_parallel ~jobs:1 ~cache:bounded
          ~assume:D.net_true d cands
      in
      Engine.Proof_cache.flush bounded;
      check "over-budget scope files evicted" true (scope_files () = []);
      check "eviction counted" true
        ((Engine.Proof_cache.stats bounded).Engine.Proof_cache.evicted_files
        >= 1))

let test_shard_checkpoint_resume () =
  let d, cands = twin_design () in
  let serial, _ = Engine.Induction.prove ~assume:D.net_true d cands in
  (* run 1 checkpoints every settled shard, as the run journal would *)
  let checkpoints = ref [] in
  let par, _ =
    Engine.Induction.prove_parallel ~jobs:2
      ~checkpoint:(fun fp proved -> checkpoints := (fp, proved) :: !checkpoints)
      ~assume:D.net_true d cands
  in
  check "run 1 matches serial" true (same_set serial par);
  check_int "both shards checkpointed" 2 (List.length !checkpoints);
  (* run 2 is handed the checkpoints: both shards are settled without
     forking a single worker, and the join round lands on the same set *)
  let par2, st2 =
    Engine.Induction.prove_parallel ~jobs:2 ~recovered:!checkpoints
      ~assume:D.net_true d cands
  in
  check_int "both shards resumed from checkpoints" 2
    st2.Engine.Induction.resumed_shards;
  check_int "no worker forked" 0 (List.length st2.Engine.Induction.worker_times);
  check "resumed run matches serial" true (same_set serial par2)

(* --- the chaos matrix: crash-safety end-to-end ------------------------- *)

(* Like [twin_design], but sized so pipeline mining reliably finds the
   per-block constants and the sharder gets two disjoint components. *)
let chaos_design () =
  let d = D.create "chaos_twin" in
  let block name =
    let a = D.add_input d ("in_" ^ name) in
    let na = D.add_cell d C.Inv [| a |] in
    let zero = D.add_cell d C.And2 [| a; na |] in
    let r = D.add_dff d ~d:zero () in
    let r2 = D.add_dff d ~d:r () in
    D.add_output d ("y_" ^ name) (D.add_cell d C.Or2 [| r; r2 |])
  in
  block "a";
  block "b";
  d

let test_chaos_matrix () =
  let d = chaos_design () in
  let env = Pdat.Environment.unconstrained d in
  with_temp_dir (fun dir ->
      let scenarios =
        Pdat.Chaos_harness.matrix ~jobs:2 ~retries:2 ~dir ~design:d ~env ()
      in
      check_int "three scenarios ran" 3 (List.length scenarios);
      List.iter
        (fun s ->
          check
            (Printf.sprintf "chaos scenario %s: %s" s.Pdat.Chaos_harness.name
               s.Pdat.Chaos_harness.detail)
            true s.Pdat.Chaos_harness.ok)
        scenarios)

(* --- the flagship kernel at scale (mirrors the bench `parallel` target) -- *)

let test_ibex_parallel_identity () =
  let t = Cores.Ibex_like.build () in
  let d = t.Cores.Ibex_like.design in
  let env =
    Pdat.Environment.riscv_cutpoint d ~nets:(Cores.Ibex_like.cutpoint_nets t)
      Isa.Subset.rv32i
  in
  let model = env.Pdat.Environment.model in
  let assume = env.Pdat.Environment.assume in
  let rsim = { Engine.Rsim.default with Engine.Rsim.cycles = 400; runs = 2 } in
  let cands =
    Pdat.Property_library.mine ~config:rsim ~model ~assume
      ~stimulus:env.Pdat.Environment.stimulus ()
    |> Pdat.Property_library.restrict_to_original ~original:d
    |> Engine.Rsim.refine ~config:rsim ~assume model
         env.Pdat.Environment.stimulus
  in
  let opts =
    { Engine.Induction.k = 1; call_conflict_budget = 30_000;
      total_conflict_budget = -1; time_budget_s = infinity }
  in
  let p1, _ =
    Engine.Induction.prove_parallel ~options:opts ~jobs:1 ~assume model cands
  in
  check "proves a substantial set" true (List.length p1 > 50);
  let cache = Engine.Proof_cache.create () in
  let p4, s4 =
    Engine.Induction.prove_parallel ~options:opts ~jobs:4 ~cache ~assume model
      cands
  in
  check "jobs=4 proved set identical to jobs=1" true (same_set p1 p4);
  check "four workers ran" true (s4.Engine.Induction.workers >= 2);
  check_int "no workers lost" 0 s4.Engine.Induction.workers_failed;
  (* warm rerun: >= 95% of SAT calls skipped (here: all of them) *)
  let pw, sw =
    Engine.Induction.prove_parallel ~options:opts ~jobs:4 ~cache ~assume model
      cands
  in
  check "warm proved set identical" true (same_set p1 pw);
  check "warm run skips >= 95% of SAT calls" true
    (float_of_int sw.Engine.Induction.sat_calls
    <= 0.05 *. float_of_int (max 1 s4.Engine.Induction.sat_calls));
  (* --- the rv32i certificate audit (acceptance criterion) --------------
     every Rewire edit on the reduced Ibex must carry a certificate the
     auditor validates against the proved set, and a deliberately
     corrupted certificate (one wrong invariant id) must be rejected *)
  let rewired, cert = Pdat.Rewire.apply_certified d p1 in
  check "certificate covers the whole rewiring" true
    (Analysis.Certificate.length cert > 0);
  check "every edit cites a proved invariant" true
    (List.for_all
       (fun (e : Analysis.Certificate.edit) ->
         List.exists
           (Engine.Candidate.equal e.Analysis.Certificate.justification)
           p1)
       cert.Analysis.Certificate.edits);
  (match
     Analysis.Audit.run ~original:d ~rewired ~proved:p1 ~certificate:cert ()
   with
  | [] -> ()
  | diag :: _ ->
      Alcotest.failf "audit rejected the honest ibex certificate: %s"
        (Analysis.Diag.to_string diag));
  (* corrupt one justification to an invariant id nobody proved *)
  let corruptible (e : Analysis.Certificate.edit) =
    match e.Analysis.Certificate.justification with
    | Engine.Candidate.Const (n, b) ->
        let wrong = Engine.Candidate.Const (n, not b) in
        if List.exists (Engine.Candidate.equal wrong) p1 then None
        else Some { e with Analysis.Certificate.justification = wrong }
    | Engine.Candidate.Implies _ -> None
  in
  let corrupted = ref false in
  let edits' =
    List.map
      (fun e ->
        if !corrupted then e
        else
          match corruptible e with
          | Some e' ->
              corrupted := true;
              e'
          | None -> e)
      cert.Analysis.Certificate.edits
  in
  check "found an edit to corrupt" true !corrupted;
  let audit' =
    Analysis.Audit.run ~original:d ~rewired ~proved:p1
      ~certificate:{ Analysis.Certificate.edits = edits' } ()
  in
  check "corrupted certificate rejected" true (audit' <> []);
  check "rejection cites cert-unjustified" true
    (List.exists
       (fun (x : Analysis.Diag.t) -> x.Analysis.Diag.rule = "cert-unjustified")
       audit')

let () =
  Random.self_init ();
  Alcotest.run "prover_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "incremental == snapshot == parallel, 50 netlists"
            `Slow test_differential;
          Alcotest.test_case
            "budget-3 step loop: subset of the oracle, sound, 50 netlists"
            `Slow test_starved_budget;
          Alcotest.test_case "killed worker is retried, nothing lost"
            `Quick test_crash_retry;
          Alcotest.test_case "exhausted retries fall back to serial"
            `Quick test_crash_fallback;
          Alcotest.test_case "chaos kill of every worker still recovers"
            `Quick test_chaos_kill_every_worker;
          Alcotest.test_case "attribution identical under chaos kills" `Quick
            test_chaos_attribution_identity;
          Alcotest.test_case "checkpointed shards resume without workers"
            `Quick test_shard_checkpoint_resume;
        ] );
      ( "cache",
        [
          Alcotest.test_case "warm run is 100% hits, zero SAT" `Quick
            test_cache_warm_run;
          Alcotest.test_case "persists across cache instances" `Quick
            test_cache_disk_persistence;
          Alcotest.test_case "mutated netlist never reuses stale entries"
            `Quick test_cache_mutated_netlist_is_cold;
          Alcotest.test_case "corruption salvaged, quarantined, healed" `Quick
            test_cache_corrupt_files_are_cold;
          Alcotest.test_case "stale tmps swept, flush leaves none" `Quick
            test_cache_stale_tmp_cleanup;
          Alcotest.test_case "size budget evicts oldest scope files" `Quick
            test_cache_eviction;
        ] );
      ( "chaos",
        [
          Alcotest.test_case
            "matrix: worker kills, cache truncation, sigterm + resume" `Slow
            test_chaos_matrix;
        ] );
      ( "ibex",
        [
          Alcotest.test_case "jobs=4 identity + warm-cache skip" `Slow
            test_ibex_parallel_identity;
        ] );
    ]
