module D = Netlist.Design
module Cand = Engine.Candidate
module I = Engine.Induction
module P = Provenance

(* ---------------- JSON plumbing ------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ escape s ^ "\""

(* Fixed-precision floats keep the JSON byte-stable: every area in the
   repo is a finite sum of Liberty constants, so two decimals never
   flap between runs. *)
let jarea f = Printf.sprintf "%.2f" f
let jpct f = Printf.sprintf "%.2f" f
let jopt_int = function Some i -> string_of_int i | None -> "null"
let jlist l = "[" ^ String.concat "," l ^ "]"
let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

(* ---------------- resume provenance --------------------------------- *)

(* Mirrors Pdat.Pipeline.resume_info without depending on the pdat
   library (report sits below it in the dependency order). *)
type resume_summary = {
  rs_journal : string;
  rs_resumed : bool;
  rs_stages : string list;
  rs_shards : int;
  rs_dropped_lines : int;
}

(* ---------------- shared derivations -------------------------------- *)

type status =
  | Refine_killed of Engine.Rsim.kill
  | Prover of I.attribution
  | Unresolved

let status_of (r : P.cand_record) =
  match (r.refine_kill, r.attribution) with
  | Some k, _ -> Refine_killed k
  | None, Some a -> Prover a
  | None, None -> Unresolved

let status_label = function
  | Refine_killed _ -> "refine-killed"
  | Prover a -> I.verdict_label a.I.verdict
  | Unresolved -> "unresolved"

type summary = {
  s_candidates : int;
  s_refine_killed : int;
  s_proved : int;  (* fresh + cached proofs: what rewiring may use *)
  s_refuted : int;
  s_sim_killed : int;
  s_not_inductive : int;
  s_dropped : int;
  s_cached_proved : int;
  s_cached_disproved : int;
  s_static_proved : int;
  s_unresolved : int;
  s_with_cex : int;
}

let summarize records =
  let s =
    ref
      {
        s_candidates = 0;
        s_refine_killed = 0;
        s_proved = 0;
        s_refuted = 0;
        s_sim_killed = 0;
        s_not_inductive = 0;
        s_dropped = 0;
        s_cached_proved = 0;
        s_cached_disproved = 0;
        s_static_proved = 0;
        s_unresolved = 0;
        s_with_cex = 0;
      }
  in
  List.iter
    (fun r ->
      let t = !s in
      let t = { t with s_candidates = t.s_candidates + 1 } in
      let t =
        if r.P.cex_file <> None then { t with s_with_cex = t.s_with_cex + 1 }
        else t
      in
      s :=
        (match status_of r with
        | Refine_killed _ -> { t with s_refine_killed = t.s_refine_killed + 1 }
        | Unresolved -> { t with s_unresolved = t.s_unresolved + 1 }
        | Prover a -> (
            match a.I.verdict with
            | I.V_proved _ -> { t with s_proved = t.s_proved + 1 }
            | I.V_refuted _ -> { t with s_refuted = t.s_refuted + 1 }
            | I.V_sim_killed -> { t with s_sim_killed = t.s_sim_killed + 1 }
            | I.V_not_inductive ->
                { t with s_not_inductive = t.s_not_inductive + 1 }
            | I.V_dropped _ -> { t with s_dropped = t.s_dropped + 1 }
            | I.V_cached Engine.Proof_cache.Proved ->
                {
                  t with
                  s_proved = t.s_proved + 1;
                  s_cached_proved = t.s_cached_proved + 1;
                }
            | I.V_cached Engine.Proof_cache.Disproved ->
                { t with s_cached_disproved = t.s_cached_disproved + 1 }
            | I.V_static_proved ->
                (* statically discharged candidates are proofs: the
                   rewiring stage may cite them like any other invariant *)
                {
                  t with
                  s_proved = t.s_proved + 1;
                  s_static_proved = t.s_static_proved + 1;
                })))
    records;
  !s

let via_label = function
  | Analysis.Certificate.Direct -> "direct"
  | Analysis.Certificate.Fresh_inv _ -> "fresh-inv"

let net_label prov n =
  match P.designs prov with
  | Some ds -> D.net_name ds.P.original n
  | None -> Printf.sprintf "n%d" n

(* ---------------- JSON report --------------------------------------- *)

let stats_json st =
  jobj
    [
      ("cells", string_of_int (Netlist.Stats.total_cells st));
      ("gates", string_of_int st.Netlist.Stats.gates);
      ("buffers", string_of_int st.Netlist.Stats.buffers);
      ("flops", string_of_int st.Netlist.Stats.flops);
      ("area", jarea st.Netlist.Stats.area);
      ( "groups",
        jlist
          (List.map
             (fun (g : Netlist.Stats.group) ->
               jobj
                 [
                   ("label", jstr g.Netlist.Stats.label);
                   ("count", string_of_int g.Netlist.Stats.count);
                   ("area", jarea g.Netlist.Stats.area);
                   ( "kinds",
                     jlist
                       (List.map
                          (fun (k, c, a) ->
                            jobj
                              [
                                ("kind", jstr (Netlist.Cell.name k));
                                ("count", string_of_int c);
                                ("area", jarea a);
                              ])
                          g.Netlist.Stats.kinds) );
                 ])
             (Netlist.Stats.groups st)) );
    ]

let delta_rows_json rows =
  jlist
    (List.map
       (fun (r : Netlist.Stats.delta_row) ->
         jobj
           [
             ("kind", jstr (Netlist.Cell.name r.Netlist.Stats.kind));
             ("before", string_of_int r.Netlist.Stats.count_before);
             ("after", string_of_int r.Netlist.Stats.count_after);
             ("area_before", jarea r.Netlist.Stats.area_before);
             ("area_after", jarea r.Netlist.Stats.area_after);
           ])
       rows)

let cand_json prov (r : P.cand_record) =
  let base =
    match r.P.cand with
    | Cand.Const (n, b) ->
        [
          ("id", string_of_int r.P.id);
          ("kind", jstr "const");
          ("net", jstr (net_label prov n));
          ("value", string_of_bool b);
        ]
    | Cand.Implies { cell; a; b } ->
        [
          ("id", string_of_int r.P.id);
          ("kind", jstr "implies");
          ("cell", string_of_int cell);
          ("a", jstr (net_label prov a));
          ("b", jstr (net_label prov b));
        ]
  in
  let mined = [ ("mined_round", jopt_int r.P.mined_round) ] in
  let st = status_of r in
  let status_fields =
    [ ("status", jstr (status_label st)) ]
    @ (match st with
      | Refine_killed k ->
          [
            ("run", string_of_int k.Engine.Rsim.k_run);
            ("cycle", string_of_int k.Engine.Rsim.k_cycle);
            ("lane", string_of_int k.Engine.Rsim.k_lane);
          ]
      | Prover a -> (
          [ ("shard", jopt_int a.I.shard);
            ("cache_hit", string_of_bool a.I.cache_hit) ]
          @
          match a.I.verdict with
          | I.V_proved { k } -> [ ("k", string_of_int k) ]
          | I.V_refuted { frame; cex } ->
              [ ("frame", string_of_int frame) ]
              @ (match cex with
                | Some c -> [ ("cex_frames", string_of_int (Engine.Cex.length c)) ]
                | None -> [])
          | I.V_dropped reason -> [ ("reason", jstr reason) ]
          | I.V_sim_killed | I.V_not_inductive | I.V_cached _
          | I.V_static_proved ->
              [])
      | Unresolved -> [])
  in
  let cex_field =
    match r.P.cex_file with
    | Some p -> [ ("cex_file", jstr (Filename.basename p)) ]
    | None -> []
  in
  jobj (base @ mined @ status_fields @ cex_field)

let edit_json prov (e : P.edit_record) =
  jobj
    [
      ("index", string_of_int e.P.e_index);
      ("net", jstr (net_label prov e.P.e_edit.Analysis.Certificate.net));
      ("target", jstr (net_label prov e.P.e_edit.Analysis.Certificate.target));
      ("via", jstr (via_label e.P.e_edit.Analysis.Certificate.via));
      ("invariants", jlist (List.map string_of_int e.P.e_invariants));
      ( "dead_cells",
        jlist
          (List.map
             (fun (ci, k) ->
               jobj
                 [
                   ("cell", string_of_int ci);
                   ("kind", jstr (Netlist.Cell.name k));
                 ])
             e.P.e_dead) );
    ]

(* Deterministic projection of a cost row: wall time is deliberately
   omitted (render.mli promises the JSON carries no wall-clock data);
   ranking inside [top_costs] never used it either. *)
let attr_row_json (r : Obs.Attr.row) =
  jobj
    [
      ("key", jstr r.Obs.Attr.a_key);
      ("shard", jopt_int r.Obs.Attr.a_shard);
      ("sat_calls", string_of_int r.Obs.Attr.a_sat_calls);
      ("conflicts", string_of_int r.Obs.Attr.a_conflicts);
      ("static", string_of_bool r.Obs.Attr.a_static);
    ]

let json ?(target = "design") ?induction ?resume prov =
  let records = P.records prov in
  let s = summarize records in
  let edits = P.edits prov in
  let dead_per_edit =
    List.fold_left (fun acc e -> acc + List.length e.P.e_dead) 0 edits
  in
  let summary_json =
    jobj
      [
        ("candidates", string_of_int s.s_candidates);
        ("refine_killed", string_of_int s.s_refine_killed);
        ("proved", string_of_int s.s_proved);
        ("refuted", string_of_int s.s_refuted);
        ("sim_killed", string_of_int s.s_sim_killed);
        ("not_inductive", string_of_int s.s_not_inductive);
        ("dropped", string_of_int s.s_dropped);
        ("cached_proved", string_of_int s.s_cached_proved);
        ("cached_disproved", string_of_int s.s_cached_disproved);
        ("static_proved", string_of_int s.s_static_proved);
        ("unresolved", string_of_int s.s_unresolved);
        ("with_counterexample", string_of_int s.s_with_cex);
        ("edits", string_of_int (List.length edits));
        ("rewire_dead_cells", string_of_int dead_per_edit);
        ( "unattributed_dead_cells",
          string_of_int (List.length (P.unattributed_dead prov)) );
      ]
  in
  let area_json =
    match P.designs prov with
    | None -> "null"
    | Some ds ->
        let st_orig = Netlist.Stats.of_design ds.P.original in
        let st_rew = Netlist.Stats.of_design ds.P.rewired in
        let st_red = Netlist.Stats.of_design ds.P.reduced in
        let st_base = Netlist.Stats.of_design ds.P.baseline in
        jobj
          [
            ("original", stats_json st_orig);
            ("rewired", stats_json st_rew);
            ("reduced", stats_json st_red);
            ("baseline", stats_json st_base);
            ( "resynth_delta",
              delta_rows_json
                (Netlist.Stats.delta_by_kind ~before:st_rew ~after:st_red) );
            ( "delta_vs_baseline",
              delta_rows_json
                (Netlist.Stats.delta_by_kind ~before:st_base ~after:st_red) );
            ( "area_delta_pct",
              jpct
                (Netlist.Stats.delta_pct
                   ~baseline:st_base.Netlist.Stats.area
                   st_red.Netlist.Stats.area) );
            ( "gate_delta_pct",
              jpct
                (Netlist.Stats.delta_pct
                   ~baseline:
                     (float_of_int (Netlist.Stats.gate_count st_base))
                   (float_of_int (Netlist.Stats.gate_count st_red))) );
          ]
  in
  let costs_fields =
    match induction with
    | None -> []
    | Some (st : I.stats) ->
        [
          ( "costs",
            jobj
              [
                ( "top_candidates",
                  jlist (List.map attr_row_json st.I.top_costs) );
                ( "load_balance",
                  jobj
                    [
                      ("workers", string_of_int st.I.workers);
                      ( "shard_sizes",
                        jlist (List.map string_of_int st.I.shard_sizes) );
                    ] );
              ] );
        ]
  in
  let resume_fields =
    match resume with
    | None -> []
    | Some r ->
        [
          ( "resume",
            jobj
              [
                (* basename only: the run directory is machine-local,
                   and the golden tests require byte-stable output *)
                ("journal", jstr (Filename.basename r.rs_journal));
                ("resumed", if r.rs_resumed then "true" else "false");
                ("replayed_stages", jlist (List.map jstr r.rs_stages));
                ("resumed_shards", string_of_int r.rs_shards);
                ("dropped_lines", string_of_int r.rs_dropped_lines);
              ] );
        ]
  in
  jobj
    ([
       ("schema_version", string_of_int Meta.schema_version);
       ("target", jstr target);
       ("summary", summary_json);
      ("invariants", jlist (List.map (cand_json prov) records));
      ("edits", jlist (List.map (edit_json prov) edits));
      ( "unattributed_dead",
        jlist
          (List.map
             (fun (ci, k) ->
               jobj
                 [
                   ("cell", string_of_int ci);
                   ("kind", jstr (Netlist.Cell.name k));
                 ])
             (P.unattributed_dead prov)) );
      ("area", area_json);
    ]
    @ costs_fields @ resume_fields)
  ^ "\n"

(* ---------------- markdown report ----------------------------------- *)

let cand_pp prov (r : P.cand_record) =
  match r.P.cand with
  | Cand.Const (n, b) ->
      Printf.sprintf "`%s == %d`" (net_label prov n) (if b then 1 else 0)
  | Cand.Implies { a; b; _ } ->
      Printf.sprintf "`%s -> %s`" (net_label prov a) (net_label prov b)

let markdown ?(target = "design") ?(timings = []) ?(histograms = []) ?commit
    ?induction ?resume prov =
  let b = Buffer.create 8192 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let records = P.records prov in
  let s = summarize records in
  let edits = P.edits prov in
  let dead_total =
    List.fold_left (fun acc e -> acc + List.length e.P.e_dead) 0 edits
  in
  pr "# PDAT run report — %s\n\n" target;
  (* --- the paper's table shape: per-stage funnel ------------------- *)
  let mined_rounds =
    List.fold_left
      (fun acc r ->
        match r.P.mined_round with Some x -> max acc x | None -> acc)
      0 records
  in
  pr "## Pipeline funnel\n\n";
  pr "| stage | survivors | detail |\n|---|---|---|\n";
  pr "| mine | %d candidates | last new evidence in rsim round %d |\n"
    s.s_candidates mined_rounds;
  pr "| refine | %d | %d killed in long simulation |\n"
    (s.s_candidates - s.s_refine_killed)
    s.s_refine_killed;
  pr
    "| prove | %d proved | %d refuted, %d not inductive, %d sim-killed, %d \
     dropped; %d/%d from cache |\n"
    s.s_proved s.s_refuted s.s_not_inductive s.s_sim_killed s.s_dropped
    s.s_cached_proved
    (s.s_cached_proved + s.s_cached_disproved);
  if s.s_static_proved > 0 then
    pr "| absint | %d static-proved | discharged without SAT |\n"
      s.s_static_proved;
  pr "| rewire | %d edits | %d original cells made dead |\n"
    (List.length edits) dead_total;
  (match P.designs prov with
  | None -> pr "| resynth | — | design snapshots not recorded |\n\n"
  | Some ds ->
      let st_rew = Netlist.Stats.of_design ds.P.rewired in
      let st_red = Netlist.Stats.of_design ds.P.reduced in
      let st_base = Netlist.Stats.of_design ds.P.baseline in
      pr "| resynth | %d cells | %d cells and %.2f um^2 removed |\n"
        (Netlist.Stats.total_cells st_red)
        (Netlist.Stats.total_cells st_rew - Netlist.Stats.total_cells st_red)
        (st_rew.Netlist.Stats.area -. st_red.Netlist.Stats.area);
      pr "| vs baseline | %.2f%% area, %.2f%% gates | baseline %.2f um^2 → \
          reduced %.2f um^2 |\n"
        (Netlist.Stats.delta_pct ~baseline:st_base.Netlist.Stats.area
           st_red.Netlist.Stats.area)
        (Netlist.Stats.delta_pct
           ~baseline:(float_of_int (Netlist.Stats.gate_count st_base))
           (float_of_int (Netlist.Stats.gate_count st_red)))
        st_base.Netlist.Stats.area st_red.Netlist.Stats.area;
      pr "\n## Area breakdown\n\n";
      pr "| design | cells | gates | buffers | flops | area (um^2) |\n";
      pr "|---|---|---|---|---|---|\n";
      List.iter
        (fun (label, st) ->
          pr "| %s | %d | %d | %d | %d | %.2f |\n" label
            (Netlist.Stats.total_cells st)
            st.Netlist.Stats.gates st.Netlist.Stats.buffers
            st.Netlist.Stats.flops st.Netlist.Stats.area)
        [
          ("original", Netlist.Stats.of_design ds.P.original);
          ("rewired", st_rew);
          ("reduced", st_red);
          ("baseline", st_base);
        ];
      pr "\n### Reduced design by class\n\n";
      pr "| class | kind | count | area (um^2) |\n|---|---|---|---|\n";
      List.iter
        (fun (g : Netlist.Stats.group) ->
          pr "| **%s** | | %d | %.2f |\n" g.Netlist.Stats.label
            g.Netlist.Stats.count g.Netlist.Stats.area;
          List.iter
            (fun (k, c, a) ->
              pr "| | %s | %d | %.2f |\n" (Netlist.Cell.name k) c a)
            g.Netlist.Stats.kinds)
        (Netlist.Stats.groups st_red);
      pr "\n### Per-kind delta (baseline → reduced)\n\n";
      pr "| kind | before | after | Δ |\n|---|---|---|---|\n";
      List.iter
        (fun (r : Netlist.Stats.delta_row) ->
          pr "| %s | %d | %d | %+d |\n"
            (Netlist.Cell.name r.Netlist.Stats.kind)
            r.Netlist.Stats.count_before r.Netlist.Stats.count_after
            (r.Netlist.Stats.count_after - r.Netlist.Stats.count_before))
        (Netlist.Stats.delta_by_kind ~before:st_base ~after:st_red));
  (* --- refuted candidates with replayable waveforms ---------------- *)
  let with_cex =
    List.filter (fun r -> r.P.cex_file <> None) records
  in
  if with_cex <> [] then begin
    pr "\n## Refuted candidates with counterexample waveforms\n\n";
    pr "| id | property | refuted by | waveform |\n|---|---|---|---|\n";
    List.iter
      (fun r ->
        let how =
          match status_of r with
          | Refine_killed k ->
              Printf.sprintf "simulation (run %d, cycle %d, lane %d)"
                k.Engine.Rsim.k_run k.Engine.Rsim.k_cycle k.Engine.Rsim.k_lane
          | Prover { I.verdict = I.V_refuted { frame; _ }; _ } ->
              Printf.sprintf "induction base case (frame %d)" frame
          | st -> status_label st
        in
        pr "| %d | %s | %s | `%s` |\n" r.P.id (cand_pp prov r) how
          (Filename.basename (Option.get r.P.cex_file)))
      with_cex
  end;
  (* --- certificate edits ------------------------------------------- *)
  if edits <> [] then begin
    let cap = 200 in
    pr "\n## Rewire edits\n\n";
    pr "| # | net | target | via | invariant | dead cells |\n";
    pr "|---|---|---|---|---|---|\n";
    List.iteri
      (fun i e ->
        if i < cap then
          pr "| %d | `%s` | `%s` | %s | %s | %d |\n" e.P.e_index
            (net_label prov e.P.e_edit.Analysis.Certificate.net)
            (net_label prov e.P.e_edit.Analysis.Certificate.target)
            (via_label e.P.e_edit.Analysis.Certificate.via)
            (String.concat ", "
               (List.map (fun id -> Printf.sprintf "inv#%d" id)
                  e.P.e_invariants))
            (List.length e.P.e_dead))
      edits;
    if List.length edits > cap then
      pr "\n*(%d further edits omitted — see the JSON report)*\n"
        (List.length edits - cap)
  end;
  (match P.unattributed_dead prov with
  | [] -> ()
  | rest ->
      pr "\n**%d dead cells not attributable to any edit** — \
          this indicates an uncertified netlist change.\n"
        (List.length rest));
  (* --- crash-safety provenance ------------------------------------- *)
  (match resume with
  | None -> ()
  | Some r ->
      pr "\n## Journal\n\n";
      pr "Run journaled to `%s`.\n" r.rs_journal;
      if r.rs_resumed then begin
        pr "\nThis run **resumed** from a prior journal: %d stage(s) \
            replayed%s, %d proof shard(s) settled from checkpoints"
          (List.length r.rs_stages)
          (if r.rs_stages = [] then ""
           else " (" ^ String.concat ", " r.rs_stages ^ ")")
          r.rs_shards;
        if r.rs_dropped_lines > 0 then
          pr "; %d torn journal line(s) truncated" r.rs_dropped_lines;
        pr ".\n"
      end);
  (* --- cost attribution -------------------------------------------- *)
  (match induction with
  | None -> ()
  | Some (st : I.stats) ->
      if st.I.top_costs <> [] then begin
        pr "\n## Most expensive candidates\n\n";
        pr "| candidate | shard | SAT calls | conflicts | wall (s) | \
            static |\n";
        pr "|---|---|---|---|---|---|\n";
        List.iter
          (fun (r : Obs.Attr.row) ->
            pr "| `%s` | %s | %d | %d | %.4f | %s |\n" r.Obs.Attr.a_key
              (match r.Obs.Attr.a_shard with
              | Some i -> string_of_int i
              | None -> "—")
              r.Obs.Attr.a_sat_calls r.Obs.Attr.a_conflicts r.Obs.Attr.a_wall_s
              (if r.Obs.Attr.a_static then "yes" else ""))
          st.I.top_costs
      end;
      if st.I.workers > 0 then begin
        pr "\n## Shard load balance\n\n";
        pr "| workers | shard sizes | max wall (s) | mean wall (s) | \
            idle |\n|---|---|---|---|---|\n";
        pr "| %d | %s | %.2f | %.2f | %.0f%% |\n" st.I.workers
          (String.concat ";" (List.map string_of_int st.I.shard_sizes))
          st.I.worker_wall_max_s st.I.worker_wall_mean_s
          (100. *. st.I.worker_idle_frac)
      end);
  (* --- optional non-deterministic sections ------------------------- *)
  if timings <> [] then begin
    pr "\n## Stage timings\n\n| stage | seconds |\n|---|---|\n";
    List.iter (fun (name, sec) -> pr "| %s | %.3f |\n" name sec) timings
  end;
  if histograms <> [] then begin
    pr "\n## Latency distributions\n\n";
    pr "| distribution | count | p50 | p90 | p95 | max |\n";
    pr "|---|---|---|---|---|---|\n";
    List.iter
      (fun (name, (h : Obs.histogram)) ->
        pr "| %s | %d | %.6f | %.6f | %.6f | %.6f |\n" name h.Obs.count
          h.Obs.p50 h.Obs.p90 h.Obs.p95 h.Obs.max_v)
      histograms
  end;
  pr "\n---\nschema v%d%s\n" Meta.schema_version
    (match commit with Some c -> " · commit " ^ c | None -> "");
  Buffer.contents b
