type row = {
  variant : Variants.t;
  area : float;
  gates : int;
  baseline_area : float;
  baseline_gates : int;
  proved : int;
  seconds : float;
}

let area_delta r = Netlist.Stats.delta_pct ~baseline:r.baseline_area r.area

let gate_delta r =
  Netlist.Stats.delta_pct
    ~baseline:(float_of_int r.baseline_gates)
    (float_of_int r.gates)

(* ------------- shared core instances -------------------------------- *)

let ibex = lazy (Cores.Ibex_like.build ())

let cm0_obfuscated =
  lazy
    (let t = Cores.Cm0_like.build () in
     Netlist.Obfuscate.run t.Cores.Cm0_like.design)

let ridecore_full = lazy (Cores.Ridecore_like.build ())

let ridecore_fast =
  lazy (Cores.Ridecore_like.build ~config:Cores.Ridecore_like.fast_config ())

let design_of ?(fast = false) (v : Variants.t) =
  match v.Variants.core with
  | Variants.Ibex -> (Lazy.force ibex).Cores.Ibex_like.design
  | Variants.Cm0 -> Lazy.force cm0_obfuscated
  | Variants.Ridecore ->
      (Lazy.force (if fast then ridecore_fast else ridecore_full))
        .Cores.Ridecore_like.design

let cut_nets_of (v : Variants.t) =
  match v.Variants.core with
  | Variants.Ibex -> Some (Cores.Ibex_like.cutpoint_nets (Lazy.force ibex))
  | Variants.Cm0 | Variants.Ridecore -> None

let rsim_config ?(fast = false) (v : Variants.t) =
  let base = Engine.Rsim.default in
  match v.Variants.core with
  | Variants.Ibex | Variants.Cm0 ->
      { base with Engine.Rsim.cycles = 400; runs = 2 }
  | Variants.Ridecore ->
      { base with Engine.Rsim.cycles = (if fast then 256 else 384); runs = 2 }

let induction_options ?(fast = false) (v : Variants.t) =
  (* per-call caps keep single SAT queries from monopolizing the run
     (an inconclusive query only drops its candidates); total caps
     bound each variant's worst case *)
  match v.Variants.core with
  | Variants.Ibex | Variants.Cm0 ->
      { Engine.Induction.k = 1; call_conflict_budget = 30_000;
        total_conflict_budget = 2_000_000; time_budget_s = infinity }
  | Variants.Ridecore ->
      { Engine.Induction.k = 1;
        call_conflict_budget = (if fast then 30_000 else 60_000);
        total_conflict_budget = (if fast then 1_000_000 else 4_000_000);
        time_budget_s = infinity }

(* one proof cache shared by every variant of a session: Ibex variants
   reuse each other's verdicts whenever their (model, assume) scopes
   coincide *)
let shared_cache = lazy (Engine.Proof_cache.create ())

let run ?(fast = false) ?cache (v : Variants.t) =
  let cache =
    match cache with Some c -> c | None -> Lazy.force shared_cache
  in
  let t0 = Obs.Clock.now_s () in
  let design = design_of ~fast v in
  let row ~(before : Netlist.Stats.t) ~(after : Netlist.Stats.t) ~proved =
    {
      variant = v;
      area = after.Netlist.Stats.area;
      gates = Netlist.Stats.gate_count after;
      baseline_area = before.Netlist.Stats.area;
      baseline_gates = Netlist.Stats.gate_count before;
      proved;
      seconds = Obs.Clock.now_s () -. t0;
    }
  in
  match v.Variants.make_env design ~cut_nets:(cut_nets_of v) with
  | None ->
      let _, base = Pdat.Pipeline.baseline design in
      row ~before:base ~after:base ~proved:0
  | Some env ->
      let r =
        (Pdat.Pipeline.run ~rsim:(rsim_config ~fast v)
           ~induction:(induction_options ~fast v) ~cache ~design ~env ())
          .Pdat.Pipeline.report
      in
      row ~before:r.Pdat.Pipeline.before ~after:r.Pdat.Pipeline.after
        ~proved:r.Pdat.Pipeline.proved

let run_figure ?fast ?cache figure =
  List.map (run ?fast ?cache) (Variants.by_figure figure)

let pp_row fmt r =
  Format.fprintf fmt "%-22s %9.1f um^2 (%+6.1f%%)  %6d gates (%+6.1f%%)  [proved %5d, %5.1fs]"
    r.variant.Variants.label r.area (-.area_delta r) r.gates (-.gate_delta r)
    r.proved r.seconds

let pp_rows ?title fmt rows =
  Format.fprintf fmt "@[<v>";
  Option.iter (Format.fprintf fmt "== %s ==@,") title;
  List.sort_uniq compare
    (List.map (fun r -> (r.baseline_area, r.baseline_gates)) rows)
  |> List.iter (fun (area, gates) ->
         Format.fprintf fmt "deltas against Full: %.1f um^2, %d gates@," area
           gates);
  List.iter (fun r -> Format.fprintf fmt "%a@," pp_row r) rows;
  Format.fprintf fmt "@]"
