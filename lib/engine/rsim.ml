module D = Netlist.Design

type config = {
  cycles : int;
  runs : int;
  seed : int;
}

let default = { cycles = 512; runs = 4; seed = 0xC0FFEE }

(* Deadlines are checked once per simulated cycle; an expired deadline
   just truncates the observation window, which is conservative for
   both mining (more false candidates for the prover to kill) and
   refinement (fewer cheap kills). *)
let expired deadline =
  match deadline with
  | None -> false
  | Some t -> Obs.Clock.now_s () >= t

let zeros n =
  let a = Bigarray.Array1.create Bigarray.Int64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0L;
  a

(* Per-net accumulators: bits ever seen 1 / ever seen 0.  Per-eligible-
   cell accumulators: violation masks for a->b and b->a.  All four are
   unboxed word stores read and written next to the simulator's own, so
   the per-cycle observation allocates nothing. *)
let mine ?(config = default) ?(assume = D.net_true) ?deadline ?attribution d
    stimulus =
  let sim = Netlist.Sim64.create d in
  let v = Netlist.Sim64.words sim in
  let n_nets = D.num_nets d in
  let seen1 = zeros n_nets in
  let seen0 = zeros n_nets in
  let eligible =
    let acc = ref [] in
    D.iter_cells d (fun ci c ->
        match c.D.kind with
        | Netlist.Cell.And2 | Netlist.Cell.Nand2 | Netlist.Cell.Or2
        | Netlist.Cell.Nor2 ->
            if c.D.ins.(0) <> c.D.ins.(1) then acc := (ci, c.D.ins.(0), c.D.ins.(1)) :: !acc
        | Netlist.Cell.Const0 | Netlist.Cell.Const1 | Netlist.Cell.Buf
        | Netlist.Cell.Inv | Netlist.Cell.Xor2 | Netlist.Cell.Xnor2
        | Netlist.Cell.And3 | Netlist.Cell.Or3 | Netlist.Cell.Nand3
        | Netlist.Cell.Nor3 | Netlist.Cell.And4 | Netlist.Cell.Or4
        | Netlist.Cell.Mux2 | Netlist.Cell.Aoi21 | Netlist.Cell.Oai21
        | Netlist.Cell.Dff ->
            ());
    Array.of_list !acc
  in
  let el_a = Array.map (fun (_, a, _) -> a) eligible in
  let el_b = Array.map (fun (_, _, b) -> b) eligible in
  let viol_ab = zeros (Array.length eligible) in
  let viol_ba = zeros (Array.length eligible) in
  let rng = Random.State.make [| config.seed |] in
  let feed = Stimulus.feed d stimulus in
  let set = Netlist.Sim64.set_input sim in
  (* Lanes where the environment assumption does not hold are masked
     out of observation: they neither create nor kill candidates.
     (They may still steer the state; that only widens behaviour, which
     is conservative for candidate mining.) *)
  let observed_lanes = ref 0 in
  (* Attribution (optional, for provenance): the run in which each
     net's observed-value set last grew.  A surviving candidate is
     attributed to the latest such run over its support nets — the
     round that contributed its final piece of evidence. *)
  let attributing = attribution <> None in
  let net_round = Array.make (if attributing then n_nets else 0) 0 in
  let observe run =
    let mask = v.{assume} in
    if mask <> 0L then begin
      for n = 0 to n_nets - 1 do
        let x = v.{n} and s1 = seen1.{n} and s0 = seen0.{n} in
        let s1' = Int64.logor s1 (Int64.logand x mask) in
        let s0' = Int64.logor s0 (Int64.logand (Int64.lognot x) mask) in
        if attributing && (s1' <> s1 || s0' <> s0) then net_round.(n) <- run;
        seen1.{n} <- s1';
        seen0.{n} <- s0'
      done;
      for i = 0 to Array.length el_a - 1 do
        let va = v.{el_a.(i)} and vb = v.{el_b.(i)} in
        viol_ab.{i} <-
          Int64.logor viol_ab.{i}
            (Int64.logand mask (Int64.logand va (Int64.lognot vb)));
        viol_ba.{i} <-
          Int64.logor viol_ba.{i}
            (Int64.logand mask (Int64.logand vb (Int64.lognot va)))
      done;
      incr observed_lanes
    end
  in
  let simulated = ref 0 in
  (try
     for run = 1 to config.runs do
       Netlist.Sim64.reset sim;
       for _cycle = 1 to config.cycles do
         if expired deadline then raise Exit;
         Stimulus.next_cycle feed rng set;
         Netlist.Sim64.eval sim;
         observe run;
         Netlist.Sim64.step sim;
         incr simulated
       done
     done
   with Exit -> ());
  Obs.add_int "rsim.cycles" !simulated;
  if !observed_lanes = 0 then
    if expired deadline then
      (* out of time before observing anything: no candidates is the
         graceful-degradation answer, not a crash *)
      []
    else
      failwith "Rsim.mine: the environment assumption never held in simulation"
  else begin
  (* Primary inputs and rails are not rewiring targets. *)
  let is_input = Array.make n_nets false in
  List.iter (fun (_, n) -> is_input.(n) <- true) (D.inputs d);
  let consts = ref [] in
  for n = n_nets - 1 downto 2 do
    if not is_input.(n) then
      if seen1.{n} = 0L then consts := Candidate.Const (n, false) :: !consts
      else if seen0.{n} = 0L then consts := Candidate.Const (n, true) :: !consts
  done;
  let implications = ref [] in
  Array.iteri
    (fun i (cell, a, b) ->
      (* skip implications already subsumed by a constant candidate *)
      let a_const = seen1.{a} = 0L || seen0.{a} = 0L in
      let b_const = seen1.{b} = 0L || seen0.{b} = 0L in
      if not (a_const || b_const) then begin
        if viol_ab.{i} = 0L then
          implications := Candidate.Implies { cell; a; b } :: !implications;
        if viol_ba.{i} = 0L then
          implications := Candidate.Implies { cell; a = b; b = a } :: !implications
      end)
    eligible;
    let result = !consts @ !implications in
    (match attribution with
    | None -> ()
    | Some r ->
        let round_of = function
          | Candidate.Const (n, _) -> net_round.(n)
          | Candidate.Implies { a; b; _ } -> max net_round.(a) net_round.(b)
        in
        r := List.map (fun c -> (c, round_of c)) result);
    result
  end

type kill = {
  k_run : int;
  k_cycle : int;
  k_lane : int;
  k_cex : Cex.t option;
}

let lane_of_mask m =
  let rec go m i =
    if Int64.logand m 1L <> 0L then i
    else go (Int64.shift_right_logical m 1) (i + 1)
  in
  go m 0

let refine ?(config = default) ?(assume = D.net_true) ?deadline ?kills d
    stimulus cands =
  let sim = Netlist.Sim64.create d in
  let rng = Random.State.make [| config.seed lxor 0x5EED |] in
  let feed = Stimulus.feed d stimulus in
  let set = Netlist.Sim64.set_input sim in
  let cands = Array.of_list cands in
  let probes = Candidate.probes cands in
  let alive = Array.make (Array.length cands) true in
  (* Kill attribution (optional): keep the current run's input history
     (one word per input per cycle) so a kill can be converted into a
     single-lane replayable trace from reset — the refuting assignment,
     captured where it was found. *)
  let capturing = kills <> None in
  let inputs_arr = Array.of_list (List.map snd (D.inputs d)) in
  let history = ref [] (* newest cycle first *) in
  let cex_of_lane lane =
    let frames =
      List.rev_map
        (fun words ->
          Array.map
            (fun w ->
              Int64.logand (Int64.shift_right_logical w lane) 1L <> 0L)
            words)
        !history
    in
    { Cex.inputs = inputs_arr; frames = Array.of_list frames }
  in
  let killed = ref [] in
  let simulated = ref 0 in
  (try
  for run = 1 to config.runs do
    Netlist.Sim64.reset sim;
    history := [];
    for cycle = 1 to config.cycles do
      if expired deadline then raise Exit;
      incr simulated;
      Stimulus.next_cycle feed rng set;
      Netlist.Sim64.eval sim;
      if capturing then
        history :=
          Array.map (fun n -> Netlist.Sim64.read sim n) inputs_arr :: !history;
      Candidate.iter_violated probes sim ~assume ~alive (fun i viol ->
          alive.(i) <- false;
          if capturing then begin
            let lane = lane_of_mask viol in
            killed :=
              ( cands.(i),
                {
                  k_run = run;
                  k_cycle = cycle;
                  k_lane = lane;
                  k_cex = Some (cex_of_lane lane);
                } )
              :: !killed
          end);
      Netlist.Sim64.step sim
    done
  done
  with Exit -> ());
  (match kills with None -> () | Some r -> r := List.rev !killed);
  Obs.add_int "rsim.cycles" !simulated;
  let out = ref [] in
  for i = Array.length cands - 1 downto 0 do
    if alive.(i) then out := cands.(i) :: !out
  done;
  !out
