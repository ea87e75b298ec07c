module D = Netlist.Design

type config = {
  runs : int;
  cycles : int;
  seed : int;
}

let default = { runs = 4; cycles = 256; seed = 0xD1FF }

type divergence = {
  run : int;
  cycle : int;
  lane : int;
  output : string;
  seed : int;
}

type outcome =
  | Equivalent of { runs : int; cycles : int; observations : int }
  | Divergent of divergence
  | Unsupported of string

let pp fmt = function
  | Equivalent { runs; cycles; observations } ->
      Format.fprintf fmt "equivalent (%d runs x %d cycles, %d observations)"
        runs cycles observations
  | Divergent d ->
      Format.fprintf fmt
        "diverged on output %s at run %d cycle %d lane %d (seed %d)" d.output
        d.run d.cycle d.lane d.seed
  | Unsupported reason -> Format.fprintf fmt "unsupported: %s" reason

let describe o = Format.asprintf "%a" pp o

let popcount64 x =
  let c = ref 0 in
  let x = ref x in
  while !x <> 0L do
    x := Int64.logand !x (Int64.sub !x 1L);
    incr c
  done;
  !c

let lowest_bit x =
  let rec go i = if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then i else go (i + 1) in
  go 0

let expired deadline =
  match deadline with
  | None -> false
  | Some t -> Obs.Clock.now_s () >= t

exception Next_run

let run ?(config = default) ?deadline ?stimulus ~original ~reduced ~env () =
  let ins = D.inputs original in
  let outs = D.outputs original in
  let missing_out =
    List.find_opt (fun (nm, _) -> D.find_output reduced nm = None) outs
  in
  let missing_in =
    List.find_opt (fun (nm, _) -> D.find_input reduced nm = None) ins
  in
  match (missing_out, missing_in) with
  | Some (nm, _), _ ->
      Unsupported (Printf.sprintf "reduced design lost output %S" nm)
  | _, Some (nm, _) ->
      Unsupported (Printf.sprintf "reduced design lost input %S" nm)
  | None, None ->
      (* port maps: the reduced design went through resynthesis, so its
         net ids are fresh — map by port name.  The model is a
         copy/substitute of the original, so its ids coincide. *)
      let out_map =
        List.map (fun (nm, n) -> (nm, n, Option.get (D.find_output reduced nm))) outs
      in
      let in_map = Array.make (D.num_nets original) (-1) in
      List.iter
        (fun (nm, n) -> in_map.(n) <- Option.get (D.find_input reduced nm))
        ins;
      let stimulus =
        match stimulus with
        | Some s -> s
        | None ->
            (* a cutpoint environment's stimulus drives the model's
               fresh inputs, which do not exist in the designs under
               test; fall back to free inputs with exact cut-fed
               masking *)
            if Array.length env.Environment.cuts = 0 then
              env.Environment.stimulus
            else Engine.Stimulus.unconstrained
      in
      let sim_o = Netlist.Sim64.create original in
      let sim_r = Netlist.Sim64.create reduced in
      let sim_m = Netlist.Sim64.create env.Environment.model in
      let rng = Random.State.make [| config.seed |] in
      let feed = Engine.Stimulus.feed original stimulus in
      (* nets the stimulus drives that are not inputs of the original
         exist in no design under test: skip them *)
      let set n v =
        if n >= 0 && n < Array.length in_map && in_map.(n) >= 0 then begin
          Netlist.Sim64.set_input sim_o n v;
          Netlist.Sim64.set_input sim_m n v;
          Netlist.Sim64.set_input sim_r in_map.(n) v
        end
      in
      let observations = ref 0 in
      let divergence = ref None in
      (try
         for r = 1 to config.runs do
           Netlist.Sim64.reset sim_o;
           Netlist.Sim64.reset sim_r;
           Netlist.Sim64.reset sim_m;
           (* cumulative: a lane that ever violated the assumption may
              legitimately diverge on every later cycle *)
           let ok_mask = ref (-1L) in
           try
             for cycle = 1 to config.cycles do
               if expired deadline then raise Exit;
               Engine.Stimulus.next_cycle feed rng set;
               Netlist.Sim64.eval sim_o;
               (* the monitor judges the values the original actually
                  computed on the cut nets *)
               Array.iter
                 (fun (orig_net, fresh_in) ->
                   Netlist.Sim64.set_input sim_m fresh_in
                     (Netlist.Sim64.read sim_o orig_net))
                 env.Environment.cuts;
               Netlist.Sim64.eval sim_m;
               Netlist.Sim64.eval sim_r;
               ok_mask :=
                 Int64.logand !ok_mask
                   (Netlist.Sim64.read sim_m env.Environment.assume);
               if !ok_mask = 0L then raise Next_run;
               observations := !observations + popcount64 !ok_mask;
               List.iter
                 (fun (nm, n_o, n_r) ->
                   if !divergence = None then
                     let diff =
                       Int64.logand !ok_mask
                         (Int64.logxor
                            (Netlist.Sim64.read sim_o n_o)
                            (Netlist.Sim64.read sim_r n_r))
                     in
                     if diff <> 0L then
                       divergence :=
                         Some
                           {
                             run = r;
                             cycle;
                             lane = lowest_bit diff;
                             output = nm;
                             seed = config.seed;
                           })
                 out_map;
               if !divergence <> None then raise Exit;
               Netlist.Sim64.step sim_o;
               Netlist.Sim64.step sim_m;
               Netlist.Sim64.step sim_r
             done
           with Next_run -> ()
         done
       with Exit -> ());
      (match !divergence with
      | Some d -> Divergent d
      | None ->
          Equivalent
            {
              runs = config.runs;
              cycles = config.cycles;
              observations = !observations;
            })
