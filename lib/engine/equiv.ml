module D = Netlist.Design
module S = Sat.Solver
module L = Sat.Lit

type result =
  | Equivalent
  | Counterexample of { frame : int; output : string }
  | Unknown

let bounded ?(assume = D.net_true) ?(conflict_budget = -1) ~frames d1 d2 =
  (* outputs compared on the name intersection *)
  let outs2 = D.outputs d2 in
  let pairs =
    List.filter_map
      (fun (nm, n1) ->
        match List.assoc_opt nm outs2 with
        | Some n2 -> Some (nm, n1, n2)
        | None -> None)
      (D.outputs d1)
  in
  if pairs = [] then invalid_arg "Equiv.bounded: no shared outputs";
  let solver = S.create () in
  (* the shared stimulus, one variable per frame and input of [d1],
     numbered ahead of both designs' logic *)
  let shared : (int * string, L.t) Hashtbl.t = Hashtbl.create 256 in
  for frame = 0 to frames - 1 do
    List.iter
      (fun (nm, _) ->
        Hashtbl.replace shared (frame, nm) (L.pos (S.new_var solver)))
      (D.inputs d1)
  done;
  let pi_lit ~frame nm = Hashtbl.find_opt shared (frame, nm) in
  (* each side encodes only the cone of its compared outputs *)
  let u1 =
    Unroll.create ~pi_lit solver d1 ~init:`Reset ~frames
      ~roots:(assume :: List.map (fun (_, n1, _) -> n1) pairs)
  in
  let u2 =
    Unroll.create ~pi_lit solver d2 ~init:`Reset ~frames
      ~roots:(List.map (fun (_, _, n2) -> n2) pairs)
  in
  if assume <> D.net_true then
    for f = 0 to frames - 1 do
      S.add_clause solver [ Unroll.lit u1 ~frame:f assume ]
    done;
  (* mismatch literal per (frame, output) *)
  let mismatches =
    List.concat_map
      (fun (nm, n1, n2) ->
        List.init frames (fun f ->
            let a = Unroll.lit u1 ~frame:f n1 in
            let b = Unroll.lit u2 ~frame:f n2 in
            let m = L.pos (S.new_var solver) in
            Sat.Tseitin.xor2 solver ~out:m a b;
            ((f, nm), m)))
      pairs
  in
  S.add_clause solver (List.map snd mismatches);
  match S.solve ~conflict_budget solver with
  | S.Unsat -> Equivalent
  | S.Unknown -> Unknown
  | S.Sat ->
      let frame, output =
        match
          List.find_opt (fun (_, m) -> S.lit_value solver m) mismatches
        with
        | Some ((f, nm), _) -> (f, nm)
        | None -> (-1, "?")
      in
      Counterexample { frame; output }
