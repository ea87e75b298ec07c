module D = Netlist.Design
module S = Sat.Solver
module L = Sat.Lit

type cls = { rep : Candidate.t; members : Candidate.t list }

type stats = {
  n_candidates : int;
  n_classes : int;
  n_sieved : int;
  sat_calls : int;
  sat_merges : int;
}

(* The claim a candidate makes, with the mining byproducts (the [cell]
   tag of an implication) stripped: candidates with equal shape are the
   same formula and merge with no checking at all. *)
type shape =
  | Sh_const of D.net * bool
  | Sh_implies of D.net * D.net

let shape = function
  | Candidate.Const (n, b) -> Sh_const (n, b)
  | Candidate.Implies { a; b; _ } -> Sh_implies (a, b)

(* 64-lane violation word of a candidate's claim, masked by the lanes
   where the environment assumption holds: equal words on every probe
   is the bucketing signature, and genuinely equivalent candidates are
   pointwise equal here by construction. *)
let violation_word sim ~mask = function
  | Candidate.Const (n, true) ->
      Int64.logand mask (Int64.lognot (Netlist.Sim64.read sim n))
  | Candidate.Const (n, false) -> Int64.logand mask (Netlist.Sim64.read sim n)
  | Candidate.Implies { a; b; _ } ->
      Int64.logand mask
        (Int64.logand (Netlist.Sim64.read sim a)
           (Int64.lognot (Netlist.Sim64.read sim b)))

let partition ?(runs = 4) ?(cycles = 64) ?(seed = 0x51EE) ?(conflict_budget = 5000)
    ~assume d candidates =
  let n_candidates = List.length candidates in
  (* ---- stage 1: syntactic grouping (free merges) ------------------- *)
  let group_of = Hashtbl.create (max 16 n_candidates) in
  let groups = ref [] (* (rep, members rev) refs, reverse input order *) in
  List.iter
    (fun cand ->
      let sh = shape cand in
      match Hashtbl.find_opt group_of sh with
      | Some members -> members := cand :: !members
      | None ->
          let members = ref [] in
          Hashtbl.replace group_of sh members;
          groups := (cand, members) :: !groups)
    candidates;
  let groups = List.rev !groups in
  (* ---- stage 2: signature bucketing -------------------------------- *)
  let sim = Netlist.Sim64.create d in
  let rng = Random.State.make [| seed |] in
  let inputs = D.inputs d in
  let reps = Array.of_list (List.map fst groups) in
  let n_groups = Array.length reps in
  let sigs = Array.make n_groups [] in
  for _ = 1 to runs do
    (* a fresh random state per run: induction's step side quantifies
       over free states, so the signature must too *)
    Netlist.Sim64.load_state sim (fun _ -> Stimulus.random_word rng);
    for _ = 1 to cycles do
      List.iter
        (fun (_, nnet) -> Netlist.Sim64.set_input sim nnet (Stimulus.random_word rng))
        inputs;
      Netlist.Sim64.eval sim;
      let mask = Netlist.Sim64.read sim assume in
      for g = 0 to n_groups - 1 do
        sigs.(g) <- violation_word sim ~mask reps.(g) :: sigs.(g)
      done;
      Netlist.Sim64.step sim
    done
  done;
  let buckets = Hashtbl.create (max 16 n_groups) in
  let bucket_order = ref [] in
  Array.iteri
    (fun g signature ->
      match Hashtbl.find_opt buckets signature with
      | Some gs -> gs := g :: !gs
      | None ->
          let gs = ref [ g ] in
          Hashtbl.replace buckets signature gs;
          bucket_order := signature :: !bucket_order)
    sigs;
  (* ---- stage 3: SAT confirmation within buckets -------------------- *)
  (* One long-lived solver holding a single combinational frame (free
     state, assume forced): each comparison adds the difference clauses
     [h1 ∨ h2] and [¬h1 ∨ ¬h2] under a fresh selector, solves assuming
     it, and retires it — incremental equivalence checking with the
     exact machinery the prover itself uses. *)
  let solver = S.create () in
  let u = Unroll.create solver d ~init:`Free in
  Unroll.add_frame u;
  S.add_clause solver [ Unroll.lit u ~frame:0 assume ];
  let hold_lit cand =
    match cand with
    | Candidate.Const (nn, b) ->
        let l = Unroll.lit u ~frame:0 nn in
        if b then l else L.negate l
    | Candidate.Implies { a; b; _ } ->
        let h = L.pos (S.new_var solver) in
        Sat.Tseitin.or2 solver ~out:h
          (L.negate (Unroll.lit u ~frame:0 a))
          (Unroll.lit u ~frame:0 b);
        h
  in
  let hold = Array.map hold_lit reps in
  let sat_calls = ref 0 in
  let sat_merges = ref 0 in
  (* one equivalence query: Unsat = pointwise equivalent under assume;
     Sat additionally leaves a distinguishing model in the solver *)
  let equivalent g1 g2 =
    incr sat_calls;
    let sel = S.new_selector solver in
    S.add_guarded solver ~guard:sel [ hold.(g1); hold.(g2) ];
    S.add_guarded solver ~guard:sel
      [ L.negate hold.(g1); L.negate hold.(g2) ];
    let r = S.solve ~assumptions:[ sel ] ~conflict_budget solver in
    S.retire solver sel;
    (match r with S.Unsat -> incr sat_merges | S.Sat | S.Unknown -> ());
    r
  in
  (* classes as (first group index, member group indices rev) *)
  let classes = ref [] in
  List.iter
    (fun signature ->
      let gs = List.rev !(Hashtbl.find buckets signature) in
      let sub = ref [] (* (leader g, followers rev) within this bucket *) in
      List.iter
        (fun g ->
          (* scan the bucket's leaders; a Sat answer is a concrete
             valuation, so every other leader whose hold-bit differs
             from [g]'s in that model is provably inequivalent to [g]
             and is pruned without its own query — this keeps false
             bucket collisions (e.g. candidates that rarely violate
             under random stimulus) linear instead of quadratic *)
          let rec place = function
            | [] -> sub := !sub @ [ (g, ref []) ]
            | (leader, followers) :: rest -> (
                match equivalent leader g with
                | S.Unsat -> followers := g :: !followers
                | S.Unknown -> place rest
                | S.Sat ->
                    let v_g = S.lit_value solver hold.(g) in
                    place
                      (List.filter
                         (fun (l, _) ->
                           S.lit_value solver hold.(l) = v_g)
                         rest))
          in
          (* bill the confirmation queries to the candidate being placed *)
          Obs.Attr.with_key (Candidate.key reps.(g)) (fun () -> place !sub))
        gs;
      List.iter (fun c -> classes := c :: !classes) !sub)
    (List.rev !bucket_order);
  (* classes in input order of their leader group, members in global
     input order within each class *)
  let classes =
    List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !classes)
  in
  let position = Hashtbl.create (max 16 n_candidates) in
  List.iteri
    (fun i cand ->
      if not (Hashtbl.mem position cand) then Hashtbl.replace position cand i)
    candidates;
  let groups_arr = Array.of_list groups in
  let result =
    List.map
      (fun (leader, followers) ->
        let group_members g = List.rev !(snd groups_arr.(g)) in
        let members =
          group_members leader
          @ List.concat_map
              (fun g -> reps.(g) :: group_members g)
              (List.sort compare (List.rev !followers))
        in
        let members =
          List.sort
            (fun a b ->
              compare (Hashtbl.find position a) (Hashtbl.find position b))
            members
        in
        { rep = reps.(leader); members })
      classes
  in
  let n_classes = List.length result in
  ( result,
    {
      n_candidates;
      n_classes;
      n_sieved = n_candidates - n_classes;
      sat_calls = !sat_calls;
      sat_merges = !sat_merges;
    } )
