module D = Netlist.Design

let candidate_nets = function
  | Candidate.Const (n, _) -> [ n ]
  | Candidate.Implies { a; b; _ } -> [ a; b ]

(* One short 64-lane random simulation; a candidate's signature folds the
   words its nets carried, so candidates that toggle together sort
   adjacently when an oversized component has to be cut into chunks. *)
let signatures d cands =
  let sim = Netlist.Sim64.create d in
  let rng = Random.State.make [| 0x5A4D |] in
  let sigs = Array.make (Array.length cands) 0 in
  let inputs = D.inputs d in
  for _ = 1 to 16 do
    List.iter
      (fun (_, n) -> Netlist.Sim64.set_input sim n (Stimulus.random_word rng))
      inputs;
    Netlist.Sim64.eval sim;
    Array.iteri
      (fun i cand ->
        List.iter
          (fun n ->
            sigs.(i) <-
              (sigs.(i) * 1000003) lxor Hashtbl.hash (Netlist.Sim64.read sim n))
          (candidate_nets cand))
      cands;
    Netlist.Sim64.step sim
  done;
  sigs

let partition d ~jobs candidates =
  let cands = Array.of_list candidates in
  let n = Array.length cands in
  let jobs = max 1 (min jobs n) in
  if n = 0 then []
  else if jobs <= 1 then [ candidates ]
  else begin
    let nn = D.num_nets d in
    let parent = Array.init nn (fun i -> i) in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let is_pi = Array.make nn false in
    List.iter (fun (_, net) -> if net < nn then is_pi.(net) <- true) (D.inputs d);
    (* rails and primary inputs are high-fanout hubs: letting them merge
       components would glue the whole netlist into one *)
    let hub net = net = D.net_false || net = D.net_true || is_pi.(net) in
    let union a b =
      if not (hub a || hub b) then begin
        let ra = find a and rb = find b in
        if ra <> rb then parent.(max ra rb) <- min ra rb
      end
    in
    D.iter_cells d (fun _ c -> Array.iter (fun i -> union c.D.out i) c.D.ins);
    Array.iter
      (fun cand ->
        match candidate_nets cand with [ a; b ] -> union a b | _ -> ())
      cands;
    let root_of cand =
      match List.filter (fun net -> not (hub net)) (candidate_nets cand) with
      | net :: _ -> find net
      | [] -> -1
    in
    let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let roots_seen = ref [] in
    let singletons = ref [] in
    Array.iteri
      (fun i cand ->
        match root_of cand with
        | -1 -> singletons := [ i ] :: !singletons
        | r -> (
            match Hashtbl.find_opt groups r with
            | Some l -> l := i :: !l
            | None ->
                Hashtbl.replace groups r (ref [ i ]);
                roots_seen := r :: !roots_seen))
      cands;
    let sigs = signatures d cands in
    let cap = max 1 ((n + jobs - 1) / jobs) in
    let chunk idxs =
      let sorted =
        List.sort (fun a b -> compare (sigs.(a), a) (sigs.(b), b)) idxs
      in
      let rec cut acc cur k = function
        | [] -> if cur = [] then acc else List.rev cur :: acc
        | x :: rest ->
            if k = cap then cut (List.rev cur :: acc) [ x ] 1 rest
            else cut acc (x :: cur) (k + 1) rest
      in
      cut [] [] 0 sorted
    in
    let chunks =
      List.rev !singletons
      @ List.concat_map
          (fun r -> chunk (List.rev !(Hashtbl.find groups r)))
          (List.rev !roots_seen)
    in
    (* largest chunks first, then greedy least-loaded packing *)
    let key c = (-List.length c, List.fold_left min max_int c) in
    let chunks = List.sort (fun a b -> compare (key a) (key b)) chunks in
    let loads = Array.make jobs 0 in
    let shards = Array.make jobs [] in
    List.iter
      (fun c ->
        let best = ref 0 in
        for j = 1 to jobs - 1 do
          if loads.(j) < loads.(!best) then best := j
        done;
        shards.(!best) <- c @ shards.(!best);
        loads.(!best) <- loads.(!best) + List.length c)
      chunks;
    Array.to_list shards
    |> List.filter_map (fun idxs ->
           match List.sort compare idxs with
           | [] -> None
           | l -> Some (List.map (fun i -> cands.(i)) l))
  end
