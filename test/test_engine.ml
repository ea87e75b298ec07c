(* Tests for the formal engine: simulation-based candidate mining,
   CNF unrolling, mutual k-induction, and cutpoints.  Soundness checks
   cross-validate proved invariants against long random simulations. *)

module D = Netlist.Design
module C = Netlist.Cell

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A design with structure worth proving things about:
     in: a[2], en
     r0: register that only loads when en=1, data = a&~a = 0 -> always 0
     r1: toggles
     y = r0 & r1  -> always 0
     z = r1 | ~r1 -> always 1 (combinationally)
*)
let demo_design () =
  let d = D.create "demo" in
  let a0 = D.add_input d "a[0]" in
  let a1 = D.add_input d "a[1]" in
  let en = D.add_input d "en" in
  let na0 = D.add_cell d C.Inv [| a0 |] in
  let zero_comb = D.add_cell d C.And2 [| a0; na0 |] in
  let r0 = D.new_net d in
  let r0_next = D.add_cell d C.Mux2 [| en; r0; zero_comb |] in
  D.add_cell_out d ~init:false C.Dff [| r0_next |] ~out:r0;
  let r1 = D.new_net d in
  let nr1 = D.add_cell d C.Inv [| r1 |] in
  D.add_cell_out d ~init:false C.Dff [| nr1 |] ~out:r1;
  let y = D.add_cell d C.And2 [| r0; r1 |] in
  let z = D.add_cell d C.Or2 [| r1; nr1 |] in
  let w = D.add_cell d C.Xor2 [| a1; r1 |] in
  D.add_output d "y" y;
  D.add_output d "z" z;
  D.add_output d "w" w;
  (d, zero_comb, r0, y, z, w)

let test_rsim_finds_constants () =
  let d, zero_comb, r0, y, z, w = demo_design () in
  let cands = Engine.Rsim.mine d Engine.Stimulus.unconstrained in
  let has c = List.exists (Engine.Candidate.equal c) cands in
  check "zero_comb const0" true (has (Engine.Candidate.Const (zero_comb, false)));
  check "r0 const0" true (has (Engine.Candidate.Const (r0, false)));
  check "y const0" true (has (Engine.Candidate.Const (y, false)));
  check "z const1" true (has (Engine.Candidate.Const (z, true)));
  (* w toggles with a1, must not be a candidate *)
  check "w not const" false
    (has (Engine.Candidate.Const (w, false)) || has (Engine.Candidate.Const (w, true)))

let test_induction_proves_true_invariants () =
  let d, zero_comb, r0, y, z, _w = demo_design () in
  let cands = Engine.Rsim.mine d Engine.Stimulus.unconstrained in
  let proved, stats = Engine.Induction.prove ~assume:D.net_true d cands in
  let has c = List.exists (Engine.Candidate.equal c) proved in
  check "zero_comb proved" true (has (Engine.Candidate.Const (zero_comb, false)));
  check "r0 proved" true (has (Engine.Candidate.Const (r0, false)));
  check "y proved" true (has (Engine.Candidate.Const (y, false)));
  check "z proved" true (has (Engine.Candidate.Const (z, true)));
  check "not exhausted" false stats.Engine.Induction.budget_exhausted

let test_rsim_deadline () =
  let d, _, _, _, _, _ = demo_design () in
  let past = Obs.Clock.now_s () -. 1. in
  (* an expired deadline before any observation degrades to "no
     candidates", never to an exception *)
  check "mine returns empty" true
    (Engine.Rsim.mine ~deadline:past d Engine.Stimulus.unconstrained = []);
  (* refine without simulation time keeps every candidate (conservative:
     fewer cheap kills, the prover still guards soundness) *)
  let cand = Engine.Candidate.Const (2, false) in
  check_int "refine passes candidates through" 1
    (List.length
       (Engine.Rsim.refine ~deadline:past d Engine.Stimulus.unconstrained
          [ cand ]))

let test_induction_time_budget () =
  let d, zero_comb, _, _, _, _ = demo_design () in
  let cands = Engine.Rsim.mine d Engine.Stimulus.unconstrained in
  check "have candidates" true (cands <> []);
  (* an (effectively) zero budget: every SAT call is inconclusive, all
     candidates are conservatively dropped, and the stats say why *)
  let opts =
    { Engine.Induction.default_options with
      Engine.Induction.time_budget_s = 1e-9 }
  in
  let proved, stats = Engine.Induction.prove ~options:opts ~assume:D.net_true d cands in
  check "nothing proved" true (proved = []);
  check "deadline flagged" true stats.Engine.Induction.deadline_exceeded;
  (* a generous budget changes nothing *)
  let opts =
    { Engine.Induction.default_options with
      Engine.Induction.time_budget_s = 3600. }
  in
  let proved, stats = Engine.Induction.prove ~options:opts ~assume:D.net_true d cands in
  check "still proves under a generous budget" true
    (List.exists
       (Engine.Candidate.equal (Engine.Candidate.Const (zero_comb, false)))
       proved);
  check "deadline not flagged" false stats.Engine.Induction.deadline_exceeded

let test_expired_budget_uniformity () =
  (* a zero or negative wall-clock budget is an immediate deadline hit
     at every layer, uniformly: the raw solver, the prover *)
  let s = Sat.Solver.create () in
  let v = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ Sat.Lit.pos v ];
  check "solver: past deadline is Unknown" true
    (Sat.Solver.solve ~deadline:(Obs.Clock.now_s () -. 5.) s
    = Sat.Solver.Unknown);
  check "solver: same instance solves without a deadline" true
    (Sat.Solver.solve s = Sat.Solver.Sat);
  let d, _, _, _, _, _ = demo_design () in
  let cands = Engine.Rsim.mine d Engine.Stimulus.unconstrained in
  List.iter
    (fun budget ->
      let opts =
        { Engine.Induction.default_options with
          Engine.Induction.time_budget_s = budget }
      in
      let proved, stats =
        Engine.Induction.prove ~options:opts ~assume:D.net_true d cands
      in
      check (Printf.sprintf "budget %g: nothing proved" budget) true
        (proved = []);
      check (Printf.sprintf "budget %g: deadline flagged" budget) true
        stats.Engine.Induction.deadline_exceeded)
    [ 0.; -5. ];
  (* [infinity] is the unlimited sentinel, not a deadline *)
  let opts =
    { Engine.Induction.default_options with
      Engine.Induction.time_budget_s = infinity }
  in
  let proved, stats =
    Engine.Induction.prove ~options:opts ~assume:D.net_true d cands
  in
  check "infinite budget proves" true (proved <> []);
  check "infinite budget: deadline not flagged" false
    stats.Engine.Induction.deadline_exceeded

let test_induction_kills_false_candidates () =
  (* candidate claims a free input-fed flop is constant: must die *)
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let q = D.add_dff d ~d:a () in
  D.add_output d "q" q;
  let false_cand = Engine.Candidate.Const (q, false) in
  let proved, _ = Engine.Induction.prove ~assume:D.net_true d [ false_cand ] in
  check "killed" true (proved = [])

let test_induction_with_assumption () =
  (* q loads input a every cycle; under the assumption a=0, q is
     provably constant 0; without it, not *)
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let q = D.add_dff d ~d:a () in
  let na = D.add_cell d C.Inv [| a |] in
  D.add_output d "q" q;
  let cand = Engine.Candidate.Const (q, false) in
  let proved_free, _ = Engine.Induction.prove ~assume:D.net_true d [ cand ] in
  check "unprovable without env" true (proved_free = []);
  let proved_env, _ = Engine.Induction.prove ~assume:na d [ cand ] in
  check "provable under env" true (proved_env = [ cand ])

let test_induction_implications () =
  (* g = x & (x | y): x -> (x|y) always holds *)
  let d = D.create "t" in
  let x = D.add_input d "x" in
  let y = D.add_input d "y" in
  let x_or_y = D.add_cell d C.Or2 [| x; y |] in
  let g = D.add_cell d C.And2 [| x; x_or_y |] in
  D.add_output d "g" g;
  let cands = Engine.Rsim.mine d Engine.Stimulus.unconstrained in
  let expected =
    Engine.Candidate.Implies
      { cell = (match D.driver d g with Some ci -> ci | None -> -1); a = x; b = x_or_y }
  in
  check "mined" true (List.exists (Engine.Candidate.equal expected) cands);
  let proved, _ = Engine.Induction.prove ~assume:D.net_true d cands in
  check "proved" true (List.exists (Engine.Candidate.equal expected) proved)

(* Flops [q <= q | ~a] and [r <= x], both reset 0, under [assume = a]:
   [q = 0] is inductive under the environment and [r = 0] is not.  A
   lane where [a] was 0 once holds [q = 1] for good, so a simulation
   that goes on observing it refutes the true invariant [q = 0]. *)
let test_lane_leaves_environment () =
  let d = D.create "leave_env" in
  let a = D.add_input d "a" in
  let x = D.add_input d "x" in
  let na = D.add_cell d C.Inv [| a |] in
  let q = D.new_net d in
  let q_next = D.add_cell d C.Or2 [| q; na |] in
  D.add_cell_out d ~init:false C.Dff [| q_next |] ~out:q;
  let r = D.add_dff d ~d:x () in
  D.add_output d "q" q;
  D.add_output d "r" r;
  let stim = Engine.Stimulus.unconstrained in
  let q0 = Engine.Candidate.Const (q, false)
  and r0 = Engine.Candidate.Const (r, false) in
  let has c l = List.exists (Engine.Candidate.equal c) l in
  check "mine: q = 0 mined" true (has q0 (Engine.Rsim.mine ~assume:a d stim));
  check "refine: q = 0 survives" true
    (has q0 (Engine.Rsim.refine ~assume:a d stim [ q0 ]));
  let snap = Oracle.prove ~assume:a d [ q0; r0 ] in
  check "oracle: q = 0 proved, r = 0 not" true (snap = [ q0 ]);
  let proved, _ =
    Engine.Induction.prove ~cex:(stim, 24) ~assume:a d [ q0; r0 ]
  in
  check "prove with cex propagation: q = 0 proved, r = 0 not" true
    (proved = [ q0 ])

(* soundness: every proved invariant must hold on a long random sim *)
let soundness_check d assume proved ~cycles =
  let sim = Netlist.Sim64.create d in
  let rng = Random.State.make [| 31337 |] in
  let random_word () =
    Int64.logor
      (Int64.of_int (Random.State.bits rng))
      (Int64.shift_left (Int64.of_int (Random.State.bits rng)) 30)
  in
  let ok = ref true in
  for _ = 1 to cycles do
    List.iter (fun (_, n) -> Netlist.Sim64.set_input sim n (random_word ())) (D.inputs d);
    Netlist.Sim64.eval sim;
    (* only check cycles where the (unconstrained) assumption holds *)
    if Netlist.Sim64.read sim assume = -1L then
      List.iter
        (fun c ->
          if not (Engine.Candidate.holds_in_values (Netlist.Sim64.read sim) c) then
            ok := false)
        proved;
    Netlist.Sim64.step sim
  done;
  !ok

let qcheck_induction_sound =
  QCheck.Test.make ~name:"proved invariants hold in simulation" ~count:15
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let d = Netlist.Generate.random ~seed () in
      let cands = Engine.Rsim.mine d Engine.Stimulus.unconstrained in
      let proved, _ = Engine.Induction.prove ~assume:D.net_true d cands in
      soundness_check d D.net_true proved ~cycles:500)

let test_unroll_semantics () =
  (* unrolled toggle flop: frame f value = parity of f *)
  let d = D.create "t" in
  let q = D.new_net d in
  let nq = D.add_cell d C.Inv [| q |] in
  D.add_cell_out d ~init:false C.Dff [| nq |] ~out:q;
  D.add_output d "q" q;
  let solver = Sat.Solver.create () in
  let u = Engine.Unroll.create solver d ~init:`Reset ~roots:[ q ] ~frames:5 in
  (match Sat.Solver.solve solver with
  | Sat.Solver.Sat -> ()
  | Sat.Solver.Unsat | Sat.Solver.Unknown -> Alcotest.fail "unrolling unsat");
  for f = 0 to 4 do
    let l = Engine.Unroll.lit u ~frame:f q in
    check_int (Printf.sprintf "frame %d" f) (f mod 2)
      (if Sat.Solver.lit_value solver l then 1 else 0)
  done

(* A toggle flop [q] and, beside it, an island that [q] never reads:
   flop [r] loads [r xor a], and [y = x and a] is an output.  Rooted at
   [q], the island is outside every frame's cone. *)
let test_unroll_cone () =
  let d = D.create "island" in
  let q = D.new_net d in
  let nq = D.add_cell d C.Inv [| q |] in
  D.add_cell_out d ~init:false C.Dff [| nq |] ~out:q;
  D.add_output d "q" q;
  let a = D.add_input d "a" in
  let r = D.new_net d in
  let x = D.add_cell d C.Xor2 [| r; a |] in
  D.add_cell_out d ~init:true C.Dff [| x |] ~out:r;
  let y = D.add_cell d C.And2 [| x; a |] in
  D.add_output d "y" y;
  let frames = 3 in
  let unroll roots =
    let solver = Sat.Solver.create () in
    let u = Engine.Unroll.create solver d ~init:`Reset ~roots ~frames in
    (match Sat.Solver.solve solver with
    | Sat.Solver.Sat -> ()
    | Sat.Solver.Unsat | Sat.Solver.Unknown -> Alcotest.fail "unrolling unsat");
    (solver, u)
  in
  let cone_solver, cone = unroll [ q ] in
  let full_solver, full = unroll (List.init (D.num_nets d) Fun.id) in
  check "cone encodes fewer variables" true
    (Sat.Solver.num_vars cone_solver < Sat.Solver.num_vars full_solver);
  for frame = 0 to frames - 1 do
    (* [nq] feeds [q] one frame later, so the last frame holds [q] only *)
    List.iter
      (fun n ->
        check
          (Printf.sprintf "net %d frame %d: same value" n frame)
          (Engine.Unroll.value full ~frame n)
          (Engine.Unroll.value cone ~frame n))
      (if frame < frames - 1 then [ q; nq ] else [ q ]);
    List.iter
      (fun n ->
        check
          (Printf.sprintf "island net %d frame %d: lit raises" n frame)
          true
          (try
             ignore (Engine.Unroll.lit cone ~frame n : Sat.Lit.t);
             false
           with Invalid_argument _ -> true);
        check
          (Printf.sprintf "island net %d frame %d: reads false" n frame)
          false
          (Engine.Unroll.value cone ~frame n))
      [ a; x; y ]
  done;
  (* under [`Reset] every frame-0 flop is bound to its reset constant *)
  check "frame-0 island flop reads its reset value" true
    (Engine.Unroll.value cone ~frame:0 r)

(* [m = f or x] where [f] reads 0 in the simulator, so [m] is 0 whenever
   [x] is, and [m = 1] is not an invariant.  With [f] undriven the
   encoding must leave it free rather than tie it to 1; with [f] a
   [Const0] tie cell it must encode 0. *)
let test_undriven_net_is_free () =
  List.iter
    (fun (label, zero) ->
      let d = D.create label in
      let f = zero d in
      let x = D.add_input d "x" in
      let m = D.add_cell d C.Or2 [| f; x |] in
      D.add_output d "m" m;
      let sim = Netlist.Sim64.create d in
      Netlist.Sim64.set_input sim x 0L;
      Netlist.Sim64.eval sim;
      check (label ^ ": simulator reads m = 0 when x = 0") true
        (Netlist.Sim64.read sim m = 0L);
      let cands = [ Engine.Candidate.Const (m, true) ] in
      let proved, _ = Engine.Induction.prove ~assume:D.net_true d cands in
      check_int (label ^ ": prove: m = 1 not proved") 0 (List.length proved);
      let snap = Oracle.prove ~assume:D.net_true d cands in
      check_int (label ^ ": oracle: m = 1 not proved") 0
        (List.length snap))
    [
      ("undriven", fun d -> D.new_net d);
      ("tie cell", fun d -> D.add_cell d C.Const0 [||]);
    ]

(* The hashed, constant-folding encoding against the simulator: on
   random netlists of every cell kind, with frame-0 state and every
   frame's inputs pinned by unit clauses, the model is unique, and each
   net inside a frame's cone must read in it what [Sim64] computes. *)
let test_unroll_matches_sim () =
  let word b = if b then -1L else 0L in
  for seed = 1 to 40 do
    let d = Netlist.Generate.random ~seed () in
    let rng = Random.State.make [| seed |] in
    let flops = (Netlist.Topo.schedule d).Netlist.Topo.flops in
    let roots = List.init 4 (fun _ -> Random.State.int rng (D.num_nets d)) in
    let frames = 3 in
    List.iter
      (fun (label, init) ->
        let solver = Sat.Solver.create () in
        let u = Engine.Unroll.create solver d ~init ~roots ~frames in
        let lit ~frame n =
          try Some (Engine.Unroll.lit u ~frame n) with Invalid_argument _ -> None
        in
        let pin ~frame n b =
          Option.iter
            (fun l -> Sat.Solver.add_clause solver [ (if b then l else Sat.Lit.negate l) ])
            (lit ~frame n)
        in
        let sim = Netlist.Sim64.create d in
        if init = `Free then begin
          let state = Hashtbl.create 16 in
          Array.iter
            (fun ci ->
              let q = (D.cell d ci).D.out in
              let b = Random.State.bool rng in
              Hashtbl.replace state q b;
              pin ~frame:0 q b)
            flops;
          Netlist.Sim64.load_state sim (fun q -> word (Hashtbl.find state q))
        end;
        let stimulus =
          List.init frames (fun _ ->
              List.map (fun (_, n) -> (n, Random.State.bool rng)) (D.inputs d))
        in
        List.iteri (fun frame ins -> List.iter (fun (n, b) -> pin ~frame n b) ins) stimulus;
        (match Sat.Solver.solve solver with
        | Sat.Solver.Sat -> ()
        | Sat.Solver.Unsat | Sat.Solver.Unknown ->
            Alcotest.failf "seed %d %s: pinned unrolling not Sat" seed label);
        List.iteri
          (fun frame ins ->
            List.iter (fun (n, b) -> Netlist.Sim64.set_input sim n (word b)) ins;
            Netlist.Sim64.eval sim;
            for n = 0 to D.num_nets d - 1 do
              if lit ~frame n <> None then
                let want = Netlist.Sim64.read sim n <> 0L in
                if Engine.Unroll.value u ~frame n <> want then
                  Alcotest.failf "seed %d %s: net %d frame %d reads %b, simulator %b"
                    seed label n frame (not want) want
            done;
            Netlist.Sim64.step sim)
          stimulus)
      [ ("reset", `Reset); ("free", `Free) ]
  done

(* Two AND2s over the same inputs, in either pin order, share one
   literal, and gates fed by a tie cell fold to an existing literal. *)
let test_unroll_hashing () =
  let d = D.create "hash" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let ab = D.add_cell d C.And2 [| a; b |] in
  let ba = D.add_cell d C.And2 [| b; a |] in
  let one = D.add_cell d C.Const1 [||] in
  let a_one = D.add_cell d C.And2 [| a; one |] in
  let one_xor_b = D.add_cell d C.Xor2 [| one; b |] in
  let solver = Sat.Solver.create () in
  let u =
    Engine.Unroll.create solver d ~init:`Reset ~roots:[ ab; ba; a_one; one_xor_b ]
      ~frames:1
  in
  let lit n = Engine.Unroll.lit u ~frame:0 n in
  check "identical AND2s share a literal" true (lit ab = lit ba);
  check "AND with a tie-high is its other input" true (lit a_one = lit a);
  check "XOR with a tie-high is the complement" true
    (lit one_xor_b = Sat.Lit.negate (lit b));
  (* the true literal, [a], [b] and the one AND *)
  check_int "variables" 4 (Sat.Solver.num_vars solver)

let test_cutpoint () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let x = D.add_cell d C.Inv [| a |] in
  let y = D.add_cell d C.Inv [| x |] in
  D.add_output d "y" y;
  let d', fresh = Engine.Cutpoint.apply d ~name:"cut" [| x |] in
  check_int "one new input" (List.length (D.inputs d) + 1) (List.length (D.inputs d'));
  (* y = Inv(x); after the cut, y = Inv(cut) regardless of a *)
  let sim = Netlist.Sim64.create d' in
  Netlist.Sim64.set_input sim (Option.get (D.find_input d' "a")) 0L;
  Netlist.Sim64.set_input sim fresh.(0) (-1L);
  Netlist.Sim64.eval sim;
  let y' = Option.get (D.find_output d' "y") in
  check "y = not cut" true (Netlist.Sim64.read sim y' = 0L);
  Netlist.Sim64.set_input sim fresh.(0) 0L;
  Netlist.Sim64.eval sim;
  check "y follows cut inverted" true (Netlist.Sim64.read sim y' = -1L);
  check "cutting an input rejected" true
    (try ignore (Engine.Cutpoint.apply d ~name:"c" [| a |]); false
     with Invalid_argument _ -> true)

let test_stimulus_pack () =
  let lanes = Engine.Stimulus.pack_lanes (fun lane -> lane land 0xF) ~width:4 in
  (* lane words are 0,1,2,...,63 masked to 4 bits; bit i of lanes.(j) is
     bit j of word i *)
  for lane = 0 to 63 do
    let got =
      List.fold_left
        (fun acc j ->
          if Int64.logand (Int64.shift_right_logical lanes.(j) lane) 1L = 1L then
            acc lor (1 lsl j)
          else acc)
        0 [ 0; 1; 2; 3 ]
    in
    check_int (Printf.sprintf "lane %d" lane) (lane land 0xF) got
  done

let () =
  Alcotest.run "engine"
    [
      ( "rsim",
        [
          Alcotest.test_case "finds constants" `Quick test_rsim_finds_constants;
          Alcotest.test_case "deadline degrades gracefully" `Quick
            test_rsim_deadline;
          Alcotest.test_case "stimulus packing" `Quick test_stimulus_pack;
          Alcotest.test_case "a lane that leaves the environment stays out"
            `Quick test_lane_leaves_environment;
        ] );
      ( "induction",
        [
          Alcotest.test_case "proves true invariants" `Quick
            test_induction_proves_true_invariants;
          Alcotest.test_case "kills false candidates" `Quick
            test_induction_kills_false_candidates;
          Alcotest.test_case "env assumptions" `Quick test_induction_with_assumption;
          Alcotest.test_case "implications" `Quick test_induction_implications;
          Alcotest.test_case "time budget" `Quick test_induction_time_budget;
          Alcotest.test_case "zero/negative budgets expire immediately"
            `Quick test_expired_budget_uniformity;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "semantics" `Quick test_unroll_semantics;
          Alcotest.test_case "cone of influence" `Quick test_unroll_cone;
          Alcotest.test_case "undriven net is free, tie cell is 0" `Quick
            test_undriven_net_is_free;
          Alcotest.test_case "pinned frames match the simulator" `Quick
            test_unroll_matches_sim;
          Alcotest.test_case "identical gates share, tie cells fold" `Quick
            test_unroll_hashing;
        ] );
      ("cutpoint", [ Alcotest.test_case "apply" `Quick test_cutpoint ]);
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_induction_sound ]);
    ]
