(* The differential oracle for [Engine.Induction.prove]: the greatest
   mutual k-induction fixpoint, derived without incremental solving.

   Every base and step check builds a fresh [Sat.Solver] over the
   whole design ([Engine.Unroll] rooted at every net), asserts its
   claims as plain clauses and makes one [solve] call without
   assumptions: the snapshot discipline the incremental prover
   replaced.  Nothing is shared with the prover under test: no
   selector, guarded clause, retirement, learnt clause or cone of
   influence.  It is slow and obviously correct, so it is a test
   artifact only.

   The fixpoint: a candidate survives the base side if no trace from
   reset that meets [assume] in frames [0..k-1] violates it in one of
   those frames.  Each step pass then keeps the survivors that no free
   state can violate in frame [k] while every survivor of the previous
   pass holds in frames [0..k-1], all frames meeting [assume].  A set
   that is inductive on its own is never refuted while its members are
   hypotheses, so the passes stop at the greatest such set. *)

module D = Netlist.Design
module S = Sat.Solver
module L = Sat.Lit
module U = Engine.Unroll

(* a fresh solver holding frames [0..frames-1] of the whole design,
   with [assume] forced in every frame *)
let unroll d ~assume ~init ~frames =
  let s = S.create () in
  let u = U.create s d ~init ~roots:(List.init (D.num_nets d) Fun.id) ~frames in
  for frame = 0 to frames - 1 do
    S.add_clause s [ U.lit u ~frame assume ]
  done;
  (s, u)

(* the clause asserting [cand] in [frame] *)
let claim u ~frame = function
  | Engine.Candidate.Const (n, b) ->
      let l = U.lit u ~frame n in
      [ (if b then l else L.negate l) ]
  | Engine.Candidate.Implies { a; b; _ } ->
      [ L.negate (U.lit u ~frame a); U.lit u ~frame b ]

(* does a model exist once [cand] is asserted false in [frame]? *)
let violable s u ~frame cand =
  List.iter (fun l -> S.add_clause s [ L.negate l ]) (claim u ~frame cand);
  match S.solve s with
  | S.Sat -> true
  | S.Unsat -> false
  | S.Unknown -> failwith "Oracle: Unknown from a solve with no budget"

let base_holds ~k d ~assume cand =
  List.for_all
    (fun frame ->
      let s, u = unroll d ~assume ~init:`Reset ~frames:k in
      not (violable s u ~frame cand))
    (List.init k Fun.id)

let step_holds ~k d ~assume ~hyps cand =
  let s, u = unroll d ~assume ~init:`Free ~frames:(k + 1) in
  List.iter
    (fun h ->
      for frame = 0 to k - 1 do
        S.add_clause s (claim u ~frame h)
      done)
    hyps;
  not (violable s u ~frame:k cand)

(* the proved subset of [cands], in input order *)
let prove ?(k = 1) ~assume d cands =
  let rec fixpoint alive =
    let kept = List.filter (step_holds ~k d ~assume ~hyps:alive) alive in
    if List.compare_lengths kept alive = 0 then alive else fixpoint kept
  in
  fixpoint (List.filter (base_holds ~k d ~assume) cands)
