(* The differential oracle for [Engine.Induction.prove]: the greatest
   mutual k-induction fixpoint, derived without incremental solving.

   Every base and step check builds a fresh [Sat.Solver] over the
   whole design, asserts its claims as plain clauses and makes one
   [solve] call without assumptions: the snapshot discipline the
   incremental prover replaced.  It has its own unroller, one Tseitin
   variable per gate output per frame, so nothing is shared with the
   prover under test but [Sat.Solver] and the [Sat.Tseitin] gate
   clauses: no [Engine.Unroll] cone, structural hashing or constant
   folding, and no selector, guarded clause, retirement or learnt
   clause.  It is slow and obviously correct, so it is a test artifact
   only.

   The fixpoint: a candidate survives the base side if no trace from
   reset that meets [assume] in frames [0..k-1] violates it in one of
   those frames.  Each step pass then keeps the survivors that no free
   state can violate in frame [k] while every survivor of the previous
   pass holds in frames [0..k-1], all frames meeting [assume].  A set
   that is inductive on its own is never refuted while its members are
   hypotheses, so the passes stop at the greatest such set. *)

module D = Netlist.Design
module C = Netlist.Cell
module S = Sat.Solver
module L = Sat.Lit
module T = Sat.Tseitin

(* [out] = the AND of [ins] *)
let andn s ~out ins =
  List.iter (fun a -> S.add_clause s [ L.negate out; a ]) ins;
  S.add_clause s (out :: List.map L.negate ins)

let orn s ~out ins = andn s ~out:(L.negate out) (List.map L.negate ins)

(* Sets [lits.(c.out)] from the literals of [c]'s inputs, one fresh
   variable per gate (two for AOI/OAI). *)
let encode_cell s ~lit_true lits (c : D.cell) =
  let fresh () = L.pos (S.new_var s) in
  let i k = lits.(c.D.ins.(k)) in
  let out v = lits.(c.D.out) <- v in
  let gate build =
    let v = fresh () in
    build v;
    v
  in
  let and_ ins = gate (fun out -> andn s ~out ins) in
  let or_ ins = gate (fun out -> orn s ~out ins) in
  let xor2 () = gate (fun out -> T.xor2 s ~out (i 0) (i 1)) in
  match c.D.kind with
  | C.Const0 -> out (L.negate lit_true)
  | C.Const1 -> out lit_true
  | C.Buf -> out (i 0)
  | C.Inv -> out (L.negate (i 0))
  | C.And2 -> out (and_ [ i 0; i 1 ])
  | C.Nand2 -> out (L.negate (and_ [ i 0; i 1 ]))
  | C.Or2 -> out (or_ [ i 0; i 1 ])
  | C.Nor2 -> out (L.negate (or_ [ i 0; i 1 ]))
  | C.Xor2 -> out (xor2 ())
  | C.Xnor2 -> out (L.negate (xor2 ()))
  | C.And3 -> out (and_ [ i 0; i 1; i 2 ])
  | C.Nand3 -> out (L.negate (and_ [ i 0; i 1; i 2 ]))
  | C.Or3 -> out (or_ [ i 0; i 1; i 2 ])
  | C.Nor3 -> out (L.negate (or_ [ i 0; i 1; i 2 ]))
  | C.And4 -> out (and_ [ i 0; i 1; i 2; i 3 ])
  | C.Or4 -> out (or_ [ i 0; i 1; i 2; i 3 ])
  | C.Mux2 -> out (gate (fun out -> T.mux s ~out ~sel:(i 0) ~a:(i 1) ~b:(i 2)))
  | C.Aoi21 -> out (L.negate (or_ [ and_ [ i 0; i 1 ]; i 2 ]))
  | C.Oai21 -> out (L.negate (and_ [ or_ [ i 0; i 1 ]; i 2 ]))
  | C.Dff -> ()  (* set by frame linking *)

(* A fresh solver holding frames [0..frames-1] of the whole design,
   with [assume] forced in every frame, and its literal of every net in
   every frame.  Frame-0 flip-flop outputs are their reset constants
   ([`Reset]) or fresh variables ([`Free]); a later frame's flip-flop
   output is the previous frame's literal of its D net.  Primary inputs
   and undriven nets are fresh variables in every frame. *)
let unroll d ~assume ~init ~frames =
  let s = S.create () in
  let fresh () = L.pos (S.new_var s) in
  let lit_true = fresh () in
  S.add_clause s [ lit_true ];
  let sched = Netlist.Topo.schedule d in
  let lits = Array.init frames (fun _ -> Array.make (D.num_nets d) (-1)) in
  Array.iteri
    (fun f m ->
      m.(D.net_false) <- L.negate lit_true;
      m.(D.net_true) <- lit_true;
      List.iter (fun (_, n) -> m.(n) <- fresh ()) (D.inputs d);
      Array.iter
        (fun ci ->
          let c = D.cell d ci in
          m.(c.D.out) <-
            (if f > 0 then lits.(f - 1).(c.D.ins.(0))
             else
               match init with
               | `Reset -> if c.D.init then lit_true else L.negate lit_true
               | `Free -> fresh ()))
        sched.Netlist.Topo.flops;
      for n = 0 to D.num_nets d - 1 do
        if m.(n) < 0 && D.driver_kind d n = `Floating then m.(n) <- fresh ()
      done;
      Array.iter
        (fun ci -> encode_cell s ~lit_true m (D.cell d ci))
        sched.Netlist.Topo.order;
      S.add_clause s [ m.(assume) ])
    lits;
  (s, lits)

(* the clause asserting [cand] in [frame] *)
let claim lits ~frame = function
  | Engine.Candidate.Const (n, b) ->
      let l = lits.(frame).(n) in
      [ (if b then l else L.negate l) ]
  | Engine.Candidate.Implies { a; b; _ } ->
      [ L.negate lits.(frame).(a); lits.(frame).(b) ]

(* does a model exist once [cand] is asserted false in [frame]? *)
let violable s lits ~frame cand =
  List.iter (fun l -> S.add_clause s [ L.negate l ]) (claim lits ~frame cand);
  match S.solve s with
  | S.Sat -> true
  | S.Unsat -> false
  | S.Unknown -> failwith "Oracle: Unknown from a solve with no budget"

let base_holds ~k d ~assume cand =
  List.for_all
    (fun frame ->
      let s, lits = unroll d ~assume ~init:`Reset ~frames:k in
      not (violable s lits ~frame cand))
    (List.init k Fun.id)

let step_holds ~k d ~assume ~hyps cand =
  let s, lits = unroll d ~assume ~init:`Free ~frames:(k + 1) in
  List.iter
    (fun h ->
      for frame = 0 to k - 1 do
        S.add_clause s (claim lits ~frame h)
      done)
    hyps;
  not (violable s lits ~frame:k cand)

(* the proved subset of [cands], in input order *)
let prove ?(k = 1) ~assume d cands =
  let rec fixpoint alive =
    let kept = List.filter (step_holds ~k d ~assume ~hyps:alive) alive in
    if List.compare_lengths kept alive = 0 then alive else fixpoint kept
  in
  fixpoint (List.filter (base_holds ~k d ~assume) cands)
