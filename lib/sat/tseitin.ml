let and2 s ~out a b =
  Solver.add_clause s [ Lit.negate out; a ];
  Solver.add_clause s [ Lit.negate out; b ];
  Solver.add_clause s [ out; Lit.negate a; Lit.negate b ]

let or2 s ~out a b = and2 s ~out:(Lit.negate out) (Lit.negate a) (Lit.negate b)

let xor2 s ~out a b =
  Solver.add_clause s [ Lit.negate out; a; b ];
  Solver.add_clause s [ Lit.negate out; Lit.negate a; Lit.negate b ];
  Solver.add_clause s [ out; Lit.negate a; b ];
  Solver.add_clause s [ out; a; Lit.negate b ]

let mux s ~out ~sel ~a ~b =
  (* sel=0 -> out=a ; sel=1 -> out=b, plus the redundant a=b clause
     that helps propagation. *)
  Solver.add_clause s [ sel; Lit.negate a; out ];
  Solver.add_clause s [ sel; a; Lit.negate out ];
  Solver.add_clause s [ Lit.negate sel; Lit.negate b; out ];
  Solver.add_clause s [ Lit.negate sel; b; Lit.negate out ];
  Solver.add_clause s [ Lit.negate a; Lit.negate b; out ];
  Solver.add_clause s [ a; b; Lit.negate out ]

let const s l v = Solver.add_clause s [ (if v then l else Lit.negate l) ]
