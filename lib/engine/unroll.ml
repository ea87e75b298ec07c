module D = Netlist.Design
module C = Netlist.Cell
module S = Sat.Solver
module L = Sat.Lit
module T = Sat.Tseitin

(* Entries of a frame's literal array that are not literals (literals
   are non-negative): [absent] outside the cone, [needed] for a net
   marked in the cone and not yet encoded. *)
let absent = -1
let needed = -2

(* A gate's key: its operator and its canonically ordered inputs.  Two
   gates with one key compute one function, so they share a variable. *)
type op = And | Or | Xor | Mux

module Gates = Hashtbl.Make (struct
  type t = op * L.t * L.t * L.t

  let equal ((o, a, b, c) : t) (o', a', b', c') =
    o = o' && a = a' && b = b' && c = c'

  let hash = Hashtbl.hash
end)

type t = {
  solver : S.t;
  lits : L.t array array;  (* [lits.(frame).(net)] *)
  lit_true : L.t;
  gates : L.t Gates.t;
}

let fresh t = L.pos (S.new_var t.solver)

(* The literal of gate [key]: the variable an identical gate already
   got, or a fresh one constrained by [clauses]. *)
let gate t key clauses =
  match Gates.find_opt t.gates key with
  | Some v -> v
  | None ->
      let v = fresh t in
      clauses t.solver v;
      Gates.add t.gates key v;
      v

let ordered a b = if a < b then (a, b) else (b, a)

(* The two-input constructors fold constant and repeated inputs to an
   existing literal before they hash.  Each new variable takes the
   polarity of the gate that made it: an OR gate gets an OR variable,
   not the complement of an AND, because the solver decides every
   variable true and polarity steers its models. *)
let and2 t a b =
  let f = L.negate t.lit_true in
  if a = f || b = f || a = L.negate b then f
  else if a = t.lit_true || a = b then b
  else if b = t.lit_true then a
  else
    let a, b = ordered a b in
    gate t (And, a, b, 0) (fun s out -> T.and2 s ~out a b)

let or2 t a b =
  let f = L.negate t.lit_true in
  if a = t.lit_true || b = t.lit_true || a = L.negate b then t.lit_true
  else if a = f || a = b then b
  else if b = f then a
  else
    let a, b = ordered a b in
    gate t (Or, a, b, 0) (fun s out -> T.or2 s ~out a b)

(* An XOR variable is the XOR of its inputs' variables; the inputs'
   signs move onto the output literal. *)
let xor2 t a b =
  let x = L.pos (L.var a) and y = L.pos (L.var b) in
  let v =
    if x = y then L.negate t.lit_true
    else if x = t.lit_true then L.negate y
    else if y = t.lit_true then L.negate x
    else
      let x, y = ordered x y in
      gate t (Xor, x, y, 0) (fun s out -> T.xor2 s ~out x y)
  in
  if L.sign a = L.sign b then v else L.negate v

(* [sel ? b : a].  A constant data input turns the mux into an AND or
   an OR, complementary data inputs into an XOR; the key's select is
   positive. *)
let mux t ~sel ~a ~b =
  let f = L.negate t.lit_true in
  if sel = t.lit_true then b
  else if sel = f || a = b then a
  else if a = L.negate b then xor2 t sel a
  else if a = f then and2 t sel b
  else if a = t.lit_true then or2 t (L.negate sel) b
  else if b = f then and2 t (L.negate sel) a
  else if b = t.lit_true then or2 t sel a
  else
    let sel, a, b = if L.sign sel then (sel, a, b) else (L.negate sel, b, a) in
    gate t (Mux, sel, a, b) (fun s out -> T.mux s ~out ~sel ~a ~b)

(* 3- and 4-input and AOI/OAI cells decompose into the two-input
   constructors, so their inner gates hash and fold too. *)
let encode_cell t lits (c : D.cell) =
  let i k = lits.(c.D.ins.(k)) in
  let and3 () = and2 t (and2 t (i 0) (i 1)) (i 2) in
  let or3 () = or2 t (or2 t (i 0) (i 1)) (i 2) in
  lits.(c.D.out) <-
    (match c.D.kind with
    | C.Const0 -> L.negate t.lit_true
    | C.Const1 -> t.lit_true
    | C.Buf -> i 0
    | C.Inv -> L.negate (i 0)
    | C.And2 -> and2 t (i 0) (i 1)
    | C.Nand2 -> L.negate (and2 t (i 0) (i 1))
    | C.Or2 -> or2 t (i 0) (i 1)
    | C.Nor2 -> L.negate (or2 t (i 0) (i 1))
    | C.Xor2 -> xor2 t (i 0) (i 1)
    | C.Xnor2 -> L.negate (xor2 t (i 0) (i 1))
    | C.And3 -> and3 ()
    | C.Nand3 -> L.negate (and3 ())
    | C.Or3 -> or3 ()
    | C.Nor3 -> L.negate (or3 ())
    | C.And4 -> and2 t (and3 ()) (i 3)
    | C.Or4 -> or2 t (or3 ()) (i 3)
    | C.Mux2 -> mux t ~sel:(i 0) ~a:(i 1) ~b:(i 2)
    | C.Aoi21 -> L.negate (or2 t (and2 t (i 0) (i 1)) (i 2))
    | C.Oai21 -> L.negate (and2 t (or2 t (i 0) (i 1)) (i 2))
    | C.Dff -> lits.(c.D.out) (* set by frame linking *))

let create ?pi_lit solver d ~init ~roots ~frames =
  let sched = Netlist.Topo.schedule d in
  let lits = Array.init frames (fun _ -> Array.make (D.num_nets d) absent) in
  (* Mark the cones, last frame first: frame [f] needs the roots and
     the D nets of the flops frame [f+1] needs.  Reverse topological
     order reaches every reader of a net before the net's driver, so
     one sweep closes a frame's cone under combinational fan-in. *)
  for f = frames - 1 downto 0 do
    let m = lits.(f) in
    let mark n = m.(n) <- needed in
    List.iter mark roots;
    if f < frames - 1 then
      Array.iter
        (fun ci ->
          let c = D.cell d ci in
          if lits.(f + 1).(c.D.out) <> absent then mark c.D.ins.(0))
        sched.Netlist.Topo.flops;
    for k = Array.length sched.Netlist.Topo.order - 1 downto 0 do
      let c = D.cell d sched.Netlist.Topo.order.(k) in
      if m.(c.D.out) <> absent then Array.iter mark c.D.ins
    done
  done;
  let v = S.new_var solver in
  let lit_true = L.pos v in
  S.add_clause solver [ lit_true ];
  let t = { solver; lits; lit_true; gates = Gates.create 4096 } in
  let floating = ref [] in
  for n = D.num_nets d - 1 downto 0 do
    if D.driver_kind d n = `Floating then floating := n :: !floating
  done;
  Array.iteri
    (fun f m ->
      let encode n l = if m.(n) = needed then m.(n) <- l () in
      m.(D.net_false) <- L.negate lit_true;
      m.(D.net_true) <- lit_true;
      List.iter
        (fun (nm, n) ->
          encode n (fun () ->
              match pi_lit with
              | Some p -> (
                  match p ~frame:f nm with Some l -> l | None -> fresh t)
              | None -> fresh t))
        (D.inputs d);
      Array.iter
        (fun ci ->
          let c = D.cell d ci in
          if f > 0 then encode c.D.out (fun () -> lits.(f - 1).(c.D.ins.(0)))
          else
            match init with
            | `Reset ->
                m.(c.D.out) <- (if c.D.init then lit_true else L.negate lit_true)
            | `Free -> encode c.D.out (fun () -> fresh t))
        sched.Netlist.Topo.flops;
      List.iter (fun n -> encode n (fun () -> fresh t)) !floating;
      Array.iter
        (fun ci ->
          let c = D.cell d ci in
          if m.(c.D.out) = needed then encode_cell t m c)
        sched.Netlist.Topo.order)
    lits;
  t

let frame_lits t frame =
  if frame < 0 || frame >= Array.length t.lits then
    invalid_arg "Unroll: no such frame";
  t.lits.(frame)

let lit t ~frame n =
  let l = (frame_lits t frame).(n) in
  if l < 0 then invalid_arg "Unroll.lit: net outside the cone";
  l

let value t ~frame n =
  let l = (frame_lits t frame).(n) in
  l >= 0 && S.lit_value t.solver l

let lit_true t = t.lit_true
let solver t = t.solver
