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

type t = {
  solver : S.t;
  lits : L.t array array;  (* [lits.(frame).(net)] *)
  lit_true : L.t;
}

let fresh t = L.pos (S.new_var t.solver)

let encode_cell t lits (c : D.cell) =
  let l n = lits.(n) in
  let out v = lits.(c.D.out) <- v in
  let s = t.solver in
  let i k = l c.D.ins.(k) in
  let new_and a b =
    let v = fresh t in
    T.and2 s ~out:v a b;
    v
  in
  let new_or a b =
    let v = fresh t in
    T.or2 s ~out:v a b;
    v
  in
  match c.D.kind with
  | C.Const0 -> out (L.negate t.lit_true)
  | C.Const1 -> out t.lit_true
  | C.Buf -> out (i 0)
  | C.Inv -> out (L.negate (i 0))
  | C.And2 -> out (new_and (i 0) (i 1))
  | C.Nand2 -> out (L.negate (new_and (i 0) (i 1)))
  | C.Or2 -> out (new_or (i 0) (i 1))
  | C.Nor2 -> out (L.negate (new_or (i 0) (i 1)))
  | C.Xor2 ->
      let v = fresh t in
      T.xor2 s ~out:v (i 0) (i 1);
      out v
  | C.Xnor2 ->
      let v = fresh t in
      T.xor2 s ~out:v (i 0) (i 1);
      out (L.negate v)
  | C.And3 ->
      let v = fresh t in
      T.andn s ~out:v [ i 0; i 1; i 2 ];
      out v
  | C.Nand3 ->
      let v = fresh t in
      T.andn s ~out:v [ i 0; i 1; i 2 ];
      out (L.negate v)
  | C.Or3 ->
      let v = fresh t in
      T.orn s ~out:v [ i 0; i 1; i 2 ];
      out v
  | C.Nor3 ->
      let v = fresh t in
      T.orn s ~out:v [ i 0; i 1; i 2 ];
      out (L.negate v)
  | C.And4 ->
      let v = fresh t in
      T.andn s ~out:v [ i 0; i 1; i 2; i 3 ];
      out v
  | C.Or4 ->
      let v = fresh t in
      T.orn s ~out:v [ i 0; i 1; i 2; i 3 ];
      out v
  | C.Mux2 ->
      let v = fresh t in
      T.mux s ~out:v ~sel:(i 0) ~a:(i 1) ~b:(i 2);
      out v
  | C.Aoi21 -> out (L.negate (new_or (new_and (i 0) (i 1)) (i 2)))
  | C.Oai21 -> out (L.negate (new_and (new_or (i 0) (i 1)) (i 2)))
  | C.Dff -> ()  (* handled by frame linking *)

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
  let t = { solver; lits; lit_true } in
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
