module D = Netlist.Design
module C = Netlist.Cell

type t = {
  design : D.t;
  flops : int array;
  values : int array;  (* least fixpoint, one ternary value per net *)
  is_input : bool array;
}

(* The cells reading each net, in compressed form: the readers of net
   [n] are [readers.(start.(n)) .. readers.(start.(n + 1) - 1)], one
   entry per input pin. *)
let fanout d n_nets =
  let start = Array.make (n_nets + 1) 0 in
  D.iter_cells d (fun _ c ->
      Array.iter (fun n -> start.(n + 1) <- start.(n + 1) + 1) c.D.ins);
  for n = 1 to n_nets do
    start.(n) <- start.(n) + start.(n - 1)
  done;
  let fill = Array.sub start 0 n_nets in
  let readers = Array.make start.(n_nets) 0 in
  D.iter_cells d (fun ci c ->
      Array.iter
        (fun n ->
          readers.(fill.(n)) <- ci;
          fill.(n) <- fill.(n) + 1)
        c.D.ins);
  (start, readers)

let run d =
  Obs.add_int "absint.runs" 1;
  let sched = Netlist.Topo.schedule d in
  let n_nets = D.num_nets d in
  let is_input = Array.make n_nets false in
  List.iter (fun (_, n) -> is_input.(n) <- true) (D.inputs d);
  (* rails definite, primary inputs x, flops at their reset values *)
  let v = Array.make n_nets Ternary.x in
  v.(D.net_false) <- 0;
  v.(D.net_true) <- 1;
  Array.iter
    (fun ci ->
      let c = D.cell d ci in
      v.(c.D.out) <- Bool.to_int c.D.init)
    sched.Netlist.Topo.flops;
  (* one pin buffer per arity, so no evaluation allocates *)
  let bufs =
    Array.init
      (1 + D.fold_cells d (fun m _ c -> max m (Array.length c.D.ins)) 0)
      (fun k -> Array.make k 0)
  in
  let eval c =
    let ins = c.D.ins in
    let buf = bufs.(Array.length ins) in
    for i = 0 to Array.length ins - 1 do
      buf.(i) <- v.(ins.(i))
    done;
    Ternary.eval_cell c.D.kind buf
  in
  Array.iter
    (fun ci ->
      let c = D.cell d ci in
      v.(c.D.out) <- eval c)
    sched.Netlist.Topo.order;
  (* Values only ever move from 0/1 to x, so each net enters the
     worklist at most once. *)
  let pending = Array.make n_nets 0 and top = ref 0 in
  let turn_x n =
    v.(n) <- Ternary.x;
    pending.(!top) <- n;
    incr top
  in
  (* a flop whose next value differs from its reset value joins to x *)
  Array.iter
    (fun ci ->
      let c = D.cell d ci in
      if v.(c.D.out) <> Ternary.x && v.(c.D.ins.(0)) <> v.(c.D.out) then
        turn_x c.D.out)
    sched.Netlist.Topo.flops;
  let start, readers = fanout d n_nets in
  while !top > 0 do
    decr top;
    let n = pending.(!top) in
    for k = start.(n) to start.(n + 1) - 1 do
      let c = D.cell d readers.(k) in
      if v.(c.D.out) <> Ternary.x then
        (* a flop reading [n] reads it at D: its state joins to x *)
        if C.is_sequential c.D.kind || eval c = Ternary.x then turn_x c.D.out
    done
  done;
  { design = d; flops = sched.Netlist.Topo.flops; values = v; is_input }

let value t n = t.values.(n)

let constants t =
  let out = ref [] in
  for n = Array.length t.values - 1 downto 2 do
    if (not t.is_input.(n)) && t.values.(n) <> Ternary.x then
      out := Candidate.Const (n, t.values.(n) = 1) :: !out
  done;
  !out

let stuck_registers t =
  let d = t.design in
  let out = ref [] in
  Array.iter
    (fun ci ->
      let c = D.cell d ci in
      if t.values.(c.D.out) <> Ternary.x then
        out := (ci, t.values.(c.D.out) = 1) :: !out)
    t.flops;
  List.rev !out

let dead_writes t =
  let d = t.design in
  let out = ref [] in
  Array.iter
    (fun ci ->
      let c = D.cell d ci in
      match D.driver d c.D.ins.(0) with
      | Some mi -> (
          let m = D.cell d mi in
          match m.D.kind with
          | C.Mux2 when t.values.(m.D.ins.(0)) <> Ternary.x ->
              out := (ci, t.values.(m.D.ins.(0)) = 1) :: !out
          | _ -> ())
      | None -> ())
    t.flops;
  List.rev !out
