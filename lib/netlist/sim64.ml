open Bigarray

type words = (int64, int64_elt, c_layout) Array1.t

(* The combinational schedule compiled to straight-line code: step [k]
   of the topological order computes [kinds.(k)] into net
   [pins.(stride * k)] from the operand nets [pins.(stride * k + 1 ..
   stride * k + 4)].  Operands past a cell's arity point at net 0, so
   every step loads four words without branching on its arity; the
   cell function ignores the extra ones. *)
type t = {
  d : Design.t;
  values : words;
  is_input : bool array;
  kinds : Cell.kind array;
  pins : int array;
  flop_d : int array;
  flop_q : int array;
  flop_init : bool array;
  next : words;  (* flop D values latched by [step], one per flop *)
}

let stride = 5

let design t = t.d
let words t = t.values

let reset t =
  Array1.fill t.values 0L;
  t.values.{Design.net_true} <- -1L;
  Array.iteri
    (fun i q -> t.values.{q} <- (if t.flop_init.(i) then -1L else 0L))
    t.flop_q

let create d =
  let sched = Topo.schedule d in
  let cell ci =
    let c = Design.cell d ci in
    Cell.check_arity c.kind (Array.length c.ins);
    c
  in
  let order = Array.map cell sched.Topo.order in
  let flops = Array.map cell sched.Topo.flops in
  let pins = Array.make (stride * Array.length order) Design.net_false in
  Array.iteri
    (fun k (c : Design.cell) ->
      pins.(stride * k) <- c.out;
      Array.iteri (fun j n -> pins.((stride * k) + 1 + j) <- n) c.ins)
    order;
  let n_nets = Design.num_nets d in
  let is_input = Array.make n_nets false in
  List.iter (fun (_, n) -> is_input.(n) <- true) (Design.inputs d);
  let t =
    {
      d;
      values = Array1.create Int64 C_layout n_nets;
      is_input;
      kinds = Array.map (fun (c : Design.cell) -> c.kind) order;
      pins;
      flop_d = Array.map (fun (c : Design.cell) -> c.ins.(0)) flops;
      flop_q = Array.map (fun (c : Design.cell) -> c.out) flops;
      flop_init = Array.map (fun (c : Design.cell) -> c.init) flops;
      next = Array1.create Int64 C_layout (Array.length flops);
    }
  in
  reset t;
  t

let load_state t f = Array.iter (fun q -> t.values.{q} <- f q) t.flop_q

let set_input t n v =
  if n < 0 || n >= Array.length t.is_input || not t.is_input.(n) then
    invalid_arg "Sim64.set_input: not a primary input";
  Array1.unsafe_set t.values n v

let set_input_name t nm v =
  match Design.find_input t.d nm with
  | Some n -> set_input t n v
  | None -> invalid_arg (Printf.sprintf "Sim64.set_input_name: no input %s" nm)

(* Every operand word is a local [int64] consumed by an [Int64]
   primitive or stored straight back into the bigarray, so the loop
   never boxes.  The semantics are [Cell.eval]'s, pin for pin. *)
let eval t =
  let v = t.values and pins = t.pins and kinds = t.kinds in
  for k = 0 to Array.length kinds - 1 do
    let p = stride * k in
    let x0 = Array1.unsafe_get v (Array.unsafe_get pins (p + 1))
    and x1 = Array1.unsafe_get v (Array.unsafe_get pins (p + 2))
    and x2 = Array1.unsafe_get v (Array.unsafe_get pins (p + 3))
    and x3 = Array1.unsafe_get v (Array.unsafe_get pins (p + 4)) in
    Array1.unsafe_set v (Array.unsafe_get pins p)
      (match Array.unsafe_get kinds k with
      | Cell.Const0 -> 0L
      | Cell.Const1 -> -1L
      | Cell.Buf -> x0
      | Cell.Inv -> Int64.lognot x0
      | Cell.And2 -> Int64.logand x0 x1
      | Cell.Or2 -> Int64.logor x0 x1
      | Cell.Nand2 -> Int64.lognot (Int64.logand x0 x1)
      | Cell.Nor2 -> Int64.lognot (Int64.logor x0 x1)
      | Cell.Xor2 -> Int64.logxor x0 x1
      | Cell.Xnor2 -> Int64.lognot (Int64.logxor x0 x1)
      | Cell.And3 -> Int64.logand (Int64.logand x0 x1) x2
      | Cell.Or3 -> Int64.logor (Int64.logor x0 x1) x2
      | Cell.Nand3 -> Int64.lognot (Int64.logand (Int64.logand x0 x1) x2)
      | Cell.Nor3 -> Int64.lognot (Int64.logor (Int64.logor x0 x1) x2)
      | Cell.And4 -> Int64.logand (Int64.logand x0 x1) (Int64.logand x2 x3)
      | Cell.Or4 -> Int64.logor (Int64.logor x0 x1) (Int64.logor x2 x3)
      | Cell.Mux2 ->
          Int64.logor (Int64.logand (Int64.lognot x0) x1) (Int64.logand x0 x2)
      | Cell.Aoi21 -> Int64.lognot (Int64.logor (Int64.logand x0 x1) x2)
      | Cell.Oai21 -> Int64.lognot (Int64.logand (Int64.logor x0 x1) x2)
      | Cell.Dff -> invalid_arg "Cell.eval: Dff is sequential")
  done

let step t =
  let v = t.values and next = t.next in
  (* Two passes so that flop-to-flop chains see pre-edge values. *)
  for i = 0 to Array.length t.flop_d - 1 do
    Array1.unsafe_set next i (Array1.unsafe_get v (Array.unsafe_get t.flop_d i))
  done;
  for i = 0 to Array.length t.flop_q - 1 do
    Array1.unsafe_set v (Array.unsafe_get t.flop_q i) (Array1.unsafe_get next i)
  done

let read t n = t.values.{n}

let set_bus t nets v =
  Array.iteri
    (fun i n -> set_input t n (if (v lsr i) land 1 = 1 then -1L else 0L))
    nets

let read_bus_lane t nets ~lane =
  let acc = ref 0 in
  Array.iteri
    (fun i n ->
      if Int64.logand (Int64.shift_right_logical t.values.{n} lane) 1L = 1L
      then acc := !acc lor (1 lsl i))
    nets;
  !acc

let read_bus t nets = read_bus_lane t nets ~lane:0
