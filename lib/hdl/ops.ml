module D = Netlist.Design
module C = Netlist.Cell

type signal = Ctx.signal

let width = Ctx.width

let check_same_width op a b =
  if width a <> width b then
    invalid_arg
      (Printf.sprintf "Hdl.%s: width mismatch (%d vs %d)" op (width a) (width b))

let gate1 c kind a = D.add_cell (Ctx.design c) kind [| a |]
let gate2 c kind a b = D.add_cell (Ctx.design c) kind [| a; b |]

let map1 kind a =
  let c = a.Ctx.ctx in
  Ctx.signal c (Array.map (fun n -> gate1 c kind n) a.Ctx.nets)

let map2 op kind a b =
  check_same_width op a b;
  let c = Ctx.same_ctx a b in
  Ctx.signal c (Array.map2 (fun x y -> gate2 c kind x y) a.Ctx.nets b.Ctx.nets)

(* --- constants ------------------------------------------------------- *)

let const c ~width:w v =
  if w <= 0 || w > 62 then invalid_arg "Hdl.const: width out of range";
  Ctx.signal c
    (Array.init w (fun i ->
         if (v lsr i) land 1 = 1 then D.net_true else D.net_false))

let zero c w =
  if w <= 0 then invalid_arg "Hdl.zero: width must be positive";
  Ctx.signal c (Array.make w D.net_false)
let ones c w = Ctx.signal c (Array.make w D.net_true)
let vdd c = ones c 1
let gnd c = zero c 1

(* --- structure ------------------------------------------------------- *)

let bit s i =
  if i < 0 || i >= width s then invalid_arg "Hdl.bit: index out of range";
  Ctx.signal s.Ctx.ctx [| s.Ctx.nets.(i) |]

let bits s ~hi ~lo =
  if lo < 0 || hi < lo || hi >= width s then
    invalid_arg
      (Printf.sprintf "Hdl.bits: [%d:%d] out of range for width %d" hi lo (width s));
  Ctx.signal s.Ctx.ctx (Array.sub s.Ctx.nets lo (hi - lo + 1))

let msb s = bit s (width s - 1)
let lsb s = bit s 0

let concat parts =
  match parts with
  | [] -> invalid_arg "Hdl.concat: empty"
  | first :: _ ->
      let c = first.Ctx.ctx in
      List.iter (fun p -> ignore (Ctx.same_ctx first p)) parts;
      (* MSB-first argument order, LSB-first storage. *)
      let nets = List.concat_map (fun p -> Array.to_list p.Ctx.nets) (List.rev parts) in
      Ctx.signal c (Array.of_list nets)

let repeat s n =
  if n <= 0 then invalid_arg "Hdl.repeat: count must be positive";
  concat (List.init n (fun _ -> s))

let zero_extend s w =
  if w < width s then invalid_arg "Hdl.zero_extend: narrower target"
  else if w = width s then s
  else concat [ zero s.Ctx.ctx (w - width s); s ]

let sign_extend s w =
  if w < width s then invalid_arg "Hdl.sign_extend: narrower target"
  else if w = width s then s
  else concat [ repeat (msb s) (w - width s); s ]

let uresize s w =
  if w = width s then s
  else if w < width s then bits s ~hi:(w - 1) ~lo:0
  else zero_extend s w

(* --- bitwise --------------------------------------------------------- *)

let ( ~: ) a = map1 C.Inv a
let ( &: ) a b = map2 "&:" C.And2 a b
let ( |: ) a b = map2 "|:" C.Or2 a b
let ( ^: ) a b = map2 "^:" C.Xor2 a b

let reduce kind s =
  let c = s.Ctx.ctx in
  (* Balanced tree keeps levels logarithmic. *)
  let rec go nets =
    match Array.length nets with
    | 1 -> nets.(0)
    | n ->
        let half = n / 2 in
        let pairs =
          Array.init half (fun i -> gate2 c kind nets.(2 * i) nets.((2 * i) + 1))
        in
        let rest = if n land 1 = 1 then Array.append pairs [| nets.(n - 1) |] else pairs in
        go rest
  in
  Ctx.signal c [| go s.Ctx.nets |]

let reduce_and s = reduce C.And2 s
let reduce_or s = reduce C.Or2 s
let reduce_xor s = reduce C.Xor2 s

(* --- arithmetic ------------------------------------------------------ *)

let add_carry a b ~cin =
  check_same_width "+:" a b;
  if width cin <> 1 then invalid_arg "Hdl.add_carry: carry must be 1 bit";
  let c = Ctx.same_ctx a b in
  let carry = ref cin.Ctx.nets.(0) in
  let sum =
    Array.init (width a) (fun i ->
        let x = a.Ctx.nets.(i) and y = b.Ctx.nets.(i) in
        let xy = gate2 c C.Xor2 x y in
        let s = gate2 c C.Xor2 xy !carry in
        let c1 = gate2 c C.And2 x y in
        let c2 = gate2 c C.And2 xy !carry in
        carry := gate2 c C.Or2 c1 c2;
        s)
  in
  (Ctx.signal c sum, Ctx.signal c [| !carry |])

let ( +: ) a b = fst (add_carry a b ~cin:(gnd a.Ctx.ctx))
let ( -: ) a b = fst (add_carry a (~:b) ~cin:(vdd a.Ctx.ctx))
let negate a = zero a.Ctx.ctx (width a) -: a

let umul a b =
  let c = Ctx.same_ctx a b in
  let wa = width a and wb = width b in
  let out_w = wa + wb in
  let acc = ref (zero c out_w) in
  for i = 0 to wb - 1 do
    (* partial product: a AND b.(i), shifted left by i *)
    let bi = Ctx.signal c (Array.make wa b.Ctx.nets.(i)) in
    let pp = a &: bi in
    let shifted =
      if i = 0 then zero_extend pp out_w
      else concat [ uresize pp (out_w - i); zero c i ]
    in
    acc := !acc +: shifted
  done;
  !acc

(* --- comparison ------------------------------------------------------ *)

let ( ==: ) a b =
  check_same_width "==:" a b;
  reduce_and (~:(a ^: b))

let ( <>: ) a b = ~:(a ==: b)

let ( <: ) a b =
  check_same_width "<:" a b;
  (* a < b unsigned iff subtraction a - b borrows, i.e. carry-out = 0 *)
  let _, cout = add_carry a (~:b) ~cin:(vdd a.Ctx.ctx) in
  ~:cout

let ( >=: ) a b = ~:(a <: b)
let ( >: ) a b = b <: a
let ( <=: ) a b = ~:(b <: a)

let slt a b =
  check_same_width "slt" a b;
  (* signed comparison: flip sign bits and compare unsigned *)
  let flip s =
    let m = msb s in
    if width s = 1 then ~:m else concat [ ~:m; bits s ~hi:(width s - 2) ~lo:0 ]
  in
  flip a <: flip b

let eq_const s v = s ==: const s.Ctx.ctx ~width:(width s) v

(* --- selection ------------------------------------------------------- *)

let mux2 sel a b =
  if width sel <> 1 then invalid_arg "Hdl.mux2: selector must be 1 bit";
  check_same_width "mux2" a b;
  let c = Ctx.same_ctx a b in
  ignore (Ctx.same_ctx sel a);
  let s = sel.Ctx.nets.(0) in
  Ctx.signal c
    (Array.init (width a) (fun i ->
         D.add_cell (Ctx.design c) C.Mux2 [| s; a.Ctx.nets.(i); b.Ctx.nets.(i) |]))

let mux idx cases =
  let cases = Array.of_list cases in
  let l = Array.length cases in
  if l = 0 then invalid_arg "Hdl.mux: no cases";
  let case i = cases.(min i (l - 1)) in
  (* Binary mux tree over the index bits; subtrees that lie entirely in
     the replicated tail collapse to the last case. *)
  let rec build bit_i lo =
    if lo >= l - 1 then case (l - 1)
    else if bit_i < 0 then case lo
    else
      mux2 (bit idx bit_i)
        (build (bit_i - 1) lo)
        (build (bit_i - 1) (lo + (1 lsl bit_i)))
  in
  build (width idx - 1) 0

let one_hot_mux pairs =
  match pairs with
  | [] -> invalid_arg "Hdl.one_hot_mux: empty"
  | (s0, v0) :: _ ->
      let c = Ctx.same_ctx s0 v0 in
      let w = width v0 in
      let masked =
        List.map
          (fun (sel, v) ->
            if width sel <> 1 then invalid_arg "Hdl.one_hot_mux: 1-bit selects";
            check_same_width "one_hot_mux" v0 v;
            v &: Ctx.signal c (Array.make w sel.Ctx.nets.(0)))
          pairs
      in
      List.fold_left ( |: ) (zero c w) masked

(* --- shifts ----------------------------------------------------------- *)

let sll_const s n =
  if n = 0 then s
  else if n >= width s then zero s.Ctx.ctx (width s)
  else concat [ bits s ~hi:(width s - 1 - n) ~lo:0; zero s.Ctx.ctx n ]

let srl_const s n =
  if n = 0 then s
  else if n >= width s then zero s.Ctx.ctx (width s)
  else concat [ zero s.Ctx.ctx n; bits s ~hi:(width s - 1) ~lo:n ]

let sra_const s n =
  if n = 0 then s
  else
    let n = min n (width s - 1) in
    concat [ repeat (msb s) n; bits s ~hi:(width s - 1) ~lo:n ]

let barrel shift_stage s amount =
  (* log-depth mux stages; amount bits beyond the width are ORed into a
     separate "overshift" control by the callers that care *)
  let rec go s i =
    if i >= width amount then s
    else
      let stage = shift_stage s (1 lsl i) in
      go (mux2 (bit amount i) s stage) (i + 1)
  in
  go s 0

let sll s amount = barrel sll_const s amount
let srl s amount = barrel srl_const s amount
let sra s amount = barrel sra_const s amount

(* --- misc -------------------------------------------------------------- *)

let priority_select guarded ~default =
  List.fold_right (fun (g, v) acc -> mux2 g acc v) guarded default

let popcount s =
  let c = s.Ctx.ctx in
  let w = width s in
  let out_w =
    let rec bits_needed n acc = if 1 lsl acc > n then acc else bits_needed n (acc + 1) in
    bits_needed w 1
  in
  Array.fold_left
    (fun acc n -> acc +: zero_extend (Ctx.signal c [| n |]) out_w)
    (zero c out_w) s.Ctx.nets

let name nm s =
  let d = Ctx.design s.Ctx.ctx in
  if width s = 1 then D.set_net_name d s.Ctx.nets.(0) nm
  else
    Array.iteri (fun i n -> D.set_net_name d n (Printf.sprintf "%s[%d]" nm i)) s.Ctx.nets;
  s
