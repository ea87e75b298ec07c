type kind =
  | Const0
  | Const1
  | Buf
  | Inv
  | And2
  | Or2
  | Nand2
  | Nor2
  | Xor2
  | Xnor2
  | And3
  | Or3
  | Nand3
  | Nor3
  | And4
  | Or4
  | Mux2
  | Aoi21
  | Oai21
  | Dff

let arity = function
  | Const0 | Const1 -> 0
  | Buf | Inv | Dff -> 1
  | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2 -> 2
  | And3 | Or3 | Nand3 | Nor3 | Mux2 | Aoi21 | Oai21 -> 3
  | And4 | Or4 -> 4

let name = function
  | Const0 -> "TIELO_X1"
  | Const1 -> "TIEHI_X1"
  | Buf -> "BUF_X1"
  | Inv -> "INV_X1"
  | And2 -> "AND2_X1"
  | Or2 -> "OR2_X1"
  | Nand2 -> "NAND2_X1"
  | Nor2 -> "NOR2_X1"
  | Xor2 -> "XOR2_X1"
  | Xnor2 -> "XNOR2_X1"
  | And3 -> "AND3_X1"
  | Or3 -> "OR3_X1"
  | Nand3 -> "NAND3_X1"
  | Nor3 -> "NOR3_X1"
  | And4 -> "AND4_X1"
  | Or4 -> "OR4_X1"
  | Mux2 -> "MUX2_X1"
  | Aoi21 -> "AOI21_X1"
  | Oai21 -> "OAI21_X1"
  | Dff -> "DFF_X1"

let all =
  [ Const0; Const1; Buf; Inv; And2; Or2; Nand2; Nor2; Xor2; Xnor2;
    And3; Or3; Nand3; Nor3; And4; Or4; Mux2; Aoi21; Oai21; Dff ]

let of_name s =
  let s = String.uppercase_ascii s in
  List.find_opt (fun k -> name k = s) all

(* Areas in um^2, matching the relative weights of the NANGATE 45nm open
   cell library (X1 drive).  Absolute values only matter up to a scale
   factor: the evaluation reports area ratios between design variants. *)
let area = function
  | Const0 | Const1 -> 0.266
  | Inv -> 0.532
  | Buf -> 0.798
  | Nand2 | Nor2 -> 0.798
  | And2 | Or2 -> 1.064
  | Nand3 | Nor3 -> 1.064
  | And3 | Or3 -> 1.330
  | And4 | Or4 -> 1.596
  | Aoi21 | Oai21 -> 1.064
  | Xor2 | Xnor2 -> 1.596
  | Mux2 -> 1.862
  | Dff -> 4.522

let is_sequential = function
  | Dff -> true
  | Const0 | Const1 | Buf | Inv | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2
  | And3 | Or3 | Nand3 | Nor3 | And4 | Or4 | Mux2 | Aoi21 | Oai21 -> false

let check_arity k n =
  if n <> arity k then
    invalid_arg
      (Printf.sprintf "Cell.eval %s: expected %d inputs, got %d" (name k)
         (arity k) n)

let eval k (ins : int64 array) : int64 =
  check_arity k (Array.length ins);
  let ( &: ) = Int64.logand
  and ( |: ) = Int64.logor
  and ( ^: ) = Int64.logxor
  and notb = Int64.lognot in
  match k with
  | Const0 -> 0L
  | Const1 -> -1L
  | Buf -> ins.(0)
  | Inv -> notb ins.(0)
  | And2 -> ins.(0) &: ins.(1)
  | Or2 -> ins.(0) |: ins.(1)
  | Nand2 -> notb (ins.(0) &: ins.(1))
  | Nor2 -> notb (ins.(0) |: ins.(1))
  | Xor2 -> ins.(0) ^: ins.(1)
  | Xnor2 -> notb (ins.(0) ^: ins.(1))
  | And3 -> ins.(0) &: ins.(1) &: ins.(2)
  | Or3 -> ins.(0) |: ins.(1) |: ins.(2)
  | Nand3 -> notb (ins.(0) &: ins.(1) &: ins.(2))
  | Nor3 -> notb (ins.(0) |: ins.(1) |: ins.(2))
  | And4 -> ins.(0) &: ins.(1) &: ins.(2) &: ins.(3)
  | Or4 -> ins.(0) |: ins.(1) |: ins.(2) |: ins.(3)
  | Mux2 ->
      let s = ins.(0) in
      (notb s &: ins.(1)) |: (s &: ins.(2))
  | Aoi21 -> notb ((ins.(0) &: ins.(1)) |: ins.(2))
  | Oai21 -> notb ((ins.(0) |: ins.(1)) &: ins.(2))
  | Dff -> invalid_arg "Cell.eval: Dff is sequential"

let input_pin_name k i =
  match k, i with
  | Mux2, 0 -> "S"
  | Mux2, 1 -> "A"
  | Mux2, 2 -> "B"
  | (Aoi21 | Oai21), 0 -> "A1"
  | (Aoi21 | Oai21), 1 -> "A2"
  | (Aoi21 | Oai21), 2 -> "B"
  | Dff, 0 -> "D"
  | (Buf | Inv), 0 -> "A"
  | _, i when i < arity k -> Printf.sprintf "A%d" (i + 1)
  | _ -> invalid_arg "Cell.input_pin_name"

let output_pin_name = function
  | Dff -> "Q"
  | Buf | And2 | Or2 | And3 | Or3 | And4 | Or4 | Mux2 | Const1 -> "Z"
  | Inv | Nand2 | Nor2 | Xor2 | Xnor2 | Nand3 | Nor3 | Aoi21 | Oai21 | Const0
    -> "ZN"

let pp fmt k = Format.pp_print_string fmt (name k)
