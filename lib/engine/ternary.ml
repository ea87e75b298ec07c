module C = Netlist.Cell

(* values: 0, 1, 2 = X *)
let x = 2

let join a b = if a = b then a else x

let eval_cell kind (ins : int array) =
  let all v = Array.for_all (( = ) v) ins in
  let any v = Array.exists (( = ) v) ins in
  let and_n () = if any 0 then 0 else if all 1 then 1 else x in
  let or_n () = if any 1 then 1 else if all 0 then 0 else x in
  let inv = function 0 -> 1 | 1 -> 0 | _ -> x in
  match kind with
  | C.Const0 -> 0
  | C.Const1 -> 1
  | C.Buf -> ins.(0)
  | C.Inv -> inv ins.(0)
  | C.And2 | C.And3 | C.And4 -> and_n ()
  | C.Or2 | C.Or3 | C.Or4 -> or_n ()
  | C.Nand2 | C.Nand3 -> inv (and_n ())
  | C.Nor2 | C.Nor3 -> inv (or_n ())
  | C.Xor2 ->
      if ins.(0) = x || ins.(1) = x then x else ins.(0) lxor ins.(1)
  | C.Xnor2 ->
      if ins.(0) = x || ins.(1) = x then x else inv (ins.(0) lxor ins.(1))
  | C.Mux2 -> (
      match ins.(0) with
      | 0 -> ins.(1)
      | 1 -> ins.(2)
      | _ -> join ins.(1) ins.(2))
  | C.Aoi21 ->
      let a = if ins.(0) = 0 || ins.(1) = 0 then 0
              else if ins.(0) = 1 && ins.(1) = 1 then 1 else x in
      if a = 1 || ins.(2) = 1 then 0
      else if a = 0 && ins.(2) = 0 then 1 else x
  | C.Oai21 ->
      let o = if ins.(0) = 1 || ins.(1) = 1 then 1
              else if ins.(0) = 0 && ins.(1) = 0 then 0 else x in
      if o = 0 || ins.(2) = 0 then 1
      else if o = 1 && ins.(2) = 1 then 0 else x
  | C.Dff -> invalid_arg "Ternary: sequential"
