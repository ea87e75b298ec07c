type t =
  | Const of Netlist.Design.net * bool
  | Implies of { cell : int; a : Netlist.Design.net; b : Netlist.Design.net }

let compare = Stdlib.compare
let equal a b = compare a b = 0

let holds_in_values value = function
  | Const (n, true) -> value n = -1L
  | Const (n, false) -> value n = 0L
  | Implies { a; b; _ } -> Int64.logand (value a) (Int64.lognot (value b)) = 0L

(* Every candidate fails exactly on the lanes where one net is 1 and
   another is 0: [Const (n, true)] is [true -> n] and [Const (n, false)]
   is [n -> false] over the simulator's rails. *)
type probes = { hi : Netlist.Design.net array; lo : Netlist.Design.net array }

let probes cands =
  let hi, lo =
    Array.split
      (Array.map
         (function
           | Const (n, true) -> (Netlist.Design.net_true, n)
           | Const (n, false) -> (n, Netlist.Design.net_false)
           | Implies { a; b; _ } -> (a, b))
         cands)
  in
  { hi; lo }

let iter_violated p sim ~lanes ~alive f =
  let v = Netlist.Sim64.words sim in
  if lanes <> 0L then
    for i = 0 to Array.length p.hi - 1 do
      if alive.(i) then begin
        let viol =
          Int64.logand lanes
            (Int64.logand v.{Array.unsafe_get p.hi i}
               (Int64.lognot v.{Array.unsafe_get p.lo i}))
        in
        if viol <> 0L then f i viol
      end
    done

let key = function
  | Const (n, b) -> Printf.sprintf "C%d:%d" n (Bool.to_int b)
  | Implies { cell; a; b } -> Printf.sprintf "I%d:%d>%d" cell a b

let of_key s =
  let num t = match int_of_string_opt t with Some n when n >= 0 -> Some n | _ -> None in
  if String.length s < 2 then None
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'C' -> (
        match String.split_on_char ':' body with
        | [ n; "0" ] -> Option.map (fun n -> Const (n, false)) (num n)
        | [ n; "1" ] -> Option.map (fun n -> Const (n, true)) (num n)
        | _ -> None)
    | 'I' -> (
        match String.split_on_char ':' body with
        | [ cell; rest ] -> (
            match String.split_on_char '>' rest with
            | [ a; b ] -> (
                match (num cell, num a, num b) with
                | Some cell, Some a, Some b -> Some (Implies { cell; a; b })
                | _ -> None)
            | _ -> None)
        | _ -> None)
    | _ -> None

let pp d fmt = function
  | Const (n, b) ->
      Format.fprintf fmt "%s == %d" (Netlist.Design.net_name d n) (Bool.to_int b)
  | Implies { a; b; cell } ->
      Format.fprintf fmt "%s -> %s (cell %d)" (Netlist.Design.net_name d a)
        (Netlist.Design.net_name d b) cell
