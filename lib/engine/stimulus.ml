type t = {
  drive : Random.State.t -> (Netlist.Design.net * int64) list;
}

let unconstrained = { drive = (fun _ -> []) }

let random_word rng =
  Int64.logor
    (Int64.of_int (Random.State.bits rng))
    (Int64.logor
       (Int64.shift_left (Int64.of_int (Random.State.bits rng)) 30)
       (Int64.shift_left (Int64.of_int (Random.State.bits rng)) 60))

type feed = {
  stimulus : t;
  inputs : Netlist.Design.net array;
  stamp : int array;  (* per net: the last cycle the stimulus drove it *)
  mutable cycle : int;
}

let feed d stimulus =
  {
    stimulus;
    inputs = Array.of_list (List.map snd (Netlist.Design.inputs d));
    stamp = Array.make (Netlist.Design.num_nets d) 0;
    cycle = 0;
  }

let next_cycle f rng set =
  let driven = f.stimulus.drive rng in
  f.cycle <- f.cycle + 1;
  let n_nets = Array.length f.stamp in
  List.iter
    (fun (n, _) -> if n >= 0 && n < n_nets then f.stamp.(n) <- f.cycle)
    driven;
  for i = 0 to Array.length f.inputs - 1 do
    let n = f.inputs.(i) in
    if f.stamp.(n) <> f.cycle then set n (random_word rng)
  done;
  List.iter (fun (n, v) -> set n v) driven

let pack_lanes gen ~width =
  let words = Array.init 64 gen in
  Array.init width (fun i ->
      let acc = ref 0L in
      for lane = 0 to 63 do
        if (words.(lane) lsr i) land 1 = 1 then
          acc := Int64.logor !acc (Int64.shift_left 1L lane)
      done;
      !acc)

let bus_driver nets gen rng =
  let lanes = pack_lanes (fun _ -> gen rng) ~width:(Array.length nets) in
  Array.to_list (Array.mapi (fun i n -> (n, lanes.(i))) nets)
