type t = {
  ctx : Ctx.t;
  words : Reg.t array;
  addr_bits : int;
}

let bits_for words =
  let rec go b = if 1 lsl b >= words then b else go (b + 1) in
  max 1 (go 1)

let create c ~words ~width name =
  if words <= 0 then invalid_arg "Mem.create: need at least one word";
  {
    ctx = c;
    words =
      Array.init words (fun i ->
          Reg.create c ~width (Printf.sprintf "%s_%d" name i));
    addr_bits = bits_for words;
  }

let read m addr =
  let addr = Ops.uresize addr m.addr_bits in
  Ops.mux addr (Array.to_list (Array.map Reg.q m.words))

let word_select m ~en ~addr i =
  let addr = Ops.uresize addr m.addr_bits in
  Ops.( &: ) en (Ops.eq_const addr i)

let write m ~en ~addr ~data =
  Array.iteri
    (fun i r ->
      let sel = word_select m ~en ~addr i in
      Reg.connect_en r ~en:sel data)
    m.words

let write2 m ~en0 ~addr0 ~data0 ~en1 ~addr1 ~data1 =
  Array.iteri
    (fun i r ->
      let sel0 = word_select m ~en:en0 ~addr:addr0 i in
      let sel1 = word_select m ~en:en1 ~addr:addr1 i in
      let next = Ops.mux2 sel1 (Ops.mux2 sel0 (Reg.q r) data0) data1 in
      Reg.connect r next)
    m.words
