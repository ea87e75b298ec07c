module D = Netlist.Design

type t = {
  ctx : Ctx.t;
  name : string;
  init : int;
  outs : D.net array;
  mutable connected : bool;
}

let create c ?(init = 0) ~width name =
  if width <= 0 then invalid_arg "Reg.create: width must be positive";
  let d = Ctx.design c in
  let outs = Array.init width (fun _ -> D.new_net d) in
  Array.iteri
    (fun i n ->
      D.set_net_name d n
        (if width = 1 then name else Printf.sprintf "%s[%d]" name i))
    outs;
  let r = { ctx = c; name; init; outs; connected = false } in
  Ctx.register_pending c name (fun () -> r.connected);
  r

let q r = Ctx.signal r.ctx r.outs

let connect r next =
  if r.connected then
    invalid_arg (Printf.sprintf "Reg.connect %s: already connected" r.name);
  if Ctx.width next <> Array.length r.outs then
    invalid_arg
      (Printf.sprintf "Reg.connect %s: width mismatch (%d vs %d)" r.name
         (Ctx.width next) (Array.length r.outs));
  ignore (Ctx.same_ctx (q r) next);
  let d = Ctx.design r.ctx in
  Array.iteri
    (fun i out ->
      let init = (r.init lsr i) land 1 = 1 in
      D.add_cell_out d ~init Netlist.Cell.Dff [| next.Ctx.nets.(i) |] ~out)
    r.outs;
  r.connected <- true

let connect_en r ~en next = connect r (Ops.mux2 en (q r) next)

let reg_en c ?init name ~en next =
  let r = create c ?init ~width:(Ctx.width next) name in
  connect_en r ~en next;
  q r
